"""Exact certificates for Ricci negative derivations of nilpotent Lie algebras."""

from .errors import (
    InvariantViolation,
    NilconeError,
    NotADerivationError,
    ParseError,
    UnknownCatalogEntry,
)
from .liecore import (
    LieBracket,
    center,
    check_jacobi,
    emit_bracket,
    is_nice_basis,
    is_nilpotent,
    lower_central_series,
    parse_bracket,
)
from .derivations import (
    Analysis,
    derivation_algebra,
    diagonal_derivations,
    engel_flag,
    is_diagonal_derivation,
    solve_phi,
)
from .polytope import (
    is_face,
    iter_faces,
    iter_nice_candidates,
    project_certificate_cone,
    strict_cone_membership,
    weight_set,
)
from .momentricci import (
    MetricExtension,
    extension_ricci,
    is_negative_definite,
    moment_map,
    nil_ricci,
    norm_squared,
)
from .certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    UNKNOWN,
    Certificate,
    Verdict,
    certify_derivation,
    certify_nilradical,
    find_witness_metric,
    necessary_condition,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .catalog import catalog_get, catalog_list, run_regression

__version__ = "0.1.0"
