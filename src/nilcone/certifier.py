"""Verdict pipeline: is a diagonal derivation Ricci negative, and can an
algebra be a Ricci negative nilradical at all.

Positive verdicts always carry a certificate that re-verifies from stored
data alone with exact arithmetic; negative verdicts carry one of the
implemented obstructions.  Everything else is Unknown, reported honestly:
the degeneration search under-approximates the true cone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .derivations import (
    DiagonalDerivationSpace,
    der_if_traceless,
    diagonal_derivations,
    engel_flag,
    is_diagonal_derivation,
    require_diagonal_derivation,
)
from .errors import InputError, ParseError
from .liecore import Key, LieBracket, emit_bracket, is_nice_basis, is_nilpotent, parse_bracket, center
from .linalg import ONE, Vec, ZERO, fmt_rational, frac, integer_row, leading_principal_minors
from .momentricci import MetricExtension, extension_ricci, is_negative_definite
from .polytope import (
    iter_face_candidates,
    is_face,
    pairing,
    strict_cone_membership,
    sub_bracket,
    verify_membership,
    weight_set,
)
from .simplex import max_margin

POSITIVE_DERIVATION = "PositiveDerivation"
NICE_CONE = "NiceCone"
DEGENERATION_CONE = "DegenerationCone"

CERTIFIED_RN = "CertifiedRN"
CERTIFIED_NOT_RN = "CertifiedNotRN"
UNKNOWN = "Unknown"

SCOPE_DERIVATION = "derivation"
SCOPE_ALGEBRA = "algebra"


@dataclass(frozen=True)
class Certificate:
    kind: str
    d: Vec
    # (alpha, J) for DegenerationCone; the limit bracket is sub_bracket(mu, J)
    degeneration: tuple[Vec, frozenset[Key]] | None = None
    coefficients: dict[Key, Fraction] = field(default_factory=dict)
    slack: Fraction = ZERO
    witness: MetricExtension | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    scope: str
    d: Vec | None = None
    certificate: Certificate | None = None
    obstruction: str | None = None
    notes: str = ""


def necessary_condition(mu: LieBracket, d: Vec) -> tuple[bool, str | None]:
    """tr D > 0 and D positive definite on the center.

    The center need not be spanned by standard basis vectors, so the
    restriction is tested as a quadratic form by exact leading minors.
    """
    require_diagonal_derivation(d, mu)
    trd = sum(d, ZERO)
    if trd <= 0:
        return False, f"trace {trd} is not positive"
    z = center(mu)
    if z:
        # only coordinates where d and both center vectors are nonzero add
        weighted = [[(r, d[r] * v) for r, v in enumerate(za) if v and d[r]] for za in z]
        gram = [[sum((w * zb[r] for r, w in dza if zb[r]), ZERO) for zb in z] for dza in weighted]
        if any(m <= 0 for m in leading_principal_minors(gram)):
            return False, "restriction to the center is not positive definite"
    return True, None


def membership_certificate(
    d: Vec, lam: LieBracket, kind: str, degeneration
) -> Certificate | None:
    w = weight_set(lam)
    res = strict_cone_membership(d, w)
    if not res.feasible:
        return None
    return Certificate(
        kind=kind,
        d=tuple(d),
        degeneration=degeneration,
        coefficients=dict(res.assignment),
        slack=res.slack,
    )


def certify_derivation(
    mu: LieBracket,
    d: Vec,
    budget: int = 4096,
    want_witness: bool = False,
) -> Verdict:
    """Decide whether the diagonal derivation D is Ricci negative.

    Pipeline: entrywise-positive shortcut, necessary condition, nice-basis
    LP, nice face degenerations by decreasing |J|, then Unknown.  Never
    returns a verdict about the algebra itself.  ``budget`` bounds the nice
    face subsets tested, i.e. the ``is_face`` LPs; a requested witness
    search runs at its own default.
    """
    require_diagonal_derivation(d, mu)
    d = tuple(frac(x) for x in d)
    trd = sum(d, ZERO)
    if trd <= 0:
        raise InputError(f"derivation trace must be positive, got {trd}")

    if all(x > 0 for x in d):
        cert = Certificate(POSITIVE_DERIVATION, d, slack=min(d))
        return Verdict(CERTIFIED_RN, SCOPE_DERIVATION, d, cert, notes="positive derivation")

    ok, reason = necessary_condition(mu, d)
    if not ok:
        return Verdict(
            CERTIFIED_NOT_RN,
            SCOPE_DERIVATION,
            d,
            obstruction=f"necessary condition fails: {reason}",
            notes="verdict applies to this derivation only",
        )

    if is_nice_basis(mu):
        cert = membership_certificate(d, mu, NICE_CONE, None)
        if cert is not None:
            verdict = Verdict(CERTIFIED_RN, SCOPE_DERIVATION, d, cert, notes="nice basis cone")
            return _maybe_attach_witness(mu, verdict, want_witness)
        return Verdict(
            UNKNOWN,
            SCOPE_DERIVATION,
            d,
            notes="cone membership over the full hull is infeasible; "
            "the certified cone under-approximates the true one",
        )

    w = weight_set(mu)
    tested = 0
    complete = True
    for j_set in iter_face_candidates(mu):
        if j_set == frozenset(mu.keys()):
            continue  # the full hull needs a nice basis, handled above
        if tested >= budget:
            complete = False
            break
        lam = sub_bracket(mu, j_set)
        if not is_nice_basis(lam):
            continue
        tested += 1
        face, alpha = is_face(j_set, w)
        if not face:
            continue
        # D solves a subset of the defining equations, so it stays a derivation
        cert = membership_certificate(d, lam, DEGENERATION_CONE, (alpha, frozenset(j_set)))
        if cert is not None:
            verdict = Verdict(
                CERTIFIED_RN, SCOPE_DERIVATION, d, cert,
                notes=f"degeneration keeping {len(j_set)} of {len(mu.keys())} constants",
            )
            return _maybe_attach_witness(mu, verdict, want_witness)
    note = "no nice face degeneration certifies this derivation"
    if not complete:
        note += " (face budget exhausted)"
    return Verdict(UNKNOWN, SCOPE_DERIVATION, d, notes=note)


def _maybe_attach_witness(mu, verdict, want_witness):
    if not want_witness or verdict.certificate is None:
        return verdict
    ext = find_witness_metric(mu, verdict.d, verdict.certificate)
    if ext is None:
        return verdict
    return replace(verdict, certificate=replace(verdict.certificate, witness=ext))


# ---------------------------------------------------------------------------
# Algebra-level verdict
# ---------------------------------------------------------------------------


def _positive_diagonal_derivation(dspace: DiagonalDerivationSpace, n: int) -> Vec | None:
    """LP for a derivation with all diagonal entries positive."""
    if dspace.dim == 0:
        return None
    a_ub = [[-v[r] for v in dspace.basis] for r in range(n)]
    sol = max_margin(a_ub, [ZERO] * n, free=True)
    return None if sol is None else dspace.point(sol[1])


def _extreme_ray_candidates(mu: LieBracket, dspace: DiagonalDerivationSpace) -> list[Vec]:
    """Extreme rays of the closed certificate cone in the d-space, plus their sum.

    Enumerated from the projected inequality description; skipped when the
    projection would be too large to be worth it.
    """
    from .linalg import Echelon, dense_row
    from .polytope import project_certificate_cone

    if dspace.dim == 0 or len(mu.keys()) > 16:
        return []
    cone = project_certificate_cone(weight_set(mu), dspace)
    if cone.empty or not cone.inequalities:
        return []
    p = dspace.dim
    rows = cone.inequalities
    rays: list[Vec] = []
    if p == 1:
        for sgn in (ONE, -ONE):
            if all(r[0] * sgn >= 0 for r in rows) and any(r[0] * sgn > 0 for r in rows):
                rays.append((sgn,))
    else:
        for subset in itertools.combinations(range(len(rows)), p - 1):
            ech = Echelon(p)
            for idx in subset:
                ech.add_row(dense_row(rows[idx]))
            ns = ech.nullspace_basis()
            if len(ns) != 1:
                continue
            # signs in integers: the rows are integer, so scale ns[0] to one too
            scale = math.lcm(*(x.denominator for x in ns[0]))
            ray = [x.numerator * (scale // x.denominator) for x in ns[0]]
            vals = [sum(ri * xi for ri, xi in zip(r, ray)) for r in rows]
            for sgn, cand in ((1, ns[0]), (-1, tuple(-x for x in ns[0]))):
                if all(v * sgn >= 0 for v in vals) and any(v * sgn > 0 for v in vals):
                    if cand not in rays:
                        rays.append(cand)
    out = [dspace.point(r) for r in rays]
    if len(out) > 1:
        out.append(tuple(sum(col, ZERO) for col in zip(*out)))
    return out


def _candidates(mu: LieBracket, dspace: DiagonalDerivationSpace, user_d: Vec | None):
    """Candidate derivations in a fixed order, each computed only when reached.

    A positive derivation is always certified, so the extreme rays (a cone
    projection and a walk over subsets of its inequalities) are produced
    only for algebras that have none.
    """
    pos = _positive_diagonal_derivation(dspace, mu.dim)
    if pos is not None:
        yield pos
    yield from _extreme_ray_candidates(mu, dspace)
    if user_d is not None:
        yield user_d


def certify_nilradical(
    mu: LieBracket,
    user_d: Vec | None = None,
    budget: int = 4096,
    want_witness: bool = False,
) -> Verdict:
    """Algebra-level verdict: obstructions first, then candidate derivations.

    The diagonal derivations serve both the traceless test and the
    candidates, and Der(mu) is built only when they are all traceless.
    """
    if not is_nilpotent(mu):
        raise InputError("algebra is not nilpotent")

    dspace = diagonal_derivations(mu)
    der = der_if_traceless(mu, dspace)
    if der is not None:
        engel = engel_flag(der)
        if engel.is_nilpotent:
            return Verdict(
                CERTIFIED_NOT_RN,
                SCOPE_ALGEBRA,
                obstruction="characteristically nilpotent: every derivation is "
                "nilpotent (Engel flag of dimensions "
                + ",".join(map(str, engel.flag_dims)) + ")",
            )
        return Verdict(
            CERTIFIED_NOT_RN,
            SCOPE_ALGEBRA,
            obstruction="every derivation is traceless, so all solvable "
            "extensions are unimodular",
        )

    user_d = None if user_d is None else tuple(frac(x) for x in user_d)
    seen = set()
    for cand in _candidates(mu, dspace, user_d):
        cand = _orient_positive_trace(cand)
        if cand is None or cand in seen:
            continue
        seen.add(cand)
        if not is_diagonal_derivation(cand, mu):
            continue
        verdict = certify_derivation(mu, cand, budget=budget, want_witness=want_witness)
        if verdict.status == CERTIFIED_RN:
            return Verdict(
                CERTIFIED_RN, SCOPE_ALGEBRA, verdict.d, verdict.certificate,
                notes=verdict.notes,
            )
    return Verdict(
        UNKNOWN,
        SCOPE_ALGEBRA,
        notes="no candidate derivation certified; obstruction tests passed, "
        "so the algebra may still be a Ricci negative nilradical",
    )


def _orient_positive_trace(d: Vec) -> Vec | None:
    tr = sum(d, ZERO)
    if tr > 0:
        return d
    if tr < 0:
        return tuple(-x for x in d)
    return None


# ---------------------------------------------------------------------------
# Witness metrics
# ---------------------------------------------------------------------------


def find_witness_metric(
    mu: LieBracket,
    d: Vec,
    cert: Certificate,
    budget: int = 400,
) -> MetricExtension | None:
    """Build (s = 1, h) making the extension Ricci negative definite, from a cone certificate.

    x = log h minimizes 1/2 sum_w c_w^2 e^(2 <F_w, x>) - 2 tr D <P, x> over the
    weights of the certificate's nice bracket, where P is the certificate's
    combination with each zero coefficient raised to slack / (4 #zeros); see
    README "Witness metrics".  ``budget`` caps the Newton steps.  e^x is
    rounded, finer if needed, and for a degeneration multiplied by
    2^(t alpha), t = 0, 1, 2, 4, ...  Only the exact Sylvester test accepts;
    None if no candidate passes it.
    """
    if cert.kind not in (NICE_CONE, DEGENERATION_CONE):
        raise InputError("a witness metric needs a cone certificate")
    lam = mu if cert.degeneration is None else sub_bracket(mu, cert.degeneration[1])
    zeros = sum(1 for key in lam.keys() if not cert.coefficients.get(key))
    eps = cert.slack / (4 * zeros) if zeros else ZERO
    trd = float(sum(d, ZERO))
    terms = [
        ([(r, float(v)) for r, v in enumerate(wt.vec) if v],
         float(lam.constants[key]) ** 2,
         2 * trd * float(cert.coefficients.get(key) or eps))
        for key, wt in zip(lam.keys(), weight_set(lam).weights)
    ]
    # a millionth of the margin: the float error is then far below the rounding's
    x = _newton_log_metric(terms, mu.dim, 1e-6 * float(cert.slack) * trd, budget)
    alpha = integer_row(cert.degeneration[0]) if cert.degeneration else (0,) * mu.dim
    for q in (64, 4096, 2 ** 20):
        h = [_round_exp(v, q) for v in x]
        for t in (0, 1, 2, 4, 8, 16) if cert.degeneration else (0,):
            scaled = tuple(hr * Fraction(2) ** (t * a) for hr, a in zip(h, alpha))
            ext = MetricExtension(mu, d, ONE, scaled)
            if is_negative_definite(extension_ricci(ext)):
                return ext
    return None


def _newton_log_metric(terms, n: int, tol: float, budget: int) -> list[float]:
    """Damped Newton on the sum over terms (F, c2, b) of 1/2 c2 e^(2 <F, x>) - b <F, x>.

    Stops once every gradient entry is at most ``tol``.  A tiny ridge keeps
    the Hessian invertible along the directions every F annihilates.
    """
    def value(x):
        try:
            return sum(0.5 * c2 * math.exp(2 * y) - b * y
                       for f, c2, b in terms for y in [sum(v * x[r] for r, v in f)])
        except OverflowError:
            return math.inf

    x = [0.0] * n
    for _ in range(budget):
        grad = [0.0] * n
        hess = [[0.0] * n for _ in range(n)]
        for f, c2, b in terms:
            z = c2 * math.exp(2 * sum(v * x[r] for r, v in f))
            for r, v in f:
                grad[r] += (z - b) * v
                for s, u in f:
                    hess[r][s] += 2 * z * v * u
        if max(map(abs, grad)) <= tol:
            break
        for r in range(n):
            hess[r][r] += 1e-9 * (1 + hess[r][r])
        step = _solve_positive_definite(hess, [-g for g in grad])
        slope, f0, t = sum(g * s for g, s in zip(grad, step)), value(x), 1.0
        # backtracking (Armijo) line search
        while value(trial := [xr + t * sr for xr, sr in zip(x, step)]) > f0 + t * slope / 4:
            t /= 2
            if t < 1e-12:
                return x
        x = trial
    return x


def _solve_positive_definite(a: list[list[float]], b: list[float]) -> list[float]:
    """Gauss-Jordan elimination in floats, without pivoting since ``a`` is positive definite."""
    for c in range(len(b)):
        for r in range(len(b)):
            if r != c:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    return [b[r] / a[r][r] for r in range(len(b))]


def _round_exp(v: float, q: int) -> Fraction:
    """e^v as 2^k times a mantissa in about [1/2, 1] of denominator <= q."""
    k = math.floor(v / math.log(2)) + 1
    return Fraction(math.exp(v - k * math.log(2))).limit_denominator(q) * Fraction(2) ** k


# ---------------------------------------------------------------------------
# Certificate verification and serialization
# ---------------------------------------------------------------------------


def verify_certificate(mu: LieBracket, cert: Certificate) -> tuple[bool, str]:
    """Exact re-check of a stored certificate; no search is re-run."""
    d = cert.d
    if not is_diagonal_derivation(d, mu):
        return False, "stored D is not a diagonal derivation"
    if sum(d, ZERO) <= 0:
        return False, "stored D has non-positive trace"

    if cert.kind == POSITIVE_DERIVATION:
        if all(x > 0 for x in d) and cert.slack > 0 and cert.slack <= min(d):
            return True, "all diagonal entries positive"
        return False, "entries are not all positive"

    if cert.kind == NICE_CONE:
        lam = mu
        if not is_nice_basis(lam):
            return False, "basis is not nice"
    elif cert.kind == DEGENERATION_CONE:
        if cert.degeneration is None:
            return False, "missing degeneration data"
        alpha, j_set = cert.degeneration
        if not j_set <= set(mu.keys()):
            return False, "kept set is not a subset of the index set"
        for (i, j, k) in mu.keys():
            pr = pairing(alpha, i, j, k)
            if (i, j, k) in j_set:
                if pr != 0:
                    return False, "alpha does not vanish on the kept set"
            elif pr >= 0:
                return False, "alpha is not negative on the dropped set"
        lam = sub_bracket(mu, j_set)
        if not is_nice_basis(lam):
            return False, "degenerate bracket is not nice"
        if not is_diagonal_derivation(d, lam):
            return False, "D is not a derivation of the degenerate bracket"
    else:
        return False, f"unknown certificate kind {cert.kind!r}"

    extra = set(cert.coefficients) - set(lam.keys())
    if extra:
        return False, f"coefficients on absent weights {sorted(extra)}"
    slack = verify_membership(d, weight_set(lam), cert.coefficients)
    if slack is None:
        return False, "coefficients do not witness strict membership"
    if cert.slack <= 0 or slack < cert.slack:
        return False, f"claimed slack {cert.slack} exceeds actual {slack}"
    if cert.witness is not None:
        if cert.witness.mu != mu or tuple(cert.witness.d) != tuple(d):
            return False, "metric data does not match the algebra or derivation"
        if not is_negative_definite(extension_ricci(cert.witness)):
            return False, "attached metric is not negative definite"
    return True, f"membership verified with slack {slack}"


def serialize_certificate(mu: LieBracket, cert: Certificate) -> str:
    """Self-contained text block: the algebra, the derivation, and the data."""
    lines = ["certificate", f"kind {cert.kind}"]
    for line in emit_bracket(mu).strip().splitlines():
        lines.append(line)
    lines.append("derivation " + " ".join(fmt_rational(x) for x in cert.d))
    if cert.degeneration is not None:
        alpha, j_set = cert.degeneration
        lines.append("alpha " + " ".join(fmt_rational(x) for x in alpha))
        for (i, j, k) in sorted(j_set):
            lines.append(f"keep {i} {j} {k}")
    for (i, j, k) in sorted(cert.coefficients):
        lines.append(f"coeff {i} {j} {k} {fmt_rational(cert.coefficients[(i, j, k)])}")
    if cert.slack:
        lines.append(f"slack {fmt_rational(cert.slack)}")
    if cert.witness is not None:
        lines.append(f"metric-scale {fmt_rational(cert.witness.s)}")
        lines.append("metric-h " + " ".join(fmt_rational(x) for x in cert.witness.h))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[LieBracket, Certificate]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "certificate" or lines[-1] != "end":
        raise ParseError("certificate block must start with 'certificate' and end with 'end'")
    kind = None
    bracket_lines = []
    d = None
    alpha = None
    keep: list[Key] = []
    coeffs: dict[Key, Fraction] = {}
    slack = ZERO
    scale = None
    h = None
    for ln in lines[1:-1]:
        parts = ln.split()
        try:
            if parts[0] == "kind" and len(parts) == 2:
                kind = parts[1]
            elif parts[0] in ("dim", "bracket"):
                bracket_lines.append(ln)
            elif parts[0] == "derivation":
                d = tuple(Fraction(x) for x in parts[1:])
            elif parts[0] == "alpha":
                alpha = tuple(Fraction(x) for x in parts[1:])
            elif parts[0] == "keep" and len(parts) == 4:
                keep.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "coeff" and len(parts) == 5:
                coeffs[(int(parts[1]), int(parts[2]), int(parts[3]))] = Fraction(parts[4])
            elif parts[0] == "slack" and len(parts) == 2:
                slack = Fraction(parts[1])
            elif parts[0] == "metric-scale" and len(parts) == 2:
                scale = Fraction(parts[1])
            elif parts[0] == "metric-h":
                h = tuple(Fraction(x) for x in parts[1:])
            else:
                raise ParseError(f"unrecognized certificate line {ln!r}")
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed certificate line {ln!r}")
    if kind is None or d is None or not bracket_lines:
        raise ParseError("certificate is missing kind, algebra, or derivation")
    mu = parse_bracket("\n".join(bracket_lines))
    if len(d) != mu.dim:
        raise ParseError("derivation length does not match the dimension")
    degeneration = None
    if alpha is not None or keep:
        if alpha is None or not keep:
            raise ParseError("degeneration needs both alpha and kept triples")
        if len(alpha) != mu.dim:
            raise ParseError("alpha length does not match the dimension")
        degeneration = (alpha, frozenset(keep))
    witness = None
    if scale is not None or h is not None:
        if scale is None or h is None or len(h) != mu.dim:
            raise ParseError("metric data needs both scale and a full h vector")
        witness = MetricExtension(mu, d, scale, h)
    return mu, Certificate(kind, d, degeneration, coeffs, slack, witness)
