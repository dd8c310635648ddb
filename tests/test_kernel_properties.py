"""Property tests of the closed-form kernels against their slow definitions.

The algebras are direct sums of small catalog entries (plus abelian lines),
rescaled by a random positive diagonal h and moved by a random unipotent
upper-triangular g, so that brackets have several terms and the basis is
in general not nice.  The Jacobi, central-series and center kernels are
also run on random skew brackets, most of which break Jacobi and many of
which are not nilpotent; ``is_nilpotent``, which reads an acyclic index
graph without the series, is checked against the reference series on
both, and a counter on the series shows where it still runs.  The
torus found by substitution is checked against the ``nullspace`` solve
it replaced (``reference_diagonal_derivations``), and the central series
of a monomial bracket, read off index sets, against the reference
series, on relabelled, moved and cyclic brackets; counters show that
neither calls ``nullspace`` or builds an ``Echelon``.  The
integer torus is checked against the lcm of its rational basis's
denominators.  Witness metrics are built for every derivation
of the generated algebras that gets a cone certificate.  The traceless
decision, made on the diagonal torus and its weight-zero block before
Der(mu), is checked against the traces of the dense Der(mu), and the
weight-zero block against the weight-zero projection of the dense
Der(mu); the characteristically-nilpotent decision, made on the torus
and on tr(D^2) of the basis derivations before the Engel flag, against
the flag.  Der(mu) is also checked against its dense
reference on the catalog's brackets of dim 11 to 17, beyond the
generated sums.

The ``reference_*`` functions are the dense definitions the sparse kernels
replaced: Der(mu), the lower central series, the Jacobi test, the center,
the moment map and the nilpotent and extension Ricci matrices, each built
from ``mu.c`` or ``mu.bracket`` over full index ranges or as a dense n x n
sum.  They also keep the slow exact kernels of the certificate cone: the
``Fraction`` simplex that recomputes every reduced cost each iteration
(the library's tableau holds integer rows), Fourier-Motzkin over
``Fraction`` rows, and one ``det`` per leading principal minor.  The
integer Sylvester test is checked against the signs of those minors.  The
witness search's float steps keep theirs too: ``limit_denominator`` for
the rounding of h, and Gauss-Jordan for the Newton systems.
``max_margin`` keeps its simplex-only body, which its zero-row rule skips,
and the necessary condition its ``Fraction`` Gram matrix and its integer
center Gram without the sink test (``reference_positive_on_center``); a counter on
``simplex.solve_lp`` shows which torus LPs stop before the simplex.
``is_face`` keeps its LP alone (``reference_is_face``, on every subset
of the small catalog index sets and on generated ones), and so does
``face_by_remainders``, which decides faces for every walk; the walk over
the nice subsets keeps the filtered walk (``reference_nice_candidates``),
and the walk over every subset the plain enumerator
(``iter_face_candidates``),
the one-column ``interior_point`` is checked against ``max_margin``, and
the torus LP that a one-dimensional torus skips is patched back in
(``reference_torus_cone_point``) to check the verdict.  The LPs return
their solutions as ints over one denominator; every test reads them back
as ``Fraction``s (``rational``, ``test_simplex.over``), and the torus
points and alphas the certifier sums in ints are checked against the
rational path: each LP solved by the ``Fraction`` simplex, t mapped back
through the scales of the torus basis (``reference_torus_point``).
Certificates from both certifiers are checked to survive serialize,
parse and verify.  The torus LPs of ``certify_nilradical`` are checked
against the per-derivation walk of ``certify_derivation``, the nice faces
both certifiers walk against the unfiltered face walk, and the
Fourier-Motzkin projection against direct cone membership.  The
generator-ones derivation that settles most algebra verdicts is checked
against a ``nullspace`` solve on the torus (``reference_generator_ones``)
and against the positive-derivation LP it skips, and counters show that
those verdicts build no torus and solve no LP.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, islice
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilcone.catalog import FAMILY_SAMPLES, catalog_entry, catalog_get, catalog_list
from nilcone import certifier, derivations, liecore
from nilcone.certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    DEGENERATION_CONE,
    NICE_CONE,
    POSITIVE_DERIVATION,
    SCOPE_ALGEBRA,
    UNKNOWN,
    certify_derivation,
    certify_nilradical,
    find_witness_metric,
    necessary_condition,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from nilcone.derivations import (
    Analysis,
    DerivationBasis,
    DiagonalDerivationSpace,
    EngelResult,
    derivation_algebra,
    diagonal_derivations,
    engel_flag,
    solve_phi,
)
from nilcone import simplex
from nilcone.errors import InvariantViolation
from nilcone.liecore import (
    LieBracket,
    SubspaceChain,
    center,
    check_jacobi,
    is_nice_basis,
    is_nilpotent,
    lower_central_series,
)
from nilcone.linalg import (
    ONE,
    ZERO,
    det,
    frac,
    integer_row,
    leading_principal_minors,
    nullspace,
    primitive,
)
from nilcone.momentricci import (
    MetricExtension,
    _integer_ricci,
    _positive_definite,
    extension_ricci,
    is_negative_definite,
    is_ricci_negative,
    moment_map,
    nil_ricci,
    norm_squared,
)
from nilcone.polytope import (
    ProjectedCone,
    face_by_remainders,
    fourier_motzkin,
    interior_point,
    is_face,
    iter_covers,
    iter_faces,
    iter_nice_candidates,
    project_certificate_cone,
    remove_redundant,
    separating_alpha,
    strict_cone_membership,
    weight_relations,
    weight_set,
)
from nilcone.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPSolution, max_margin, solve_lp
from test_golden_generated import LP_BRACKET, filiform, free_two_step, heisenberg
from test_golden_kernels import CASES
from test_liecore import act, direct_sum
from test_derivations import matrices
from test_linalg import (
    FractionEchelon,
    bracket,
    dense,
    dense_row,
    int_row,
    is_derivation,
    mat_inv,
    mat_mul,
    min_norm_solution,
    rep_action,
    solve_affine,
)
from test_polytope import evaluate_cone, limit_bracket
from test_simplex import margin, over

MAX_DIM = 8
ABELIAN_LINE = LieBracket(1, {})


def _direct_sums() -> list[LieBracket]:
    """Sums of up to three small catalog entries and abelian lines, dim <= MAX_DIM."""
    pieces = [catalog_get(id_) for id_, dim, _ in catalog_list()
              if dim <= MAX_DIM and not catalog_entry(id_).params] + [ABELIAN_LINE]
    return [
        direct_sum(parts)
        for r in (1, 2, 3)
        for parts in combinations_with_replacement(pieces, r)
        if sum(p.dim for p in parts) <= MAX_DIM and any(not p.is_zero() for p in parts)
    ]


SUMS = _direct_sums()


@st.composite
def nilpotent_algebras(draw, unipotent: bool = True, sums: list[LieBracket] = SUMS) -> LieBracket:
    """A rescaled direct sum from ``sums``, moved by a random unipotent g
    unless told not to.

    Most such moves leave no diagonal derivation, so kernels that need
    one are tested with ``unipotent=False``.
    """
    mu = draw(st.sampled_from(sums))
    n = mu.dim
    h = draw(st.lists(st.fractions(F(1, 3), F(3), max_denominator=3), min_size=n, max_size=n))
    entries = st.integers(-2, 2) if unipotent else st.just(0)
    upper = iter(draw(st.lists(entries, min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2)))
    g = tuple(
        tuple(ONE if r == c else (F(next(upper)) if c > r else ZERO) for c in range(n))
        for r in range(n)
    )
    return act(g, mu.diagonal_act(h))


@st.composite
def skew_brackets(draw) -> LieBracket:
    """Random skew brackets of dim <= 5; Jacobi and nilpotency may both fail."""
    n = draw(st.integers(2, 5))
    triples = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
               for k in range(1, n + 1)]
    constants = draw(st.dictionaries(st.sampled_from(triples),
                                     st.sampled_from([F(-2), F(-1), F(1), F(1, 2), F(3)]),
                                     max_size=8))
    return LieBracket(n, constants)


def reference_derivation_algebra(mu: LieBracket):
    """Exact nullspace of E -> E.mu; unknown E_{pq} indexed as p*n + q (0-based).

    Returns the rational n x n matrices of the nullspace basis.
    """
    n = mu.dim
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for r in range(1, n + 1):
                row: dict[int, F] = {}

                def add(p, q, v):
                    if v:
                        idx = (p - 1) * n + (q - 1)
                        nv = row.get(idx, ZERO) + v
                        if nv:
                            row[idx] = nv
                        else:
                            row.pop(idx, None)

                for k in range(1, n + 1):
                    add(r, k, mu.c(i, j, k))
                for p in range(1, n + 1):
                    add(p, i, -mu.c(p, j, r))
                    add(p, j, -mu.c(i, p, r))
                if row:
                    rows.append(row)
    rows.sort(key=len)
    vecs = [dense(v, n * n) for v in nullspace([int_row(r) for r in rows], n * n)]
    return tuple(tuple(v[p * n:(p + 1) * n] for p in range(n)) for v in vecs)


def _basis_bracket(mu: LieBracket, i: int, j: int):
    """[e_i, e_j] as a coefficient vector (0-based)."""
    out = [ZERO] * mu.dim
    for k in range(1, mu.dim + 1):
        out[k - 1] = mu.c(i, j, k)
    return tuple(out)


def reference_check_jacobi(mu: LieBracket):
    """Exact Jacobi test on all basis triples; returns first violator if any."""
    n = mu.dim
    basis = [tuple(ONE if t == s else ZERO for t in range(n)) for s in range(n)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            ab = _basis_bracket(mu, a, b)
            for c in range(b + 1, n + 1):
                bc = _basis_bracket(mu, b, c)
                ca = _basis_bracket(mu, c, a)
                total = [
                    x + y + z
                    for x, y, z in zip(
                        bracket(mu, ab, basis[c - 1]),
                        bracket(mu, bc, basis[a - 1]),
                        bracket(mu, ca, basis[b - 1]),
                    )
                ]
                if any(total):
                    return False, (a, b, c)
    return True, None


def _span_basis(vectors, n: int):
    ech = FractionEchelon(n)
    for v in vectors:
        ech.add_row(dense_row(v))
    basis = []
    for p in sorted(ech.pivots):
        row = ech.pivots[p]
        v = [ZERO] * n
        for c, val in row.items():
            v[c] = val
        basis.append(tuple(v))
    return tuple(basis)


def reference_lower_central_series(mu: LieBracket) -> SubspaceChain:
    """gamma_1 = n, gamma_{k+1} = [n, gamma_k]; stops at stabilization."""
    n = mu.dim
    current = tuple(
        tuple(ONE if t == s else ZERO for t in range(n)) for s in range(n)
    )
    dims = [n]
    while True:
        images = []
        for i in range(1, n + 1):
            ei = tuple(ONE if t == i - 1 else ZERO for t in range(n))
            for v in current:
                w = bracket(mu, ei, v)
                if any(w):
                    images.append(w)
        nxt = _span_basis(images, n)
        d = len(nxt)
        if d == dims[-1]:
            return SubspaceChain(tuple(dims), terminates=(d == 0))
        if d == 0:
            return SubspaceChain(tuple(dims), terminates=True)
        dims.append(d)
        current = nxt


def _center_rows(mu: LieBracket) -> list[dict]:
    """Row (i, k) of mu(X, e_i) = 0: c_ai^k at each a."""
    n = mu.dim
    rows = []
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            row = {}
            for a in range(1, n + 1):
                cv = mu.c(a, i, k)
                if cv:
                    row[a - 1] = cv
            if row:
                rows.append(row)
    return rows


def reference_center(mu: LieBracket):
    """Exact basis of {X : mu(X, e_i) = 0 for all i}."""
    return tuple(nullspace([int_row(r) for r in _center_rows(mu)], mu.dim))


def reference_engel(mu: LieBracket) -> EngelResult:
    """The Engel flag through an adapted basis M and M^-1 D M at each stage."""
    n = mu.dim
    der = matrices(derivation_algebra(mu))
    if not der:
        return EngelResult(True, (n,))
    flag_vectors: list[tuple] = []
    flag_dims: list[int] = []
    stage = 0
    while len(flag_vectors) < n:
        ech = FractionEchelon(n)
        for v in flag_vectors:
            ech.add_row(dense_row(v))
        comp = ech.free_columns()
        full = [list(v) for v in flag_vectors] + [
            [ONE if t == c else ZERO for t in range(n)] for c in comp
        ]
        m_cols = tuple(zip(*full))  # columns are the adapted basis
        m_inv = mat_inv(m_cols)
        d = len(flag_vectors)
        induced = []
        for e in der:
            t = mat_mul(m_inv, mat_mul(e, m_cols))
            induced.append(tuple(tuple(t[d + a][d + b] for b in range(len(comp)))
                                 for a in range(len(comp))))
        rows = [dense_row(r) for m in induced for r in m]
        kernel = nullspace([int_row(r) for r in rows if r], len(comp))
        if not kernel:
            return EngelResult(False, tuple(flag_dims), witness_stage=stage)
        for kv in (dense(v, len(comp)) for v in kernel):
            flag_vectors.append(tuple(
                sum((kv[a] * (ONE if t == comp[a] else ZERO) for a in range(len(comp))), ZERO)
                for t in range(n)
            ))
        flag_dims.append(len(flag_vectors))
        stage += 1
    return EngelResult(True, tuple(flag_dims))


# n4nice moved by g = 1 + (ones on the superdiagonal): no diagonal
# derivation is left, but Der(mu) still holds one of trace != 0
N4NICE_MOVED = act(
    tuple(tuple(ONE if c in (r, r + 1) else ZERO for c in range(4)) for r in range(4)),
    catalog_get("n4nice"),
)


# a one-dimensional torus, zero on the ex10 summand: 154 of the 484
# unknowns E_pq have weight 0, more than the diagonal
EX3_EX10 = direct_sum([catalog_get("ex3"), catalog_get("ex10")])
# sinks e_3 and e_4 of heis3 + a line; its torus covers every index
HEIS3_PLUS_LINE = LieBracket(4, {(1, 2, 3): F(1)})


def _assert_weight_zero_block(mu: LieBracket, full: list[dict[int, int]]):
    """The weight-zero block spans the weight-zero projection of the full
    Der(mu) basis ``full`` (E_pq at p*n + q), and is the part of
    ``_derivation_nullspace`` that lies in weight 0."""
    n = mu.dim
    dspace = diagonal_derivations(mu)
    weight = [tuple(v[p] for v in dspace.basis) for p in range(n)]
    zero = {p * n + q for p in range(n) for q in range(n) if weight[p] == weight[q]}
    block = derivations._weight_zero_nullspace(mu, dspace)
    assert all(set(v) <= zero for v in block)

    def span(vectors):
        ech = FractionEchelon(n * n)
        for v in vectors:
            ech.add_row(v)
        return ech.pivots

    assert span(block) == span({idx: x for idx, x in v.items() if idx in zero} for v in full)
    assert block == [v for v in derivations._derivation_nullspace(mu) if set(v) <= zero]


def _flat(e) -> dict[int, F]:
    n = len(e)
    return {r * n + c: x for r in range(n) for c in range(n) if (x := e[r][c])}


@settings(max_examples=25)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(catalog_get("ex3"))  # 11 of 121 unknowns: the diagonal
@example(EX3_EX10)
def test_weight_zero_block_spans_the_weight_zero_part_of_der_mu(mu):
    _assert_weight_zero_block(mu, [_flat(e) for e in reference_derivation_algebra(mu)])


def test_weight_zero_block_on_the_catalog():
    for id_, _, _ in catalog_list():
        entry = catalog_entry(id_)
        for t in FAMILY_SAMPLES if entry.params else (None,):
            mu = entry.bracket(t=t) if entry.params else entry.bracket()
            _assert_weight_zero_block(mu, derivations._derivation_nullspace(mu))


def test_weight_zero_block_sizes(monkeypatch):
    # the block of ex3 is its diagonal; that of ex3 + ex10 is larger
    columns = []
    rows = derivations._derivation_rows

    def counted(mu, cols=None):
        columns.append(cols)
        return rows(mu, cols)

    monkeypatch.setattr(derivations, "_derivation_rows", counted)
    for mu, want in ((catalog_get("ex3"), 11), (EX3_EX10, 154)):
        columns.clear()
        derivations._weight_zero_nullspace(mu, diagonal_derivations(mu))
        assert [len(c) for c in columns] == [want]


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(catalog_get("ex3"))  # traceless torus: the weight-zero block decides
@example(EX3_EX10)
@example(catalog_get("ex4-1"))  # traceless and characteristically nilpotent
@example(catalog_get("heis3"))  # decided by the diagonal torus
@example(N4NICE_MOVED)  # traceless torus, traced Der(mu): the fallback says no
def test_traceless_test_matches_every_reference_derivation(mu):
    reference = reference_derivation_algebra(mu)
    want = all(sum((e[r][r] for r in range(mu.dim)), ZERO) == 0 for e in reference)
    a = Analysis(mu)
    assert a.traceless == want
    if want:
        assert matrices(a.der) == reference
    # budget 0: no face search, so a non-traceless algebra ends quickly too
    verdict = certify_nilradical(mu, budget=0)
    assert (verdict.status == CERTIFIED_NOT_RN and verdict.scope == SCOPE_ALGEBRA) == want


def test_fallback_example_has_a_traceless_torus_and_a_traced_derivation():
    assert not any(sum(v) for v in diagonal_derivations(N4NICE_MOVED).basis)
    assert not Analysis(N4NICE_MOVED).traceless


FILIFORM_12 = LieBracket(12, {(1, i, i + 1): ONE for i in range(2, 12)})  # m_0(12)


def test_certify_nilradical_solves_der_mu_at_most_once(monkeypatch):
    calls = []
    solve = derivations._derivation_nullspace

    def counted(mu):
        calls.append(mu)
        return solve(mu)

    block = derivations._weight_zero_nullspace

    def counted_block(mu, dspace):
        calls.append("block")
        return block(mu, dspace)

    monkeypatch.setattr(derivations, "_derivation_nullspace", counted)
    monkeypatch.setattr(derivations, "_weight_zero_nullspace", counted_block)
    # ex3 has a nonzero traceless torus: only its weight-zero block is solved
    for mu, der, blocks in ((catalog_get("heis3"), 0, 0), (FILIFORM_12, 0, 0),
                            (catalog_get("ex4-1"), 1, 0), (catalog_get("ex3"), 0, 1)):
        calls.clear()
        certify_nilradical(mu)
        assert (len(calls) - calls.count("block"), calls.count("block")) == (der, blocks), mu


def test_certify_nilradical_sorts_the_index_graph_once(monkeypatch):
    calls = []
    order = liecore.topological_order

    def counted(mu):
        calls.append(mu)
        return order(mu)

    monkeypatch.setattr(liecore, "topological_order", counted)
    monkeypatch.setattr(derivations, "topological_order", counted)
    for mu in (catalog_get("heis3"), catalog_get("ex3"), catalog_get("ex4-1"),
               catalog_get("dim7-alg4"), catalog_entry("ex1ex2ex5-iii").bracket(t=F(1, 2))):
        calls.clear()
        certify_nilradical(mu)
        assert len(calls) == 1, mu


def _pair(mu: LieBracket, e) -> F:
    """<E.mu, mu> over the canonical pairs i < j."""
    return sum(
        (v[k - 1] * mu.c(i, j, k) for (i, j), v in rep_action(e, mu).items()
         for k in range(1, mu.dim + 1)),
        ZERO,
    )


def _unit(n: int, a: int, b: int):
    return tuple(tuple(ONE if (r, c) == (a, b) else ZERO for c in range(n)) for r in range(n))


@settings(max_examples=25)
@given(nilpotent_algebras())
@example(catalog_get("ex10"))  # fails at stage 1: witness operators on a proper quotient
@example(catalog_get("ex4-1"))  # characteristically nilpotent: the flag reaches n
@example(EX3_EX10)  # fails at stage 1, after columns of both summands settle
def test_engel_flag_matches_adapted_basis_reference(mu):
    assert engel_flag(derivation_algebra(mu)) == reference_engel(mu)


@pytest.mark.parametrize("id_", ["ex3", "ex10", "ex4-1", "ex4-2", "ex8ex7-ii"])
def test_derivation_algebra_matches_the_reference_beyond_the_generated_sizes(id_):
    """The generated sums stop at dim 8; these brackets have n = 11..17."""
    mu = catalog_get(id_)
    assert matrices(derivation_algebra(mu)) == reference_derivation_algebra(mu)


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(catalog_get("ex3"))  # a nonzero torus: not characteristically nilpotent
@example(EX3_EX10)
@example(catalog_get("ex10"))  # tr(D^2) != 0 on a basis derivation
@example(catalog_get("ex4-1"))  # every tr(D^2) = 0: the flag decides
@example(catalog_get("ex4-2"))
@example(LieBracket(3, {}))  # gl(3): D = E_11 has tr(D^2) = 1
def test_characteristically_nilpotent_matches_the_engel_flag(mu):
    want = engel_flag(derivation_algebra(mu)).is_nilpotent
    assert Analysis(mu).characteristically_nilpotent == want


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(HEIS3_PLUS_LINE)  # the torus covers every index: stage 0 without the flag
@example(catalog_get("ex3"))  # the torus misses an index: the flag fails at stage 1
@example(catalog_get("ex4-1"))  # zero torus: the flag reaches n
def test_analysis_engel_matches_the_flag(mu):
    assert Analysis(mu).engel == engel_flag(derivation_algebra(mu))


def reference_phi(der: DerivationBasis, dspace: DiagonalDerivationSpace):
    """The minimum-norm phi by the route of a particular solution, the
    nullspace of the trace pairing and the normal equations, on the
    rational matrices of the derivations."""
    n = der.dim_algebra
    der = matrices(der)
    traces = [sum((e[r][r] for r in range(n)), ZERO) for e in der]
    if dspace.dim == 0:
        return derivations.INFEASIBLE if any(traces) else (ZERO,) * n
    rows = [{m: x for m, v in enumerate(dspace.basis)
             if (x := sum((v[r] * e[r][r] for r in range(n)), ZERO))} for e in der]
    part = solve_affine(rows, traces, dspace.dim)
    if part is None:
        return derivations.INFEASIBLE
    slow = FractionEchelon(dspace.dim)
    for row in rows:
        slow.add_row(row)
    return min_norm_solution(dspace.point(part),
                             [dspace.point(v) for v in slow.nullspace_basis()])


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(N4NICE_MOVED)  # empty torus, traced Der(mu): INFEASIBLE
@example(catalog_get("ex10"))  # empty torus, every trace 0: phi = 0
def test_phi_matches_the_normal_equations(mu):
    """On all of Der(mu) the pairing pins t, since the torus lies in Der(mu)."""
    a = Analysis(mu)
    assert solve_phi(a) == reference_phi(a.der, a.dspace)


def test_phi_matches_the_normal_equations_on_every_catalog_bracket():
    for mu, want in ((N4NICE_MOVED, derivations.INFEASIBLE), (catalog_get("ex10"), (ZERO,) * 11)):
        a = Analysis(mu)
        assert solve_phi(a) == reference_phi(a.der, a.dspace) == want
    for _, id_, params in CASES:
        a = Analysis(catalog_get(id_, **params))
        assert solve_phi(a) == reference_phi(a.der, a.dspace), id_


def assert_torus_in_der(mu: LieBracket) -> None:
    """diag(w) is a derivation for every w of the torus basis, by the dense
    ``rep_action`` oracle: the premise on which ``solve_phi`` pins phi by
    the torus's own Gram system."""
    n = mu.dim
    for w in diagonal_derivations(mu).basis:
        e = tuple(tuple(w[r] if r == c else ZERO for c in range(n)) for r in range(n))
        assert is_derivation(e, mu), w


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
def test_every_torus_vector_is_a_derivation(mu):
    assert_torus_in_der(mu)


def test_every_torus_vector_is_a_derivation_on_every_catalog_bracket():
    for _, id_, params in CASES:
        assert_torus_in_der(catalog_get(id_, **params))


@settings(max_examples=15)
@given(nilpotent_algebras())
def test_moment_map_pairing_identity_entrywise(mu):
    # tr(m E_ab) = m_ba; skew E pair to zero, so no symmetrization is needed
    m = moment_map(mu)
    nsq = norm_squared(mu)
    n = mu.dim
    for a in range(n):
        for b in range(n):
            assert m[b][a] * nsq == _pair(mu, _unit(n, a, b))


@settings(max_examples=40)
@given(nilpotent_algebras())
def test_nil_ricci_is_half_norm_times_moment_map(mu):
    half_nsq = norm_squared(mu) / 2
    assert nil_ricci(mu) == tuple(tuple(half_nsq * x for x in row) for row in moment_map(mu))


@settings(max_examples=40)
@given(nilpotent_algebras())
def test_sparse_kernels_match_dense_references(mu):
    assert matrices(derivation_algebra(mu)) == reference_derivation_algebra(mu)
    series = reference_lower_central_series(mu)
    assert lower_central_series(mu) == series
    assert is_nilpotent(mu) == series.terminates
    assert check_jacobi(mu) == reference_check_jacobi(mu) == (True, None)
    assert center(mu) == reference_center(mu)


@settings(max_examples=150)
@given(skew_brackets())
@example(LieBracket(5, {(1, 2, 3): F(1), (3, 4, 5): F(1)}))  # violator (1, 2, 4)
@example(LieBracket(3, {(1, 2, 3): F(2), (1, 3, 1): F(-1), (2, 3, 2): F(1)}))  # sl2
def test_kernels_match_references_without_jacobi(mu):
    assert check_jacobi(mu) == reference_check_jacobi(mu)
    assert lower_central_series(mu) == reference_lower_central_series(mu)
    assert center(mu) == reference_center(mu)
    assert matrices(derivation_algebra(mu)) == reference_derivation_algebra(mu)


# heis3 in the basis (e1, e2, e3 + e1): nilpotent, yet [f1, f2] = f3 - f1
# puts a cycle (a self-loop at 1) in the index graph
HEIS3_CYCLIC = LieBracket(3, {(1, 2, 3): F(1), (1, 2, 1): F(-1), (2, 3, 1): F(1), (2, 3, 3): F(-1)})
SO3 = LieBracket(3, {(1, 2, 3): F(1), (2, 3, 1): F(1), (1, 3, 2): F(-1)})


@settings(max_examples=300)
@given(skew_brackets())
@example(LieBracket(3, {}))
@example(HEIS3_CYCLIC)
@example(SO3)  # cyclic, not nilpotent
@example(LieBracket(2, {(1, 2, 1): F(1)}))  # [e1, e2] = e1: a self-loop
def test_nilpotency_from_the_index_graph_matches_the_series(mu):
    assert is_nilpotent(mu) == reference_lower_central_series(mu).terminates


@contextmanager
def counted_calls(module, name: str):
    """The arguments of each call of ``module.name``, while open."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, real)


@st.composite
def relabelled_filiforms(draw) -> LieBracket:
    """Vergne's filiform m_0(n), n in 4..12, with its basis permuted."""
    n = draw(st.integers(4, 12))
    p = draw(st.permutations(range(1, n + 1)))
    return LieBracket(n, {(p[0], p[i - 1], p[i]): ONE for i in range(2, n)})


def test_certify_nilradical_computes_no_series_on_the_catalog():
    algebras = [catalog_get(id_, **params) for _, id_, params in CASES]
    with counted_calls(liecore, "lower_central_series") as calls:
        for mu in algebras:
            certify_nilradical(mu)
    assert calls == []


@settings(max_examples=30)
@given(relabelled_filiforms())
def test_certify_nilradical_computes_no_series_on_relabelled_filiforms(mu):
    with counted_calls(liecore, "lower_central_series") as calls:
        certify_nilradical(mu)
    assert calls == []


def test_certify_nilradical_computes_the_series_on_a_cycle():
    with counted_calls(liecore, "lower_central_series") as calls:
        v = certify_nilradical(HEIS3_CYCLIC)
    assert calls == [(HEIS3_CYCLIC,)]
    assert (v.status, v.certificate.kind, v.d, v.notes) == (
        CERTIFIED_RN, DEGENERATION_CONE, (1, 0, 1), "degeneration keeping 1 of 4 constants")


def reference_diagonal_derivations(mu: LieBracket) -> DiagonalDerivationSpace:
    """The torus as the ``nullspace`` solve of one row d_k - d_i - d_j per
    constant: each primitive kernel vector in dense form, with its entry
    at its least index."""
    rows = []
    for (i, j, k) in mu.keys():
        row: dict[int, int] = {}
        for idx, v in ((k - 1, 1), (i - 1, -1), (j - 1, -1)):
            row[idx] = row.get(idx, 0) + v
        rows.append(row)
    integer_basis = []
    for v in nullspace(rows, mu.dim):
        ints = [0] * mu.dim
        for c, x in v.items():
            ints[c] = x
        integer_basis.append((tuple(ints), v[min(v)]))
    return DiagonalDerivationSpace(tuple(integer_basis))


def relabelled(mu: LieBracket, p) -> LieBracket:
    """mu with e_i renamed e_p[i-1]: the same algebra, its keys and
    weights in another order."""
    return LieBracket(mu.dim, {(p[i - 1], p[j - 1], p[k - 1]): v
                               for (i, j, k), v in mu.constants.items()})


@st.composite
def relabelled_algebras(draw) -> LieBracket:
    """A generated algebra, moved by a unipotent g or not, with its basis permuted."""
    mu = draw(nilpotent_algebras(unipotent=draw(st.booleans())))
    return relabelled(mu, draw(st.permutations(range(1, mu.dim + 1))))


def assert_torus_by_substitution(mu: LieBracket) -> None:
    with counted_calls(derivations, "nullspace") as calls:
        got = diagonal_derivations(mu)
    assert calls == []
    assert got.integer_basis == reference_diagonal_derivations(mu).integer_basis


# d5 = d1 + d2 first, then d5 = d3 + d4 = d1 + 2 d3: the relation d2 = 2 d3
# eliminates p3 with the coefficient -2, so p2 is rescaled
RESCALED = LieBracket(5, {(1, 2, 5): ONE, (1, 3, 4): ONE, (3, 4, 5): ONE})


@settings(max_examples=200)
@given(st.one_of(relabelled_algebras(), relabelled_filiforms(), skew_brackets()))
@example(HEIS3_CYCLIC)
@example(LieBracket(2, {(1, 2, 1): ONE}))  # a self-loop
@example(RESCALED)
@example(relabelled(RESCALED, (5, 3, 4, 1, 2)))
@example(LieBracket(4, {}))
def test_torus_by_substitution_matches_the_nullspace_solve(mu):
    assert_torus_by_substitution(mu)


def test_torus_by_substitution_matches_the_nullspace_solve_on_the_catalog():
    for _, id_, params in CASES:
        assert_torus_by_substitution(catalog_get(id_, **params))


def is_monomial(mu: LieBracket) -> bool:
    return len({(i, j) for i, j, _ in mu.constants}) == len(mu.constants)


@st.composite
def monomial_brackets(draw) -> LieBracket:
    """Random brackets of dim <= 7 with one target per pair; Jacobi and
    nilpotency may both fail, and targets may sit on a cycle."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    return LieBracket(n, {(i, j, draw(st.integers(1, n))): draw(st.sampled_from([F(-2), F(1), F(3, 2)]))
                          for i, j in chosen})


@settings(max_examples=200)
@given(st.one_of(monomial_brackets(), relabelled_filiforms(),
                 relabelled_algebras().filter(is_monomial)))
@example(LieBracket(2, {(1, 2, 1): ONE}))  # [e1, e2] = e1: stabilizes at span{e1}
@example(LieBracket(3, {}))
def test_central_series_by_index_sets_matches_the_reference(mu):
    assert is_monomial(mu)
    with counted_calls(liecore, "Echelon") as built:
        got = lower_central_series(mu)
    assert built == []
    assert got == reference_lower_central_series(mu)


def test_central_series_of_a_bracket_with_several_targets_eliminates():
    """The counter above sees the echelon path where it still runs."""
    assert not is_monomial(HEIS3_CYCLIC)
    with counted_calls(liecore, "Echelon") as built:
        got = lower_central_series(HEIS3_CYCLIC)
    assert built and got == reference_lower_central_series(HEIS3_CYCLIC)


@contextmanager
def counted_lp_calls():
    """The arguments of each ``simplex.solve_lp`` call, while open;
    ``max_margin`` looks it up in its module, so it is patched there."""
    calls = []
    real = simplex.solve_lp

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    simplex.solve_lp = counted
    try:
        yield calls
    finally:
        simplex.solve_lp = real


NO_CANDIDATE = ("no candidate derivation certified; obstruction tests passed, "
                "so the algebra may still be a Ricci negative nilradical")


def test_certify_nilradical_solves_no_lp_where_the_torus_vanishes():
    """On ex1ex2ex5-i, -ii and -iii, at every ``FAMILY_SAMPLES`` value, the
    torus vanishes at an index that is a sink: the positive-derivation LP
    and the sink LP each have a zero row with bound 0, and no simplex runs."""
    cases = [(label, id_, params) for label, id_, params in CASES if id_.startswith("ex1ex2ex5")]
    assert len(cases) == 7
    for label, id_, params in cases:
        mu = catalog_get(id_, **params)
        with counted_lp_calls() as calls:
            v = certify_nilradical(mu)
        assert (label, len(calls)) == (label, 0)
        assert (v.status, v.notes) == (UNKNOWN, NO_CANDIDATE)


def test_certify_nilradical_lp_counts_without_a_zero_row():
    """The LPs of the algebra verdict and of ``certify_derivation`` at the
    first listed derivation.  heis3: the generator-ones derivation
    (1, 1, 2) settles it with no LP.  Every other entry has a one-dimensional
    torus, whose positive-derivation and sink tests are read off the signs
    of its vector, and whose torus LP is the membership LP of its
    direction.  ex8ex7-i and -ii: that vector has entries of both signs,
    at the sinks too, so no LP runs.  n4nonice, dim7-alg1..4, ex9: the
    LPs left are the membership LPs, the face tests of three or more
    dropped weights that the remainders leave open, and the one LP for
    the alpha of the face that certifies."""
    for id_, want, listed, status, notes in [
        ("heis3", 0, None, CERTIFIED_RN, "positive derivation"),
        ("ex8ex7-i", 0, 0, UNKNOWN, NO_CANDIDATE),
        ("ex8ex7-ii", 0, 0, UNKNOWN, NO_CANDIDATE),
        ("n4nonice", 2, 2, CERTIFIED_RN, "degeneration keeping 2 of 3 constants"),
        ("dim7-alg1", 2, 2, CERTIFIED_RN, "degeneration keeping 7 of 8 constants"),
        ("dim7-alg2", 2, 2, CERTIFIED_RN, "degeneration keeping 6 of 7 constants"),
        ("dim7-alg3", 2, 2, CERTIFIED_RN, "degeneration keeping 7 of 8 constants"),
        ("dim7-alg4", 2, 2, CERTIFIED_RN, "degeneration keeping 6 of 8 constants"),
        ("ex9", 1, 1, CERTIFIED_RN, "nice basis cone"),
    ]:
        mu = catalog_get(id_)
        with counted_lp_calls() as calls:
            v = certify_nilradical(mu)
        assert (id_, len(calls), v.status, v.notes) == (id_, want, status, notes)
        derivations = catalog_entry(id_).derivations
        if listed is None:
            assert not derivations
            continue
        with counted_lp_calls() as calls:
            certify_derivation(mu, derivations[0])
        assert (id_, len(calls)) == (id_, listed)


@pytest.mark.parametrize("mu,calls", [
    (filiform(20), 0),
    (direct_sum([catalog_get("n4nice")] * 4), 0),
    (heisenberg(3), 0),
    (free_two_step(5), 0),
    (LP_BRACKET, 1),
    (direct_sum([LP_BRACKET] * 4), 1),
], ids=["m0(20)", "n4nice^4", "H7", "free2(5)", "lp5", "lp5^4"])
def test_certify_nilradical_builds_the_torus_only_without_generator_ones(mu, calls):
    """Where the generator-ones derivation D* is a derivation, the verdict
    builds no torus and solves no LP; where it is not, as on lp5 and its
    sum, the torus is built once and one LP finds the positive derivation."""
    with counted_calls(derivations, "_diagonal_torus") as tori, \
            counted_calls(simplex, "solve_lp") as lps:
        v = certify_nilradical(mu)
    assert (len(tori), len(lps)) == (calls, calls)
    assert (v.status, v.certificate.kind, v.certificate.slack) == (
        CERTIFIED_RN, POSITIVE_DERIVATION, ONE)
    assert (Analysis(mu).generator_ones is None) == bool(calls)


def reference_generator_ones(mu: LieBracket) -> tuple[F, ...] | None:
    """The torus point that is 1 at every index no constant targets, by one
    ``nullspace`` solve over the reference torus, or None when there is none.

    On an acyclic index graph a torus point is fixed by its entries at the
    untargeted indices, so the kernel of the rows sum_m t_m w_m[r] - s = 0
    over those r has at most one vector, and s != 0 in it.
    """
    targets = {k for _, _, k in mu.constants}
    cols = [w for w, _ in reference_diagonal_derivations(mu).integer_basis]
    k = len(cols)
    rows = [{**{m: w[r] for m, w in enumerate(cols) if w[r]}, k: -1}
            for r in range(mu.dim) if r + 1 not in targets]
    kernel = nullspace(rows, k + 1)
    if not kernel:
        return None
    (v,) = kernel
    return tuple(sum((F(v.get(m, 0) * w[r], v[k]) for m, w in enumerate(cols)), ZERO)
                 for r in range(mu.dim))


@settings(max_examples=200)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False),
                 relabelled_algebras(), relabelled_filiforms()))
@example(LP_BRACKET)
@example(relabelled(LP_BRACKET, (5, 3, 4, 1, 2)))
@example(relabelled(direct_sum([catalog_get("n5nonice"), catalog_get("heis3")]),
                    (8, 1, 6, 3, 5, 2, 7, 4)))
@example(HEIS3_CYCLIC)
@example(LieBracket(4, {}))
def test_generator_ones_is_the_only_optimum_of_the_positive_derivation_lp(mu):
    """D* against a linear solve on the torus, and, whenever it is a
    derivation, against the LP it skips: ``_positive_diagonal_derivation``
    returns (D*, 1)."""
    ones = Analysis(mu).generator_ones
    if liecore.topological_order(mu) is None:
        assert ones is None
        return
    assert ones == reference_generator_ones(mu)
    if ones is not None:
        assert all(isinstance(x, int) and x > 0 for x in ones)
        dspace = diagonal_derivations(mu)
        assert certifier._positive_diagonal_derivation(dspace, mu.dim) == (
            tuple(map(F, ones)), ONE)


def _reference_pivot(rows: list[list[F]], basis: list[int], r: int, col: int) -> None:
    inv = ONE / rows[r][col]
    rows[r] = [v * inv for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][col] != 0:
            f = rows[i][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    basis[r] = col


def _reference_run_simplex(
    rows: list[list[F]],
    basis: list[int],
    costs: list[F],
    allowed: set[int],
) -> str:
    """Maximize costs.x over the tableau in place; returns OPTIMAL or UNBOUNDED."""
    ncols = len(rows[0]) - 1
    while True:
        # reduced costs relative to the current basis
        entering = None
        for j in range(ncols):
            if j in basis or j not in allowed:
                continue
            rc = costs[j] - sum(
                (costs[basis[i]] * rows[i][j] for i in range(len(rows))), ZERO
            )
            if rc > 0:
                entering = j  # Bland: first improving index
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(len(rows)):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _reference_pivot(rows, basis, leaving, entering)


@dataclass(frozen=True)
class RationalLP:
    """An LP's status, solution x and objective value, all rational."""

    status: str
    x: tuple | None
    value: F | None


def rational(sol: LPSolution) -> RationalLP:
    """An ``LPSolution`` read as x = num / den, once den > 0 and every
    entry of num is an int; an LP with no optimum has none of the three."""
    if sol.status != OPTIMAL:
        assert (sol.num, sol.den, sol.value) == (None, None, None)
        return RationalLP(sol.status, None, None)
    return RationalLP(sol.status, over(sol.num, sol.den), sol.value)


def reference_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> RationalLP:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0."""
    c = [frac(v) for v in c]
    n = len(c)
    ub = [([frac(v) for v in row], frac(b)) for row, b in zip(a_ub, b_ub)]
    eq = [([frac(v) for v in row], frac(b)) for row, b in zip(a_eq, b_eq)]
    m_ub = len(ub)

    rows: list[list[F]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    total = n + m_ub  # structural + slack; artificials appended below

    pending = []  # (coeffs over total cols, rhs, slack_is_basic)
    for i, (arow, b) in enumerate(ub):
        coeffs = arow + [ZERO] * m_ub
        coeffs[n + i] = ONE
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
            pending.append((coeffs, b, False))
        else:
            pending.append((coeffs, b, True))
    for arow, b in eq:
        coeffs = list(arow) + [ZERO] * m_ub
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        pending.append((coeffs, b, False))

    n_art = sum(1 for _, _, ok in pending if not ok)
    ncols = total + n_art
    art_i = 0
    for coeffs, b, slack_basic in pending:
        row = coeffs + [ZERO] * n_art + [b]
        if slack_basic:
            basis.append(coeffs.index(ONE, n))
        else:
            col = total + art_i
            row[col] = ONE
            art_cols.append(col)
            basis.append(col)
            art_i += 1
        rows.append(row)

    if art_cols:
        costs1 = [ZERO] * ncols
        for col in art_cols:
            costs1[col] = -ONE
        if _reference_run_simplex(rows, basis, costs1, set(range(ncols))) != OPTIMAL:
            raise InvariantViolation("phase 1 of the simplex is unbounded")
        val = sum((costs1[basis[i]] * rows[i][-1] for i in range(len(rows))), ZERO)
        if val != 0:
            return RationalLP(INFEASIBLE, None, None)
        # drive remaining basic artificials out (they sit at level zero)
        drop = []
        for i in range(len(rows)):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(total) if rows[i][j] != 0),
                    None,
                )
                if col is None:
                    drop.append(i)  # redundant constraint
                else:
                    _reference_pivot(rows, basis, i, col)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    costs2 = c + [ZERO] * (ncols - n)
    allowed = set(range(total))
    status = _reference_run_simplex(rows, basis, costs2, allowed)
    if status == UNBOUNDED:
        return RationalLP(UNBOUNDED, None, None)
    x = [ZERO] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = rows[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return RationalLP(OPTIMAL, tuple(x), value)


def reference_fourier_motzkin(rows, nelim: int) -> ProjectedCone:
    """Eliminate the first block of variables from a homogeneous system.

    Each row is (elim_coeffs, kept_coeffs, strict) meaning
    elim.x + kept.t > 0 (strict) or >= 0.
    """
    work = rows
    for var in range(nelim):
        zero, pos, neg = [], [], []
        for e, t, s in work:
            c = e[var]
            if c == 0:
                zero.append((e, t, s))
            elif c > 0:
                pos.append((e, t, s))
            else:
                neg.append((e, t, s))
        new = zero
        for (ep, tp, sp) in pos:
            for (en, tn, sn) in neg:
                a = ep[var]
                b = -en[var]
                e = tuple(b * x + a * y for x, y in zip(ep, en))
                t = tuple(b * x + a * y for x, y in zip(tp, tn))
                new.append((e, t, sp or sn))
        # prune duplicates (up to positive scaling) to tame growth
        seen = {}
        pruned = []
        for e, t, s in new:
            key = integer_row(e + t)
            if key in seen:
                idx = seen[key]
                if s and not pruned[idx][2]:
                    pruned[idx] = (e, t, s)
                continue
            seen[key] = len(pruned)
            pruned.append((e, t, s))
        work = pruned
    out = set()
    for e, t, s in work:
        if any(e):
            raise InvariantViolation("Fourier-Motzkin left an eliminated variable behind")
        if not any(t):
            if s:
                return ProjectedCone((), empty=True)  # derived 0 > 0
            continue
        # rows with a nonzero kept part always trace back to a strict row
        out.add(integer_row(t))
    kept = remove_redundant(sorted(out))
    if kept and interior_point(kept) is None:
        return ProjectedCone(tuple(sorted(kept)), empty=True)
    return ProjectedCone(tuple(sorted(kept)))


def reference_project_certificate_cone(w, dspace) -> ProjectedCone:
    """The certificate system of ``project_certificate_cone``, eliminated by the reference."""
    n = len(dspace.basis[0])
    m = len(w)
    p = dspace.dim
    rows = []
    for r in range(n):
        e = tuple(-v[r] for v in w.values())
        t = tuple(dspace.basis[mm][r] for mm in range(p))
        rows.append((e, t, True))
    for q in range(m):
        e = tuple(ONE if qq == q else ZERO for qq in range(m))
        rows.append((e, (ZERO,) * p, False))
    return reference_fourier_motzkin(rows, m)


def reference_leading_principal_minors(a) -> list[F]:
    """Determinants of the k x k top-left submatrices, k = 1..n."""
    n = len(a)
    return [det([row[: k + 1] for row in a[: k + 1]]) for k in range(n)]


# Zeros and repeated values make degenerate vertices and ratio-test ties.
LP_COEFFS = st.sampled_from([F(-2), F(-1), F(0), F(0), F(0), F(1, 2), F(1), F(1), F(3)])
LP_RHS = st.sampled_from([F(-2), F(-1), F(0), F(0), F(0), F(1), F(1), F(5, 2)])
# Denominators that differ from row to row, so each row gets its own lcm.
MARGIN_RHS = st.sampled_from([F(-5, 6), F(-1, 3), F(0), F(0), F(1, 4), F(2, 3), F(7, 2)])


def split_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=0):
    """The LP of ``solve_lp(..., free)`` with each free x_j written as
    u_j - v_j over two nonnegative columns, in the column order u, the
    other variables but the last, v, the last variable."""
    def split(row):
        row = list(row)
        return row[:-1] + [-v for v in row[:free]] + row[-1:] if free else row

    return split(c), [split(r) for r in a_ub], list(b_ub), [split(r) for r in a_eq], list(b_eq)


def integer_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=0):
    """The LP as ``solve_lp`` takes it, and the factor its costs were scaled by.

    The costs, and each constraint row with its right-hand side, are
    multiplied by the lcm of their coefficients' denominators, so every
    coefficient is an int and a right-hand side may stay a Fraction.  A
    row scaled by a positive factor keeps the feasible set and every ratio
    of the ratio test, and costs scaled by one keep every reduced-cost
    sign: the pivots and x are those of the rational LP, and the value is
    the cost factor times its value.
    """
    def scale(row):
        den = lcm(*(frac(v).denominator for v in row))
        return [int(v * den) for v in row], den

    def scale_rows(rows, rhs):
        out = [scale(row) for row in rows]
        return [row for row, _ in out], [b * den for (_, den), b in zip(out, rhs)]

    c_int, c_den = scale(c)
    return (c_int, *scale_rows(a_ub, b_ub), *scale_rows(a_eq, b_eq), free), c_den


def reference_solve_folded(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=0) -> RationalLP:
    """``reference_solve_lp`` on the split LP, read back as x_j = u_j - v_j."""
    sol = reference_solve_lp(*split_lp(c, a_ub, b_ub, a_eq, b_eq, free))
    if sol.x is None or not free:
        return sol
    n, x = len(c), sol.x
    folded = [x[j] - x[n - 1 + j] for j in range(free)] + list(x[free:n - 1]) + [x[-1]]
    return RationalLP(sol.status, tuple(folded), sol.value)


@st.composite
def small_lps(draw):
    """(c, a_ub, b_ub, a_eq, b_eq, free) with at least one ub row, some with
    a negative right-hand side, and sometimes a redundant copy of an equality.

    Half the draws are the LP of ``max_margin`` on k columns, any 0..k of
    them free: eps in every ub row and capped by eps <= 1, equality rows
    with a zero right-hand side, and ub right-hand sides with denominators,
    some negative and some zero.  The other half have no free variable.
    """
    n = draw(st.integers(1, 4))
    row = st.lists(LP_COEFFS, min_size=n, max_size=n)
    if draw(st.booleans()):
        a = draw(st.lists(row, min_size=1, max_size=4))
        b = draw(st.lists(MARGIN_RHS, min_size=len(a), max_size=len(a)))
        eq = draw(st.lists(row, max_size=2))
        return (
            [0] * n + [1],
            [r + [1] for r in a] + [[0] * n + [1]],
            b + [1],
            [r + [0] for r in eq],
            [0] * len(eq),
            draw(st.integers(0, n)),
        )
    c = draw(row)
    a_ub = draw(st.lists(row, min_size=1, max_size=4))
    b_ub = draw(st.lists(LP_RHS, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(LP_RHS, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        k = draw(st.sampled_from([F(2), F(-1, 2)]))
        a_eq.append([k * x for x in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return c, a_ub, b_ub, a_eq, b_eq, 0


# Beale's example: Dantzig's rule cycles on it, Bland's rule does not.
BEALE = (
    [F(3, 4), -20, F(1, 2), -6],
    [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]],
    [0, 0, 1],
    [],
    [],
    0,
)


@settings(max_examples=200)
@given(small_lps())
@example(BEALE)
@example(([1, 1], [[1, 0]], [1], [[1, 1], [2, 2]], [2, 4], 0))  # redundant equality dropped
@example(([1, 1], [[1, 1]], [3], [[-1, -1]], [0], 0))  # artificial driven out at level zero
@example(([0, 0, 1], [[1, 0, 1], [0, 0, 1]], [F(-1, 3), 1], [[1, -1, 0]], [0], 2))  # basic v_j
def test_simplex_matches_reference(lp):
    # solve_lp gets the row-scaled integer LP, the reference the rational one
    int_lp, c_den = integer_lp(*lp)
    sol, ref = rational(solve_lp(*int_lp)), reference_solve_folded(*lp)
    assert (sol.status, sol.x) == (ref.status, ref.x)
    assert sol.value == (None if ref.value is None else c_den * ref.value)


@st.composite
def canonical_tableaux(draw):
    """[A | I | b] with b >= 0 and the slacks basic, costs over the columns
    of A and I, and how many leading columns of A are free (0..n-1)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(LP_COEFFS, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2), F(5, 2)]), min_size=m, max_size=m))
    rows = [a[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    costs = draw(st.lists(LP_COEFFS, min_size=n, max_size=n)) + [ZERO] * m
    return rows, costs, n, draw(st.integers(0, n - 1))


# A ratio-test tie between a basic v_0 and a basic x_1: the split index
# (x_1 before v_0), not the stored column, breaks it.
TIE_WITH_A_MIRROR = (
    [[F(v) for v in row] for row in ([-2, -2, -2, -2, 1, 0, 0, 0],
                                     [-2, -2, -2, -2, 0, 1, 0, 0],
                                     [-2, -1, -2, 0, 0, 0, 1, 0])],
    [F(-2), F(-1), F(-2), F(1, 2), ZERO, ZERO, ZERO],
    4,
    1,
)


@settings(max_examples=200)
@given(canonical_tableaux())
@example(TIE_WITH_A_MIRROR)
def test_run_simplex_leaves_the_reference_tableau(tableau):
    # same entering and leaving choice at every pivot, so the same final
    # tableau: split column s of integer row i is sign * row[col] over the
    # row's scale, where (col, sign) = order[s]
    rows, costs, n, free = tableau
    order = simplex._split_order(n, free, len(costs))
    split_rows = [[sign * row[col] for col, sign in order] + [row[-1]] for row in rows]
    split_costs = [sign * costs[col] for col, sign in order]
    basis = [len(order) - len(rows) + i for i in range(len(rows))]
    rows_int, basis_int = [list(integer_row(r)) for r in rows], list(basis)
    costs_int = list(integer_row(costs))  # a positive multiple: the same signs
    status = simplex._run_simplex(rows_int, basis_int, costs_int, order, len(order))
    assert status == _reference_run_simplex(split_rows, basis, split_costs, set(range(len(order))))
    assert basis_int == basis
    folded = []
    for row, b in zip(rows_int, basis_int):
        scale = order[b][1] * row[order[b][0]]
        folded.append([F(sign * row[col], scale) for col, sign in order] + [F(row[-1], scale)])
    assert folded == split_rows


def test_every_catalog_lp_matches_the_reference(monkeypatch):
    """Each LP that the certifiers and the cone projection pose on the
    catalog, against the rational tableau of the split LP; every cost and
    coefficient reaching ``solve_lp`` is an int."""
    solved = []

    def checked(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=0):
        assert all(type(v) is int for row in (c, *a_ub, *a_eq) for v in row)
        sol = solve_lp(c, a_ub, b_ub, a_eq, b_eq, free)
        assert rational(sol) == reference_solve_folded(c, a_ub, b_ub, a_eq, b_eq, free)
        solved.append((sol.status, free))
        return sol

    monkeypatch.setattr(simplex, "solve_lp", checked)
    for _, id_, params in CASES:
        mu = catalog_get(id_, **params)
        certify_nilradical(mu)
        dspace = diagonal_derivations(mu)
        if dspace.dim:
            project_certificate_cone(weight_set(mu), dspace)
        for d in catalog_entry(id_).derivations:
            if sum(d) > 0:
                certify_derivation(mu, d)
    assert {OPTIMAL, INFEASIBLE} <= {status for status, _ in solved}
    assert any(free for _, free in solved)


@st.composite
def scaled_margin_lps(draw):
    """A ``max_margin`` LP on 1-4 int columns, any 0..k of them free, and
    a positive int factor for each free column."""
    k = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 1, 3]), min_size=k, max_size=k)
    a_ub = draw(st.lists(row, min_size=1, max_size=4))
    b_ub = draw(st.lists(MARGIN_RHS, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    free = draw(st.integers(0, k))
    factors = draw(st.lists(st.integers(1, 7), min_size=free, max_size=free))
    return a_ub, b_ub, a_eq, free, factors


@settings(max_examples=200)
@given(scaled_margin_lps())
@example(([[1, 1], [1, -1]], [0, F(-1, 3)], [], 1, [5]))
@example(([[-1, 0], [0, -1], [1, 1]], [0, 0, F(7, 2)], [[1, -1]], 2, [3, 2]))
def test_max_margin_keeps_its_pivots_under_free_column_scaling(lp):
    """The torus LPs scale each rational column by a positive factor L:
    the same eps, and x_j / L at each scaled column."""
    a_ub, b_ub, a_eq, free, factors = lp

    def scaled(row):
        return [v * f for v, f in zip(row, factors)] + row[free:]

    want = margin(max_margin(a_ub, b_ub, a_eq, free))
    got = margin(max_margin([scaled(r) for r in a_ub], b_ub, [scaled(r) for r in a_eq], free))
    if want is None:
        assert got is None
    else:
        eps, x = want
        assert got == (eps, tuple(F(v, f) for v, f in zip(x, factors)) + x[free:])


def reference_max_margin(a_ub, b_ub, a_eq=(), free=0):
    """``max_margin`` always through the simplex, with no zero-row rule:
    maximize eps <= 1 subject to a_ub.x + eps <= b_ub and a_eq.x = 0.
    Returns (eps, x) with x rational, or None."""
    k = len(a_ub[0])
    sol = solve_lp(
        [0] * k + [1],
        [[*row, 1] for row in a_ub] + [[0] * k + [1]],
        [*b_ub, 1],
        [[*row, 0] for row in a_eq],
        [0] * len(a_eq),
        free,
    )
    if sol.status != OPTIMAL or sol.value <= 0:
        return None
    return sol.value, rational(sol).x[:k]


@st.composite
def margin_systems(draw):
    """A ``max_margin`` system on 0-4 int columns, any 0..k of them free,
    with 0-2 equality rows and 0-2 zero rows planted among the others;
    each bound is an int or a Fraction, of either sign or zero."""
    k = draw(st.integers(0, 4))
    row = st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 1, 3]), min_size=k, max_size=k)
    a_ub = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a_ub.insert(draw(st.integers(0, len(a_ub))), [0] * k)
    b_ub = draw(st.lists(st.integers(-2, 2) | MARGIN_RHS, min_size=len(a_ub), max_size=len(a_ub)))
    return a_ub, b_ub, draw(st.lists(row, max_size=2)), draw(st.integers(0, k))


@settings(max_examples=300)
@given(margin_systems())
@example(([[0, 0], [1, -1]], [0, 1], [], 2))  # a zero row with bound 0
@example(([[1], [0]], [1, F(-1, 3)], [], 0))  # a zero row with a negative bound
@example(([[0, 0]], [F(1, 2)], [[1, 1]], 1))  # a positive bound: the simplex decides
@example(([[], []], [0, 1], [], 0))  # rows of length 0, as for an empty torus
@example(([[]], [F(2, 3)], [[]], 0))
def test_max_margin_matches_the_simplex_it_skips(system):
    """The same answer as the simplex, which runs exactly when no zero row
    has a bound <= 0."""
    a_ub, b_ub, a_eq, free = system
    with counted_lp_calls() as calls:
        got = max_margin(a_ub, b_ub, a_eq, free)
    assert margin(got) == reference_max_margin(a_ub, b_ub, a_eq, free)
    forced = any(not any(r) and b <= 0 for r, b in zip(a_ub, b_ub))
    assert len(calls) == (0 if forced else 1)


def reference_is_face(j_set, w):
    """``is_face`` by its LP alone."""
    comp = [v for key, v in w.items() if key not in j_set]
    n = len(next(iter(w.values()))) if w else 0
    if not comp:
        return True, (0,) * n
    sol = max_margin(comp, [0] * len(comp), [v for key, v in w.items() if key in j_set], free=n)
    return (False, None) if sol is None else (True, integer_row(margin(sol)[1]))


def test_is_face_matches_the_lp_on_every_catalog_subset():
    """Every subset of each catalog index set of at most 12 constants:
    the same answer and alpha as the LP, which runs once unless J is
    everything or the remainders of its dropped weights rule it out
    (``face_by_remainders`` returns False); some proper subsets are
    settled that way."""
    checked = settled = 0
    for label, id_, params in CASES:
        w = weight_set(catalog_get(id_, **params))
        if len(w) > 12:
            continue
        relations = weight_relations(w)
        for size in range(len(w) + 1):
            for j_set in combinations(w, size):
                want = reference_is_face(set(j_set), w)
                with counted_lp_calls() as calls:
                    got = is_face(j_set, w)
                assert (label, j_set, got) == (label, j_set, want)
                ruled_out = remainder_verdict(set(j_set), w, relations) is False
                assert len(calls) == (0 if size == len(w) or ruled_out else 1)
                checked += 1
                settled += ruled_out
    assert settled and checked > 10000


N5NONICE_CUBED = direct_sum([catalog_get("n5nonice")] * 3)


@pytest.mark.parametrize("mu, lps, faces", [
    (N5NONICE_CUBED, 998, 999),
    (catalog_get("dim7-alg1"), 102, None),
    (catalog_get("dim7-alg2"), 78, None),
])
def test_full_face_walk_solves_one_lp_per_proper_face(mu, lps, faces):
    """``iter_faces`` at full budget solves alpha's LP once per face other
    than the full set, and no LP for a subset that is no face."""
    with counted_lp_calls() as calls:
        got = list(iter_faces(mu, 2 ** len(mu.keys())))
    assert None not in got
    assert len(calls) == len(got) - 1 == lps
    assert faces is None or len(got) == faces


@st.composite
def face_candidates(draw):
    """(J, weights): a generated algebra, relabelled, and a subset J of its keys."""
    mu = draw(nilpotent_algebras(unipotent=draw(st.booleans())))
    assume(len(mu.keys()) <= 16)
    mu = relabelled(mu, draw(st.permutations(range(1, mu.dim + 1))))
    return frozenset(draw(st.sets(st.sampled_from(mu.keys())))), weight_set(mu)


@settings(max_examples=100)
@given(face_candidates())
def test_is_face_matches_the_lp_on_generated_algebras(case):
    j_set, w = case
    assert is_face(j_set, w) == reference_is_face(j_set, w)


def remainder_verdict(j_set, w, relations=None):
    """``face_by_remainders`` on J, given by its keys."""
    relations = weight_relations(w) if relations is None else relations
    return face_by_remainders([v for key, v in w.items() if key in j_set],
                              [v for key, v in w.items() if key not in j_set],
                              [q for q, key in enumerate(w) if key not in j_set],
                              lambda: relations)


def test_remainders_match_the_lp_on_every_catalog_subset():
    """Every subset of each catalog index set of at most 12 constants: the
    remainders decide every J with at most two dropped weights, with no
    LP, and wherever they decide they agree with the LP.  Some of those
    non-faces have no dropped weight in the span of the kept ones
    (``FractionEchelon``): a negatively proportional pair settles them.
    Some J with three or more dropped weights are settled too.  The counts
    are pinned: 972 decided, 182 of them by a pair alone, 474 with three
    or more dropped weights."""
    decided = by_pair = beyond_two = 0
    for label, id_, params in CASES:
        w = weight_set(catalog_get(id_, **params))
        if len(w) > 12:
            continue
        relations = weight_relations(w)
        for size in range(len(w) + 1):
            for j_set in combinations(w, size):
                j_set = set(j_set)
                with counted_lp_calls() as calls:
                    got = remainder_verdict(j_set, w, relations)
                assert calls == []
                if got is None:
                    assert (label, j_set, len(w) - size > 2) == (label, j_set, True)
                    continue
                want = reference_is_face(j_set, w)[0]
                assert (label, j_set, got) == (label, j_set, want)
                decided += 1
                beyond_two += len(w) - size > 2
                if not got:
                    span = FractionEchelon(len(next(iter(w.values()))))
                    for key in j_set:
                        span.add_row(dict(enumerate(w[key])))
                    by_pair += all(span.reduce(dict(enumerate(v)))
                                   for key, v in w.items() if key not in j_set)
    assert (decided, by_pair, beyond_two) == (972, 182, 474)


@st.composite
def near_full_candidates(draw):
    """(J, weights): a generated algebra, relabelled, and J its keys less at
    most four of them."""
    mu = draw(nilpotent_algebras(unipotent=draw(st.booleans())))
    mu = relabelled(mu, draw(st.permutations(range(1, mu.dim + 1))))
    dropped = draw(st.sets(st.sampled_from(mu.keys()), max_size=4))
    return frozenset(mu.keys()) - dropped, weight_set(mu)


@settings(max_examples=100)
@given(near_full_candidates())
def test_remainders_match_the_lp_on_generated_algebras(case):
    j_set, w = case
    got = remainder_verdict(j_set, w)
    if got is None:
        assert len(w) - len(j_set) > 2
    else:
        assert got == reference_is_face(j_set, w)[0]


def iter_face_candidates(mu: LieBracket):
    """Nonempty subsets of I_mu, smallest complement first, lex within size."""
    idx = mu.keys()
    for drop in range(len(idx)):
        for comp in combinations(idx, drop):
            yield frozenset(idx) - frozenset(comp)


def full_walk_matches_the_reference(mu: LieBracket, limit: int) -> bool:
    """The first ``limit`` covers of the edgeless graph, in order, are the
    first face candidates, each with the positions of its complement."""
    keys = mu.keys()
    want = [(j_set, tuple(q for q, key in enumerate(keys) if key not in j_set))
            for j_set in islice(iter_face_candidates(mu), limit)]
    return list(islice(iter_covers(list(keys), [0] * len(keys)), limit)) == want


def reference_nice_candidates(mu: LieBracket):
    """The nice subsets by the filtered walk: every face candidate through
    ``is_nice_basis``, each with the positions of its complement."""
    keys = mu.keys()
    return ((j_set, tuple(q for q, key in enumerate(keys) if key not in j_set))
            for j_set in iter_face_candidates(mu) if is_nice_basis(j_set))


def test_nice_walk_matches_the_filtered_walk_on_the_catalog():
    """The first 300 nice subsets, in order, on every catalog case and on
    sums of them, where the filtered walk passes many subsets that are not
    nice between two that are."""
    sums = {"n4nonice^3": ["n4nonice"] * 3, "n5nonice^2": ["n5nonice"] * 2,
            "dim7-alg2^2": ["dim7-alg2"] * 2, "ex8ex7-ii+ex9": ["ex8ex7-ii", "ex9"]}
    brackets = [(label, catalog_get(id_, **params)) for label, id_, params in CASES]
    brackets += [(label, direct_sum([catalog_get(i) for i in ids])) for label, ids in sums.items()]
    assert len(brackets) == 26
    for label, mu in brackets:
        want = list(islice(reference_nice_candidates(mu), 300))
        assert (label, list(islice(iter_nice_candidates(mu.keys()), 300))) == (label, want)
        assert (label, full_walk_matches_the_reference(mu, 4096)) == (label, True)


@settings(max_examples=60)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)), st.randoms())
def test_nice_walk_matches_the_filtered_walk_on_generated_algebras(mu, rng):
    assume(len(mu.keys()) <= 14)
    p = list(range(1, mu.dim + 1))
    rng.shuffle(p)
    mu = relabelled(mu, p)
    want = list(islice(reference_nice_candidates(mu), 300))
    assert list(islice(iter_nice_candidates(mu.keys()), 300)) == want
    assert full_walk_matches_the_reference(mu, 4096)


@settings(max_examples=300)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
@example([3, 1, 2])  # the least entry, not the first, sets t
@example([-2, -6])
@example([1, 0, 2])  # a zero row
@example([2, -1])  # mixed signs
def test_interior_point_on_one_column_matches_max_margin(col):
    """c_r t > 0 on every row: the signs and the least |c_r| give the
    point the LP finds, and no simplex runs."""
    rows = [[c] for c in col]
    sol = reference_max_margin([[-c] for c in col], [0] * len(col), free=1)
    with counted_lp_calls() as calls:
        got = interior_point(rows)
    assert (None if got is None else over(*got)) == (None if sol is None else sol[1])
    assert calls == []


@st.composite
def homogeneous_systems(draw):
    """Strict rows (elim, kept) over 1-3 eliminated and 1-3 kept variables."""
    nelim = draw(st.integers(1, 3))
    nkept = draw(st.integers(1, 3))
    coeff = st.sampled_from([F(-3), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(2)])
    row = st.tuples(st.tuples(*[coeff] * nelim), st.tuples(*[coeff] * nkept))
    return draw(st.lists(row, min_size=1, max_size=6)), nelim


@settings(max_examples=100)
@given(homogeneous_systems())
@example(([((F(1),), (F(1),)), ((F(-1),), (F(-1),))], 1))  # derives 0 > 0
@example(([((F(-1),), (F(1),))], 1))  # a = 0 serves the row: t > 0
@example(([((F(0),), (F(0),))], 1))  # the zero row: 0 > 0
def test_fourier_motzkin_matches_fraction_reference(system):
    """The strict rows over a >= 0, against the reference on the same rows
    marked strict and one non-strict unit row a_q >= 0 per eliminated variable."""
    rows, nelim = system
    kept = len(rows[0][1])
    units = [
        (tuple(F(int(q == r)) for r in range(nelim)), (F(0),) * kept, False)
        for q in range(nelim)
    ]
    want = reference_fourier_motzkin([(e, t, True) for e, t in rows] + units, nelim)
    assert fourier_motzkin([integer_row(e + t) for e, t in rows], nelim) == want


@settings(max_examples=30)
@given(nilpotent_algebras(unipotent=False))
@example(catalog_get("dim7-alg1"))  # no positive derivation
@example(catalog_get("ex9"))
@example(direct_sum([catalog_get("heis3")] * 4))  # 8 parameters
@example(direct_sum([catalog_get("n5nonice"), catalog_get("heis3")]))
def test_certificate_cone_matches_fraction_reference(mu):
    dspace = diagonal_derivations(mu)
    assume(dspace.dim > 0)
    w = weight_set(mu)
    assert project_certificate_cone(w, dspace) == reference_project_certificate_cone(w, dspace)


@st.composite
def nice_torus_points(draw):
    """(mu, t): a generated algebra with a nice basis and torus parameters t."""
    mu = draw(nilpotent_algebras(unipotent=False))
    assume(is_nice_basis(mu.keys()))
    p = diagonal_derivations(mu).dim
    assume(p > 0)
    return mu, draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))


@settings(max_examples=40)
@given(nice_torus_points())
@example((catalog_get("ex9"), [1]))  # in the cone: the NiceCone certificate's D
@example((catalog_get("ex9"), [-1]))
@example((catalog_get("ex1ex2ex5-ii"), [1, 1]))  # empty projected cone
def test_projected_cone_agrees_with_direct_membership(case):
    """Fourier-Motzkin serves no verdict, so its inequalities are checked
    against the membership LP they describe."""
    mu, t = case
    dspace = diagonal_derivations(mu)
    w = weight_set(mu)
    direct = strict_cone_membership(dspace.point(t), w) is not None
    assert evaluate_cone(project_certificate_cone(w, dspace), t) == direct


def reference_integer_basis(basis) -> tuple:
    """(L v, L) for each rational vector v, L the lcm of its denominators."""
    out = []
    for v in basis:
        vden = lcm(*[x.denominator for x in v])
        out.append((tuple(x.numerator * (vden // x.denominator) for x in v), vden))
    return tuple(out)


@settings(max_examples=60)
@given(st.one_of(nilpotent_algebras(unipotent=False), nilpotent_algebras()))
def test_torus_integer_basis_is_the_lcm_scaled_rational_basis(mu):
    dspace = diagonal_derivations(mu)
    assert dspace.integer_basis == reference_integer_basis(dspace.basis)


def test_catalog_torus_integer_basis_is_the_lcm_scaled_rational_basis():
    for label, id_, params in CASES:
        dspace = diagonal_derivations(catalog_get(id_, **params))
        assert dspace.integer_basis == reference_integer_basis(dspace.basis), label


@st.composite
def torus_points(draw):
    """A DiagonalDerivationSpace on any rational vectors, and parameters t."""
    n = draw(st.integers(1, 6))
    basis = draw(st.lists(st.tuples(*[LP_COEFFS | MARGIN_RHS] * n), min_size=1, max_size=4))
    t = draw(st.lists(MARGIN_RHS | st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    return DiagonalDerivationSpace(reference_integer_basis(basis)), t


@settings(max_examples=100)
@given(torus_points())
def test_torus_point_matches_the_fraction_sum(case):
    dspace, t = case
    got = dspace.point(t)
    assert got == tuple(sum((F(tm) * v[r] for tm, v in zip(t, dspace.basis)), ZERO)
                        for r in range(len(dspace.basis[0])))
    assert all(type(x) is F for x in got)


@settings(max_examples=30)
@given(nilpotent_algebras(unipotent=False),
       st.lists(st.sampled_from([F(1), F(1, 3), F(2, 5), F(7, 2)]), min_size=8, max_size=8))
@example(catalog_get("dim7-alg1"), [F(1, 3), F(2, 5)] * 4)  # no positive derivation
@example(catalog_get("ex9"), [F(7, 2), F(1, 3)] * 4)
def test_torus_lps_do_not_depend_on_the_scale_of_the_torus_basis(mu, factors):
    """The torus LPs run on integer columns and map t back; a torus basis
    with each vector scaled by a positive rational gives the same D."""
    dspace = diagonal_derivations(mu)
    assume(dspace.dim > 0)
    scaled = DiagonalDerivationSpace(reference_integer_basis(
        tuple(f * x for x in v) for v, f in zip(dspace.basis, factors)))
    assert (certifier._positive_diagonal_derivation(scaled, mu.dim)
            == certifier._positive_diagonal_derivation(dspace, mu.dim))
    for weights, _, _ in certifier._nice_faces(mu, 2 ** len(mu.keys())):
        assert (certifier._torus_cone_point(scaled, weights, mu.dim)
                == certifier._torus_cone_point(dspace, weights, mu.dim))


@st.composite
def diagonal_derivations_of_algebras(draw):
    """(mu, D): a generated algebra and a point of its diagonal-derivation space."""
    mu = draw(nilpotent_algebras(unipotent=False))
    dspace = diagonal_derivations(mu)
    assume(dspace.dim > 0)
    d = dspace.point(draw(st.lists(st.integers(-3, 3), min_size=dspace.dim, max_size=dspace.dim)))
    return mu, d if sum(d) >= 0 else tuple(-x for x in d)


def _listed(id_):
    """A catalog algebra with its first listed derivation."""
    return catalog_get(id_), catalog_entry(id_).derivations[0]


FILIFORM_8 = LieBracket(8, {(1, i, i + 1): ONE for i in range(2, 8)})  # m_0(8)


@settings(max_examples=40)
@given(diagonal_derivations_of_algebras())
@example(_listed("ex9"))
@example((FILIFORM_8, (F(-1), F(7), F(6), F(5), F(4), F(3), F(2), F(1))))
@example(_listed("dim7-alg2"))  # rounded h passes only after one step along alpha
@example((catalog_get("heis3"), (F(1, 100), F(1, 100), F(1, 50))))  # passes at s = 1/32
@example((catalog_get("n5nonice"), (F(1), F(1), F(2), F(2), F(3))))  # positive, not nice
def test_every_certified_rn_certificate_gets_a_verified_witness_metric(case):
    mu, d = case
    assume(sum(d) > 0)
    cert = certify_derivation(mu, d, budget=64).certificate
    assume(cert is not None)
    ext = find_witness_metric(mu, d, cert)
    assert ext is not None and is_negative_definite(extension_ricci(ext))
    assert ext.s == 1 or cert.kind == POSITIVE_DERIVATION
    mu2, cert2 = parse_certificate(serialize_certificate(mu, replace(cert, witness=ext)))
    assert cert2.witness == ext
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


def reference_necessary_condition(mu: LieBracket, d):
    """``necessary_condition`` on the rational center basis of the oracle echelon form."""
    trd = sum(d, ZERO)
    if trd <= 0:
        return False, f"trace {trd} is not positive"
    slow = FractionEchelon(mu.dim)
    for row in _center_rows(mu):
        slow.add_row(row)
    z = slow.nullspace_basis()
    neg_gram = [[sum((-d[r] * za[r] * zb[r] for r in range(mu.dim)), ZERO) for zb in z]
                for za in z]
    if z and not is_negative_definite(neg_gram):
        return False, "restriction to the center is not positive definite"
    return True, None


# center spanned by e_4 and 2 e_2 - e_3, whose integer vector is twice the rational one
SKEW_CENTER = LieBracket(4, {(1, 2, 4): F(1), (1, 3, 4): F(2)})


def reference_fraction_gram_necessary_condition(mu: LieBracket, d):
    """``necessary_condition`` with a Fraction trace and a Fraction Gram
    matrix of D on the integer center basis, tested by ``is_negative_definite``."""
    trd = sum(d, ZERO)
    if trd <= 0:
        return False, f"trace {trd} is not positive"
    z = center(mu)
    if z:
        weighted = [[(r, -d[r] * v) for r, v in za.items() if d[r]] for za in z]
        neg_gram = [[sum((w * zb[r] for r, w in dza if r in zb), ZERO) for zb in z]
                    for dza in weighted]
        if not is_negative_definite(neg_gram):
            return False, "restriction to the center is not positive definite"
    return True, None


@st.composite
def signed_torus_points(draw):
    """(mu, D): a generated algebra, moved in one draw of four (which
    mostly leaves only D = 0), and a rational point of its diagonal torus,
    of any trace sign."""
    mu = draw(nilpotent_algebras(unipotent=draw(st.sampled_from([False, False, False, True]))))
    dspace = diagonal_derivations(mu)
    if not dspace.dim:
        return mu, (ZERO,) * mu.dim
    t = draw(st.lists(st.integers(-3, 3) | MARGIN_RHS, min_size=dspace.dim, max_size=dspace.dim))
    return mu, dspace.point(t)


@settings(max_examples=80)
@given(signed_torus_points())
@example((SKEW_CENTER, (F(-1), F(2), F(2), F(1))))  # positive on the center
@example((SKEW_CENTER, (F(2), F(-1), F(-1), F(1))))  # negative on 2 e_2 - e_3
@example((SKEW_CENTER, (F(1, 2), F(-1, 3), F(-1, 3), F(1, 6))))  # trace 0
@example((catalog_get("ex8ex7-ii"), catalog_entry("ex8ex7-ii").derivations[0]))
def test_necessary_condition_keeps_its_verdict_on_the_integer_center(case):
    """The integer center basis differs from the rational one, and the
    integer row of D from D, by positive factors, which keep the Sylvester
    verdict: the same verdict and message (the rational trace in it
    included) as the Fraction Gram on either basis; where
    ``certify_derivation`` takes D, its necessary-condition verdict too."""
    mu, d = case
    want = reference_fraction_gram_necessary_condition(mu, d)
    assert necessary_condition(mu, d) == want
    assert reference_necessary_condition(mu, d) == want
    if sum(d) > 0:
        v = certify_derivation(mu, d, budget=0)
        ok, reason = want
        assert (v.status == CERTIFIED_NOT_RN) == (not ok)
        assert v.obstruction == (None if ok else f"necessary condition fails: {reason}")


def reference_negative_definite(rows: list) -> bool:
    """Exact Sylvester test, every leading minor of -A positive, on dense
    int rows each a positive multiple of that row of A: no minor changes
    sign.

    Elimination without row exchanges replaces each later row with a
    nonzero f under the pivot p > 0 by p row - f prow, divided by its gcd,
    which again scales the leading minors by positive factors.  So minor
    k of -A is a positive multiple of the product of the first k pivots,
    and the test fails at the first pivot that is not positive.
    """
    rows = [[-x for x in r] for r in rows]
    for k in range(len(rows)):
        prow = rows[k]
        p = prow[0]
        if p <= 0:
            return False
        tail = prow[1:]
        for r in range(k + 1, len(rows)):
            row = rows[r]
            f = row[0]
            if f:
                rows[r] = primitive([p * x - f * y for x, y in zip(row[1:], tail)])
            else:
                rows[r] = row[1:]
    return True


def reference_positive_on_center(mu: LieBracket, e) -> bool:
    """``certifier._positive_on_center`` with no sink test: the dense
    integer Gram matrix of minus D on the integer center basis, always
    solved for."""
    z = center(mu)
    if not z:
        return True
    weighted = [[(r, -e[r] * v) for r, v in za.items() if e[r]] for za in z]
    return reference_negative_definite(
        [[sum([w * zb[r] for r, w in dza if r in zb]) for zb in z] for dza in weighted])


@settings(max_examples=80)
@given(signed_torus_points())
@example((SKEW_CENTER, (F(2), F(-1), F(-1), F(1))))  # sink positive, fails on 2 e_2 - e_3
@example((SKEW_CENTER, (F(-1), F(2), F(2), F(1))))  # passes the Gram test
@example((HEIS3_PLUS_LINE, (F(1), F(1), F(2), F(-1))))  # decided at a sink
@example(_listed("ex1ex2ex5-ii"))  # decided at a sink
@example(_listed("ex8ex7-ii"))
def test_necessary_condition_matches_the_center_gram_reference(case):
    """The sink test decides only what the center Gram would: the same
    center verdict on the integer row of D, and the same verdict and
    message from ``necessary_condition``."""
    mu, d = case
    e = integer_row(d)
    assert certifier._positive_on_center(mu, e) == reference_positive_on_center(mu, e)
    if sum(d) <= 0:
        want = (False, f"trace {sum(d, ZERO)} is not positive")
    elif not reference_positive_on_center(mu, e):
        want = (False, certifier.NOT_POSITIVE_ON_CENTER)
    else:
        want = (True, None)
    assert necessary_condition(mu, d) == want


def _survives_round_trip(mu: LieBracket, verdict) -> None:
    if verdict.status != CERTIFIED_RN:
        return
    mu2, cert2 = parse_certificate(serialize_certificate(mu, verdict.certificate))
    assert cert2 == verdict.certificate
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)),
       diagonal_derivations_of_algebras())
@example(catalog_get("ex9"), _listed("ex9"))  # a degeneration cone certificate
@example(catalog_get("dim7-alg1"), _listed("dim7-alg2"))
def test_certificates_survive_serialize_parse_verify(mu, case):
    _survives_round_trip(mu, certify_nilradical(mu))
    lam, d = case
    if sum(d) > 0:
        _survives_round_trip(lam, certify_derivation(lam, d, budget=64))


def _torus_point(id_, t):
    """A catalog algebra with the point of its diagonal torus at parameters t."""
    mu = catalog_get(id_)
    return mu, diagonal_derivations(mu).point(t)


@settings(max_examples=40)
@given(diagonal_derivations_of_algebras())
@example(_listed("ex9"))
@example(_listed("dim7-alg1"))  # not nice: a degeneration
@example(_torus_point("ex1ex2ex5-i", [1]))  # Unknown after the sink LP
@example(_torus_point("ex1ex2ex5-ii", [1, 2]))
@example((FILIFORM_8, (F(-1), F(7), F(6), F(5), F(4), F(3), F(2), F(1))))
def test_torus_search_agrees_with_the_per_derivation_walk(case):
    """``certify_derivation`` is the slow oracle of the torus LPs: it walks
    the same brackets for one fixed D.  A budget above the number of
    index subsets lets both walks finish."""
    mu, d = case
    budget = 2 ** len(mu.keys())
    v = certify_nilradical(mu, budget=budget)
    if v.status == CERTIFIED_RN:
        # any earlier bracket certifying v.d would have made its torus LP feasible
        assert certify_derivation(mu, v.d, budget=budget).certificate == v.certificate
    elif v.status == UNKNOWN and sum(d) > 0:
        assert certify_derivation(mu, d, budget=budget).status != CERTIFIED_RN


def reference_torus_point(dspace: DiagonalDerivationSpace, t_scaled):
    """point(t) at t_m = L_m t'_m, for the rational t' a torus LP finds.

    The torus LPs run on the integer columns L_m v_m of
    ``dspace.integer_basis``; t is then the point the LP over the rational
    columns v_m finds, since the simplex takes the same pivots.  The
    certifier sums num_m L_m v_m in integers instead (``certifier._torus_sum``).
    """
    return dspace.point([tm * vden for tm, (_, vden) in zip(t_scaled, dspace.integer_basis)])


def reference_margin(a_ub, a_eq=(), free: int = 0):
    """``max_margin(a_ub, [0] * len(a_ub), a_eq, free)`` by the ``Fraction``
    simplex of the split LP: (eps, x) with x rational, or None."""
    k = len(a_ub[0])
    sol = reference_solve_folded(
        [0] * k + [1],
        [[*row, 1] for row in a_ub] + [[0] * k + [1]],
        [0] * len(a_ub) + [1],
        [[*row, 0] for row in a_eq],
        [0] * len(a_eq),
        free,
    )
    if sol.status != OPTIMAL or sol.value <= 0:
        return None
    return sol.value, sol.x[:k]


def torus_lp_rows(dspace: DiagonalDerivationSpace, weights, n: int) -> list[list[int]]:
    """The rows of the torus LP of ``certifier._torus_cone_point``."""
    cols = [v for v, _ in dspace.integer_basis]
    wts = list(weights.values())
    rows = [[-v[r] for v in cols] + [wt[r] for wt in wts] for r in range(n)]
    rows.append([-sum(v) for v in cols] + [0] * len(wts))
    return rows


def assert_the_rational_torus_path(mu: LieBracket, faces: int = 4) -> None:
    """The torus LPs of ``certify_nilradical`` and the alpha LPs of its
    first ``faces`` nice faces on mu, against the rational path: each LP
    solved by the ``Fraction`` simplex, t mapped back by
    ``reference_torus_point``, and D and alpha scaled by ``integer_row``."""
    n = mu.dim
    dspace = diagonal_derivations(mu)
    cols = [v for v, _ in dspace.integer_basis]
    sol = reference_margin([[-v[r] for v in cols] for r in range(n)], free=dspace.dim)
    got = certifier._positive_diagonal_derivation(dspace, n)
    if sol is None:
        assert got is None
    else:
        d = reference_torus_point(dspace, sol[1])
        assert got == (d, min(d))
        assert all(type(x) is F for x in got[0])
    w = weight_set(mu)
    for weights, _, degeneration in islice(certifier._nice_faces(mu, 2 ** len(w)), faces):
        sol = reference_margin(torus_lp_rows(dspace, weights, n), free=dspace.dim)
        point = None if sol is None else reference_torus_point(dspace, sol[1][:dspace.dim])
        assert certifier._torus_cone_point(dspace, weights, n) == (
            None if point is None else integer_row(point))
        if degeneration is not None:
            kept = list(weights.values())
            dropped = [v for key, v in w.items() if key not in weights]
            want = integer_row(reference_margin(dropped, kept, free=n)[1])
            assert separating_alpha(kept, dropped, n) == want == degeneration[0]()


@st.composite
def wide_torus_algebras(draw) -> LieBracket:
    """A generated algebra with a torus of dimension 2 or more, its basis permuted."""
    mu = draw(nilpotent_algebras(unipotent=False))
    assume(diagonal_derivations(mu).dim >= 2)
    return relabelled(mu, draw(st.permutations(range(1, mu.dim + 1))))


FILIFORM_20 = LieBracket(20, {(1, i, i + 1): ONE for i in range(2, 20)})  # m_0(20)


@settings(max_examples=40)
@given(wide_torus_algebras())
@example(direct_sum([catalog_get("n4nice")] * 4))  # an 8-dimensional torus
@example(FILIFORM_20)
@example(relabelled(direct_sum([catalog_get("heis3"), catalog_get("n4nice")]), (5, 2, 7, 1, 3, 6, 4)))
@example(direct_sum([catalog_get("n5nonice"), catalog_get("heis3")]))  # degenerations
@example(direct_sum([catalog_get("dim7-alg1"), ABELIAN_LINE]))  # no positive derivation
def test_torus_lps_match_the_rational_path(mu):
    assert_the_rational_torus_path(mu)


def reference_torus_cone_point(dspace: DiagonalDerivationSpace, weights, n: int):
    """``certifier._torus_cone_point`` by its LP on a torus of any dimension."""
    rows = torus_lp_rows(dspace, weights, n)
    sol = max_margin(rows, [0] * len(rows), free=dspace.dim)
    if sol is None:
        return None
    return integer_row(reference_torus_point(dspace, margin(sol)[1][:dspace.dim]))


def nilradical_verdict_with_the_torus_lp(mu: LieBracket):
    """``certify_nilradical`` with ``reference_torus_cone_point`` patched in."""
    real = certifier._torus_cone_point
    certifier._torus_cone_point = reference_torus_cone_point
    try:
        return certify_nilradical(mu)
    finally:
        certifier._torus_cone_point = real


# two brackets with a one-dimensional torus, found by a random search over
# upper-triangular brackets, where a nice face fails the membership of the
# torus direction: the first is certified on a later face, the second
# fails on every face and stays Unknown
LATER_FACE = LieBracket(7, {(1, 2, 6): -ONE, (1, 3, 6): F(2), (1, 4, 7): -ONE,
                            (3, 4, 5): ONE, (3, 4, 6): F(2), (4, 5, 7): -ONE})
NO_FACE = LieBracket(6, {(1, 2, 4): -ONE, (1, 2, 6): F(2), (1, 3, 6): ONE,
                         (1, 5, 6): F(2), (2, 4, 6): -ONE})
LINE_TORUS_SUMS = [mu for mu in SUMS if diagonal_derivations(mu).dim == 1] + [LATER_FACE, NO_FACE]


@st.composite
def line_torus_algebras(draw) -> LieBracket:
    """A rescaled bracket with a one-dimensional torus, relabelled (a
    unipotent move almost always leaves no torus at all)."""
    mu = draw(nilpotent_algebras(unipotent=False, sums=LINE_TORUS_SUMS))
    return relabelled(mu, draw(st.permutations(range(1, mu.dim + 1))))


def test_line_torus_verdicts_match_the_torus_lp_on_the_catalog():
    """On every catalog bracket with a one-dimensional torus, the verdict
    without the torus LP is the verdict with it, certificate included."""
    lines = 0
    for label, id_, params in CASES:
        mu = catalog_get(id_, **params)
        if diagonal_derivations(mu).dim == 1:
            lines += 1
            assert (label, certify_nilradical(mu)) == (label, nilradical_verdict_with_the_torus_lp(mu))
    assert lines == 15


@settings(max_examples=40)
@given(line_torus_algebras())
@example(catalog_get("n4nonice"))
@example(LATER_FACE)
@example(NO_FACE)
@example(relabelled(catalog_get("dim7-alg1"), (7, 6, 5, 4, 3, 2, 1)))
def test_line_torus_verdicts_match_the_torus_lp(mu):
    assert diagonal_derivations(mu).dim == 1
    assert certify_nilradical(mu) == nilradical_verdict_with_the_torus_lp(mu)


def test_line_torus_membership_failures_are_not_invariant_violations(monkeypatch):
    """The direction of a line fails the membership LP on two faces of
    LATER_FACE before the third certifies it, and on every face of NO_FACE."""
    failed = []
    real = certifier.membership_certificate

    def recorded(d, weights, kind, degeneration):
        cert = real(d, weights, kind, degeneration)
        failed.append(cert is None)
        return cert

    monkeypatch.setattr(certifier, "membership_certificate", recorded)
    later, none = certify_nilradical(LATER_FACE), certify_nilradical(NO_FACE)
    assert (later.status, later.notes) == (CERTIFIED_RN, "degeneration keeping 3 of 6 constants")
    assert (none.status, none.notes) == (UNKNOWN, NO_CANDIDATE)
    assert failed == [True, True, False] + [True] * 12


@settings(max_examples=30)
@given(nilpotent_algebras(unipotent=False))  # at most 8 constants, so 2^8 LPs
@example(catalog_get("heis3"))  # nice: the walk never starts
@example(catalog_get("n5nonice"))
@example(catalog_get("dim7-alg1"))
@example(catalog_get("dim7-alg2"))
def test_nice_faces_are_the_nice_proper_faces_of_the_full_walk(mu):
    """Both certifiers walk the nice subsets only; with a budget that lets
    both walks finish, they meet the nice, non-full faces of the unfiltered
    walk in the same order, each alpha (solved only when asked for) the
    one the unfiltered walk finds."""
    m = len(mu.keys())
    faces = list(iter_faces(mu, 2 ** m))
    assert None not in faces
    # the weights passed on are those of the face's bracket, in its order
    nice = [(list(w.items()), kind, deg and (deg[0](), deg[1]))
            for w, kind, deg in certifier._nice_faces(mu, 2 ** m)]
    if is_nice_basis(mu.keys()):
        assert nice == [(list(weight_set(mu).items()), NICE_CONE, None)]
        return
    assert nice == [
        (list(weight_set(lam).items()), DEGENERATION_CONE, (alpha, j_set))
        for j_set, alpha, _ in faces
        if len(j_set) < m and is_nice_basis((lam := limit_bracket(mu, j_set)).keys())
    ]


@st.composite
def rational_matrices(draw):
    """Square matrices up to 6 x 6, often with a zero leading pivot."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([F(-2), F(-1), F(0), F(0), F(1, 2), F(1), F(3, 2), F(4)])
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150)
@given(rational_matrices())
@example([[F(1), F(1)], [F(1), F(1)]])  # second pivot vanishes, det is 0
@example([[F(0), F(1), F(2)], [F(1), F(0), F(1)], [F(2), F(1), F(0)]])  # first pivot 0
@example([[F(1), F(2), F(0)], [F(2), F(4), F(1)], [F(0), F(1), F(3)]])  # 0 pivot, nonzero det
def test_leading_minors_match_per_k_determinants(a):
    assert leading_principal_minors(a) == reference_leading_principal_minors(a)


def reference_moment_sum(mu: LieBracket):
    """S(mu) = |mu|^2 m(mu) as a dense matrix, one outer product per group.

    S_ab = 1/2 sum_{i,j} c_ij^a c_ij^b - sum_{j,r} c_aj^r c_bj^r, both sums
    over ordered pairs; the first is one outer product per pair i < j, the
    second one per (j, r) of the column a -> c_aj^r.
    """
    n = mu.dim
    by_pair: dict[tuple[int, int], dict[int, F]] = {}  # (i, j) -> {a: c_ij^a}
    by_slot: dict[tuple[int, int], dict[int, F]] = {}  # (j, r) -> {a: c_aj^r}
    for (i, j, k), v in mu.constants.items():
        by_pair.setdefault((i, j), {})[k - 1] = v
        by_slot.setdefault((j, k), {})[i - 1] = v
        by_slot.setdefault((i, k), {})[j - 1] = -v
    s = [[ZERO] * n for _ in range(n)]
    for groups, sign in ((by_pair, ONE), (by_slot, -ONE)):
        for col in groups.values():
            for a, x in col.items():
                for b, y in col.items():
                    s[a][b] += sign * x * y
    return tuple(tuple(r) for r in s)


def reference_moment_map(mu: LieBracket):
    nsq = norm_squared(mu)
    return tuple(tuple(x / nsq for x in row) for row in reference_moment_sum(mu))


def reference_nil_ricci(mu: LieBracket):
    half = F(1, 2)
    return tuple(tuple(half * x for x in row) for row in reference_moment_sum(mu))


def reference_extension_ricci(ext: MetricExtension):
    """The extension Ricci matrix from the bracket nu = s (h . mu), built whole.

    (0,0) = -tr D^2, (0,i) = -tr(D ad_nu(e_i)) by n lookups nu.c(i, k, k),
    and the dense block Ric(nu) - tr(D) D.
    """
    mu, d = ext.mu, ext.d
    n = mu.dim
    moved = mu.diagonal_act(ext.h)
    nu = LieBracket(n, {key: ext.s * v for key, v in moved.constants.items()})
    trd = sum(d, ZERO)
    ric = [[ZERO] * (n + 1) for _ in range(n + 1)]
    ric[0][0] = -sum((x * x for x in d), ZERO)
    for i in range(1, n + 1):
        val = ZERO
        for k in range(1, n + 1):
            val += d[k - 1] * nu.c(i, k, k)
        ric[0][i] = ric[i][0] = -val
    block = reference_nil_ricci(nu)
    for a in range(n):
        for b in range(n):
            ric[a + 1][b + 1] = block[a][b] - (trd * d[a] if a == b else ZERO)
    return tuple(tuple(r) for r in ric)


POSITIVE = st.fractions(F(1, 5), F(5), max_denominator=6)


@st.composite
def metric_extensions(draw) -> MetricExtension:
    """A bracket, a point of its diagonal-derivation space, and positive s and h.

    The brackets are generated algebras, moved and unmoved, and skew
    brackets.  Constants c_ij^j or c_ij^i (k = j or k = i) come mostly from
    the skew brackets; such a constant forces d_i = 0 or d_j = 0 but
    leaves d_k free, and it reaches row 0 as d_k c'.
    """
    mu = draw(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False),
                        skew_brackets()))
    n = mu.dim
    dspace = diagonal_derivations(mu)
    t = draw(st.lists(st.integers(-3, 3), min_size=dspace.dim, max_size=dspace.dim))
    d = dspace.point(t) if dspace.dim else (ZERO,) * n
    h = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    return MetricExtension(mu, d, draw(POSITIVE), h)


def _exact(m) -> bool:
    """Every entry a Fraction, and every zero entry the shared ZERO."""
    return all(type(x) is F and (x or x is ZERO) for row in m for x in row)


@settings(max_examples=150)
@given(metric_extensions())
@example(MetricExtension(LieBracket(3, {(1, 2, 2): ONE, (1, 3, 3): F(2)}),
                         (ZERO, ONE, F(3)), F(2), (F(1, 2), F(3), ONE)))  # k == j
@example(MetricExtension(LieBracket(2, {(1, 2, 1): F(-3)}), (F(2), ZERO), ONE, (F(5), F(1, 3))))  # k == i
@example(MetricExtension(catalog_get("ex9"), catalog_entry("ex9").derivations[0], F(3, 7),
                         tuple(F(k + 2, k + 1) for k in range(10))))
@example(MetricExtension(N4NICE_MOVED, (ZERO,) * 4, ONE, (ONE, F(2), F(1, 3), F(5))))  # not nice
def test_sparse_ricci_matches_dense_references(ext):
    mu = ext.mu
    ric = extension_ricci(ext)
    assert ric == reference_extension_ricci(ext) and _exact(ric)
    block = nil_ricci(mu)
    assert block == reference_nil_ricci(mu) and _exact(block)
    if not mu.is_zero():
        m = moment_map(mu)
        assert m == reference_moment_map(mu) and _exact(m)


def sylvester_negative_definite(a) -> bool:
    """(-1)^k det(A_k) > 0 for every leading minor A_k, k = 1..n."""
    return all((-1) ** k * m > 0 for k, m in enumerate(leading_principal_minors(a), start=1))


def _heis3_beyond_float_range() -> MetricExtension:
    """heis3 at D = 10^400 (-1, 5, 4) with its witness metric, s = 2^1332."""
    mu, d = catalog_get("heis3"), tuple(F(10**400 * x) for x in (-1, 5, 4))
    return find_witness_metric(mu, d, certify_derivation(mu, d).certificate)


@settings(max_examples=150)
@given(metric_extensions())
@example(_heis3_beyond_float_range())
@example(MetricExtension(LieBracket(3, {(1, 2, 2): ONE, (1, 3, 3): F(2)}),
                         (ZERO, F(1, 2), F(3, 4)), F(2), (F(1, 2), F(3), ONE)))  # k == j, dd = 4
@example(MetricExtension(LieBracket(2, {(1, 2, 1): F(-3)}), (F(2, 3), ZERO), ONE, (F(5), F(1, 3))))  # k == i
@example(MetricExtension(catalog_get("heis3"), (F(1, 2), F(1, 3), F(5, 6)), F(3, 7), (ONE, F(2), F(1, 3))))
@example(MetricExtension(LieBracket(3, {}), (F(1, 2), F(-1, 3), F(2)), F(3), (ONE, F(2), F(1, 5))))  # L = lcm() = 1
def test_integer_ricci_kernel_matches_the_reference(ext):
    upper, t = _integer_ricci(ext.mu, ext.d, ext.s, ext.h)
    ref = reference_extension_ricci(ext)
    n = ext.mu.dim + 1
    assert t > 0 and all(0 <= a <= b < n and type(x) is int and x for (a, b), x in upper.items())
    m = [[ZERO] * n for _ in range(n)]
    for (a, b), x in upper.items():
        m[a][b] = m[b][a] = F(x, t)
    assert tuple(map(tuple, m)) == ref
    assert is_ricci_negative(ext) == sylvester_negative_definite(ref)


def _witness_candidates(mu: LieBracket, d) -> list:
    """The Ricci matrix of every extension that find_witness_metric tests
    for (mu, d), in order, as the reference builds it from the parts the
    search passes to its predicate."""
    seen = []
    test = certifier._ricci_negative

    def recorded(*parts):
        seen.append(reference_extension_ricci(MetricExtension(*parts)))
        return test(*parts)

    cert = certify_derivation(mu, d).certificate
    certifier._ricci_negative = recorded
    try:
        find_witness_metric(mu, d, cert)
    finally:
        certifier._ricci_negative = test
    # a search that tests its candidates elsewhere would leave this empty
    assert seen, "find_witness_metric tested no candidate through certifier._ricci_negative"
    return seen


WITNESS_RICCI = (_witness_candidates(*_listed("ex9"))
                 + _witness_candidates(FILIFORM_8, (F(-1), F(7), F(6), F(5), F(4), F(3), F(2), F(1))))


def _symmetrized(a):
    return [[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=200)
@given(rational_matrices().map(_symmetrized))
@example([[F(-1), ONE, ZERO], [ONE, F(-1), ONE], [ZERO, ONE, F(-1)]])  # minor 2 is 0, det 1
@example([[F(-2), ONE, ONE], [ONE, F(-2), ONE], [ONE, ONE, F(-2)]])  # singular, minors -2, 3, 0
@example([[F(-1), F(2)], [F(2), F(-1)]])  # indefinite, first pivot -1: fails at the second
@example([[ONE, F(2)], [F(2), F(-3)]])  # indefinite, first pivot of -A is -1: fails at once
@example([[F(-1, 2), F(1, 3)], [F(1, 3), F(-5, 7)]])  # negative definite, rational rows
@_with_examples(WITNESS_RICCI)
def test_sign_test_is_the_sylvester_reading_of_the_minors(a):
    assert is_negative_definite(a) == sylvester_negative_definite(a)


def _shared_zeros(a):
    return [[ZERO if x == 0 else x for x in row] for row in a]


@settings(max_examples=200)
@given(st.one_of(rational_matrices(), rational_matrices().map(_symmetrized)))
@example([[F(-1), ZERO, F(0)], [F(0), F(-2), ZERO], [ZERO, F(0), F(-3)]])  # both zeros, definite
@example([[ZERO, ONE], [ONE, F(-1)]])  # first pivot 0
@example([[F(0), F(-1)], [F(-1), ZERO]])  # first pivot a separate Fraction(0)
@example([[F(-1), F(3)], [ZERO, F(-1)]])  # not symmetric: minors -1, 1
@example([[F(-1), F(0)], [F(3), F(2)]])  # not symmetric: minors -1, -2
@example([[F(-1), F(1), F(0)], [F(-1), F(-1), ZERO], [F(0), F(2), F(-1)]])  # not symmetric, definite
@example([[F(-1), ZERO, F(1)], [F(-3), F(-1), ZERO], [ZERO, F(-1), F(-1)]])  # A_12 = 0, A_21 != 0: det 2
def test_dict_row_sign_test_matches_the_dense_elimination(a):
    """The dict-row elimination runs the dense one's steps in the same
    order, so both read the leading minors of -A, symmetric or not, and
    neither depends on which zero object an entry is."""
    want = sylvester_negative_definite(a)
    assert reference_negative_definite([integer_row(r) for r in a]) == want
    assert is_negative_definite(a) == is_negative_definite(_shared_zeros(a)) == want
    rows = [{b: -x for b, x in enumerate(integer_row(r)) if x} for r in a]
    assert _positive_definite(rows) == want


def test_witness_examples_include_the_accepted_ricci_matrices():
    # both searches accept a metric, so each tested at least one matrix
    assert sum(map(is_negative_definite, WITNESS_RICCI)) == 2


def reference_round_exp(v: float, q: int) -> F:
    """e^v as 2^k times ``Fraction(m).limit_denominator(q)``, m = e^(v - k log 2)."""
    k = math.floor(v / math.log(2)) + 1
    return F(math.exp(v - k * math.log(2))).limit_denominator(q) * F(2) ** k


@settings(max_examples=500)
@given(st.floats(-2000, 2000, allow_nan=False, allow_infinity=False),
       st.sampled_from([1, 2, 3, 64, 4096, 2 ** 20]))
@example(0.0, 2)                    # m = 1/2: its own denominator is <= q
@example(0.4054651081081644, 64)    # m = 3/4, likewise
@example(0.0, 1)                    # m = 1/2 halfway between 0 and 1: 0 wins the tie
@example(0.4054651081081644, 2)     # m = 3/4 halfway between 1/2 and 1: 1 wins the tie
@example(0.5596157879354227, 4)     # m = 7/8 halfway between 3/4 and 1: 1 wins the tie
def test_round_exp_is_limit_denominator_times_a_power_of_two(v, q):
    assert certifier._round_exp(v, q) == reference_round_exp(v, q)


def reference_solve_positive_definite(a: list[list[float]], b: list[float]) -> list[float]:
    """Gauss-Jordan elimination in floats, without pivoting since ``a`` is positive definite."""
    for c in range(len(b)):
        for r in range(len(b)):
            if r != c:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    return [b[r] / a[r][r] for r in range(len(b))]


@st.composite
def positive_definite_systems(draw):
    """(A, b) with A = B B^T + I, so every eigenvalue is at least 1."""
    n = draw(st.integers(1, 12))
    entry = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    a = [[sum(x * y for x, y in zip(ri, rj)) + (i == j) for j, rj in enumerate(m)]
         for i, ri in enumerate(m)]
    return a, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=200)
@given(positive_definite_systems())
def test_cholesky_solve_matches_gauss_jordan(system):
    a, b = system
    want = reference_solve_positive_definite([row[:] for row in a], b[:])
    got = certifier._solve_positive_definite([row[:] for row in a], b[:])
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9 * max(map(abs, want))
