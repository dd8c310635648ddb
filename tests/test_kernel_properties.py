"""Property tests of the closed-form kernels against their slow definitions.

The algebras are direct sums of small catalog entries (plus abelian lines),
rescaled by a random positive diagonal h and moved by a random unipotent
upper-triangular g, so that brackets have several terms and the basis is
in general not nice.  The Jacobi, central-series and center kernels are
also run on random skew brackets, most of which break Jacobi and many of
which are not nilpotent.  Witness metrics are built for every derivation
of the generated algebras that gets a cone certificate.  The traceless
decision, made on the diagonal torus before Der(mu), is checked against
the traces of the dense Der(mu).

The ``reference_*`` functions are the dense definitions the sparse kernels
replaced: Der(mu), the lower central series, the Jacobi test and the
center, each built from ``mu.c`` or ``mu.bracket`` over full index ranges.
They also keep the slow exact kernels of the certificate cone: the
``Fraction`` simplex that recomputes every reduced cost each iteration
(the library's tableau holds integer rows), Fourier-Motzkin over
``Fraction`` rows, and one ``det`` per leading principal minor.
Certificates from both certifiers are checked to survive serialize,
parse and verify.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations_with_replacement

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilcone.catalog import catalog_entry, catalog_get, catalog_list
from nilcone import derivations
from nilcone.certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    DEGENERATION_CONE,
    NICE_CONE,
    POSITIVE_DERIVATION,
    SCOPE_ALGEBRA,
    certify_derivation,
    certify_nilradical,
    find_witness_metric,
    membership_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from nilcone.derivations import (
    DerivationBasis,
    EngelResult,
    all_derivations_traceless,
    der_if_traceless,
    derivation_algebra,
    diagonal_derivations,
    is_characteristically_nilpotent,
    rep_action,
)
from nilcone import simplex
from nilcone.errors import InvariantViolation
from nilcone.liecore import (
    LieBracket,
    SubspaceChain,
    act,
    center,
    check_jacobi,
    is_nice_basis,
    lower_central_series,
)
from nilcone.linalg import (
    ONE,
    ZERO,
    Echelon,
    dense_row,
    det,
    frac,
    integer_row,
    leading_principal_minors,
    mat_inv,
    nullspace,
)
from nilcone.momentricci import (
    extension_ricci,
    is_negative_definite,
    moment_map,
    nil_ricci,
    norm_squared,
)
from nilcone.polytope import (
    ProjectedCone,
    _strictly_feasible,
    fourier_motzkin,
    project_certificate_cone,
    remove_redundant,
    weight_set,
)
from nilcone.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPSolution, solve_lp
from test_golden_kernels import CASES
from test_linalg import mat_mul

MAX_DIM = 8
ABELIAN_LINE = LieBracket(1, {})


def direct_sum(parts) -> LieBracket:
    constants, offset = {}, 0
    for p in parts:
        for (i, j, k), v in p.constants.items():
            constants[(i + offset, j + offset, k + offset)] = v
        offset += p.dim
    return LieBracket(offset, constants)


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
def nilpotent_algebras(draw, unipotent: bool = True) -> LieBracket:
    """A rescaled direct sum, moved by a random unipotent g unless told not to.

    Most such moves leave no diagonal derivation, so kernels that need
    one are tested with ``unipotent=False``.
    """
    mu = draw(st.sampled_from(SUMS))
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


def reference_derivation_algebra(mu: LieBracket) -> DerivationBasis:
    """Exact nullspace of E -> E.mu; unknown E_{pq} indexed as p*n + q (0-based)."""
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
    vecs = nullspace(rows, n * n)
    mats = tuple(
        tuple(tuple(v[p * n + q] for q in range(n)) for p in range(n)) for v in vecs
    )
    return DerivationBasis(n, mats)


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
                        mu.bracket(ab, basis[c - 1]),
                        mu.bracket(bc, basis[a - 1]),
                        mu.bracket(ca, basis[b - 1]),
                    )
                ]
                if any(total):
                    return False, (a, b, c)
    return True, None


def _span_basis(vectors, n: int):
    ech = Echelon(n)
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
    terms = [current]
    dims = [n]
    while True:
        images = []
        for i in range(1, n + 1):
            ei = tuple(ONE if t == i - 1 else ZERO for t in range(n))
            for v in current:
                w = mu.bracket(ei, v)
                if any(w):
                    images.append(w)
        nxt = _span_basis(images, n)
        d = len(nxt)
        if d == dims[-1]:
            return SubspaceChain(tuple(terms), tuple(dims), terminates=(d == 0))
        if d == 0:
            return SubspaceChain(tuple(terms), tuple(dims), terminates=True)
        terms.append(nxt)
        dims.append(d)
        current = nxt


def reference_center(mu: LieBracket):
    """Exact basis of {X : mu(X, e_i) = 0 for all i}."""
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
    return tuple(nullspace(rows, n))


def reference_engel(mu: LieBracket) -> EngelResult:
    """The Engel flag through an adapted basis M and M^-1 D M at each stage."""
    n = mu.dim
    der = derivation_algebra(mu)
    if not der.basis:
        return EngelResult(True, (n,))
    flag_vectors: list[tuple] = []
    flag_dims: list[int] = []
    stage = 0
    while len(flag_vectors) < n:
        ech = Echelon(n)
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
        for e in der.basis:
            t = mat_mul(m_inv, mat_mul(e, m_cols))
            induced.append(tuple(tuple(t[d + a][d + b] for b in range(len(comp)))
                                 for a in range(len(comp))))
        rows = [dense_row(r) for m in induced for r in m]
        kernel = nullspace([r for r in rows if r], len(comp))
        if not kernel:
            return EngelResult(False, tuple(flag_dims), witness_stage=stage,
                               witness_operators=tuple(induced))
        for kv in kernel:
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


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), nilpotent_algebras(unipotent=False)))
@example(catalog_get("ex3"))  # traceless, not characteristically nilpotent
@example(catalog_get("ex4-1"))  # traceless and characteristically nilpotent
@example(catalog_get("heis3"))  # decided by the diagonal torus
@example(N4NICE_MOVED)  # traceless torus, traced Der(mu): the fallback says no
def test_traceless_test_matches_every_reference_derivation(mu):
    reference = reference_derivation_algebra(mu)
    want = all(sum((e[r][r] for r in range(mu.dim)), ZERO) == 0 for e in reference.basis)
    assert all_derivations_traceless(mu) == want
    der = der_if_traceless(mu, diagonal_derivations(mu))
    assert (der is not None) == want
    if der is not None:
        assert der == reference
    # budget 0: no face search, so a non-traceless algebra ends quickly too
    verdict = certify_nilradical(mu, budget=0)
    assert (verdict.status == CERTIFIED_NOT_RN and verdict.scope == SCOPE_ALGEBRA) == want


def test_fallback_example_has_a_traceless_torus_and_a_traced_derivation():
    assert not any(sum(v) for v in diagonal_derivations(N4NICE_MOVED).basis)
    assert not all_derivations_traceless(N4NICE_MOVED)


FILIFORM_12 = LieBracket(12, {(1, i, i + 1): ONE for i in range(2, 12)})  # m_0(12)


def test_certify_nilradical_solves_der_mu_at_most_once(monkeypatch):
    calls = []
    solve = derivations._derivation_nullspace

    def counted(mu):
        calls.append(mu)
        return solve(mu)

    monkeypatch.setattr(derivations, "_derivation_nullspace", counted)
    for mu, want in ((catalog_get("heis3"), 0), (FILIFORM_12, 0),
                     (catalog_get("ex4-1"), 1), (catalog_get("ex3"), 1)):
        calls.clear()
        certify_nilradical(mu)
        assert len(calls) == want, mu


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
def test_engel_flag_matches_adapted_basis_reference(mu):
    assert is_characteristically_nilpotent(mu) == reference_engel(mu)


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
    assert derivation_algebra(mu) == reference_derivation_algebra(mu)
    assert lower_central_series(mu) == reference_lower_central_series(mu)
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
    assert derivation_algebra(mu) == reference_derivation_algebra(mu)


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


def reference_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> LPSolution:
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
            return LPSolution(INFEASIBLE, None, None)
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
        return LPSolution(UNBOUNDED, None, None)
    x = [ZERO] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = rows[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return LPSolution(OPTIMAL, tuple(x), value)


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
    if kept and not _strictly_feasible(kept):
        return ProjectedCone(tuple(sorted(kept)), empty=True)
    return ProjectedCone(tuple(sorted(kept)))


def reference_project_certificate_cone(w, dspace) -> ProjectedCone:
    """The certificate system of ``project_certificate_cone``, eliminated by the reference."""
    n = len(dspace.basis[0])
    m = len(w)
    p = dspace.dim
    rows = []
    for r in range(n):
        e = tuple(-w.weights[q].vec[r] for q in range(m))
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


@st.composite
def small_lps(draw):
    """(c, a_ub, b_ub, a_eq, b_eq) with at least one ub row, some with a
    negative right-hand side, and sometimes a redundant copy of an equality.

    Half the draws are shaped like the LP of ``max_margin``: x free as
    u - v, eps in every ub row and capped by eps <= 1, equality rows with a
    zero right-hand side, and ub right-hand sides with denominators.
    """
    n = draw(st.integers(1, 4))
    row = st.lists(LP_COEFFS, min_size=n, max_size=n)
    if draw(st.booleans()):
        a = draw(st.lists(row, min_size=1, max_size=4))
        b = draw(st.lists(MARGIN_RHS, min_size=len(a), max_size=len(a)))
        eq = draw(st.lists(row, max_size=2))

        def split(r):
            return r + [-v for v in r]

        zeros = [ZERO] * (2 * n)
        return (
            zeros + [ONE],
            [split(r) + [ONE] for r in a] + [zeros + [ONE]],
            b + [ONE],
            [split(r) + [ZERO] for r in eq],
            [ZERO] * len(eq),
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
    return c, a_ub, b_ub, a_eq, b_eq


# Beale's example: Dantzig's rule cycles on it, Bland's rule does not.
BEALE = (
    [F(3, 4), -20, F(1, 2), -6],
    [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]],
    [0, 0, 1],
    [],
    [],
)


@settings(max_examples=200)
@given(small_lps())
@example(BEALE)
@example(([1, 1], [[1, 0]], [1], [[1, 1], [2, 2]], [2, 4]))  # redundant equality dropped
@example(([1, 1], [[1, 1]], [3], [[-1, -1]], [0]))  # artificial driven out at level zero
def test_simplex_matches_reference(lp):
    assert solve_lp(*lp) == reference_solve_lp(*lp)


@st.composite
def canonical_tableaux(draw):
    """[A | I | b] with b >= 0 and the slacks basic, plus costs over all columns."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(LP_COEFFS, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2), F(5, 2)]), min_size=m, max_size=m))
    rows = [a[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    costs = draw(st.lists(LP_COEFFS, min_size=n, max_size=n)) + [ZERO] * m
    return rows, list(range(n, n + m)), costs


@settings(max_examples=200)
@given(canonical_tableaux())
def test_run_simplex_leaves_the_reference_tableau(tableau):
    # same entering and leaving choice at every pivot, so the same final
    # tableau: each integer row read as row[j] / row[basis[i]]
    rows, basis, costs = tableau
    allowed = set(range(len(costs)))
    rows_int, basis_int = [list(integer_row(r)) for r in rows], list(basis)
    status = simplex._run_simplex(rows_int, basis_int, costs, allowed)
    assert status == _reference_run_simplex(rows, basis, costs, allowed)
    assert basis_int == basis
    assert [[F(v, row[b]) for v in row] for row, b in zip(rows_int, basis_int)] == rows


def test_every_catalog_lp_matches_the_reference(monkeypatch):
    """Each LP that the certifiers pose on the catalog, against the rational tableau."""
    solved = []

    def checked(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        assert sol == reference_solve_lp(*args, **kwargs)
        solved.append(sol.status)
        return sol

    monkeypatch.setattr(simplex, "solve_lp", checked)
    for _, id_, params in CASES:
        mu = catalog_get(id_, **params)
        certify_nilradical(mu)
        for d in catalog_entry(id_).derivations:
            if sum(d) > 0:
                certify_derivation(mu, d)
    assert {OPTIMAL, INFEASIBLE} <= set(solved)


@st.composite
def homogeneous_systems(draw):
    """Rows (elim, kept, strict) over 1-3 eliminated and 1-3 kept variables."""
    nelim = draw(st.integers(1, 3))
    nkept = draw(st.integers(1, 3))
    coeff = st.sampled_from([F(-3), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(2)])
    row = st.tuples(
        st.tuples(*[coeff] * nelim), st.tuples(*[coeff] * nkept), st.booleans()
    )
    return draw(st.lists(row, min_size=1, max_size=6)), nelim


@settings(max_examples=100)
@given(homogeneous_systems())
@example(([((F(1),), (F(1),), True), ((F(-1),), (F(-1),), True)], 1))  # derives 0 > 0
# the zero row is derived non-strict first, then strict
@example(([((F(1),), (F(0),), False), ((F(-1),), (F(0),), False), ((F(2),), (F(0),), True)], 1))
def test_fourier_motzkin_matches_fraction_reference(system):
    rows, nelim = system
    assert fourier_motzkin(rows, nelim) == reference_fourier_motzkin(rows, nelim)


@settings(max_examples=30)
@given(nilpotent_algebras(unipotent=False))
@example(catalog_get("dim7-alg1"))  # no positive derivation
@example(catalog_get("ex9"))
def test_certificate_cone_matches_fraction_reference(mu):
    dspace = diagonal_derivations(mu)
    assume(dspace.dim > 0)
    w = weight_set(mu)
    assert project_certificate_cone(w, dspace) == reference_project_certificate_cone(w, dspace)


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
def test_every_cone_certificate_gets_a_verified_witness_metric(case):
    mu, d = case
    assume(sum(d) > 0)
    cert = certify_derivation(mu, d, budget=64).certificate
    if cert is not None and cert.kind == POSITIVE_DERIVATION and is_nice_basis(mu):
        cert = membership_certificate(d, mu, NICE_CONE, None)
    assume(cert is not None and cert.kind in (NICE_CONE, DEGENERATION_CONE))
    ext = find_witness_metric(mu, d, cert)
    assert ext is not None
    assert ext.s == 1 and is_negative_definite(extension_ricci(ext))
    mu2, cert2 = parse_certificate(serialize_certificate(mu, replace(cert, witness=ext)))
    assert cert2.witness == ext
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


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
