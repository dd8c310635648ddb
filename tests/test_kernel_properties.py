"""Property tests of the closed-form kernels against their slow definitions.

The algebras are direct sums of small catalog entries (plus abelian lines),
rescaled by a random positive diagonal h and moved by a random unipotent
upper-triangular g, so that brackets have several terms and the basis is
in general not nice.  The Jacobi, central-series and center kernels are
also run on random skew brackets, most of which break Jacobi and many of
which are not nilpotent.

The ``reference_*`` functions are the dense definitions the sparse kernels
replaced: Der(mu), the lower central series, the Jacobi test and the
center, each built from ``mu.c`` or ``mu.bracket`` over full index ranges.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations_with_replacement

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcone.catalog import catalog_entry, catalog_get, catalog_list
from nilcone.derivations import (
    DerivationBasis,
    EngelResult,
    derivation_algebra,
    is_characteristically_nilpotent,
    rep_action,
)
from nilcone.liecore import (
    LieBracket,
    SubspaceChain,
    act,
    center,
    check_jacobi,
    lower_central_series,
)
from nilcone.linalg import ONE, ZERO, Echelon, dense_row, mat_inv, mat_mul, nullspace
from nilcone.momentricci import moment_map, nil_ricci, norm_squared

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
def nilpotent_algebras(draw) -> LieBracket:
    mu = draw(st.sampled_from(SUMS))
    n = mu.dim
    h = draw(st.lists(st.fractions(F(1, 3), F(3), max_denominator=3), min_size=n, max_size=n))
    upper = iter(draw(st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2,
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
