"""Property tests of the closed-form kernels against their slow definitions.

The algebras are direct sums of small catalog entries (plus abelian lines),
rescaled by a random positive diagonal h and moved by a random unipotent
upper-triangular g, so that brackets have several terms and the basis is
in general not nice.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations_with_replacement

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcone.catalog import catalog_entry, catalog_get, catalog_list
from nilcone.derivations import (
    EngelResult,
    derivation_algebra,
    is_characteristically_nilpotent,
    rep_action,
)
from nilcone.liecore import LieBracket, act
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
