from fractions import Fraction as F

import pytest

from nilcone.catalog import catalog_get
from nilcone.derivations import (
    INFEASIBLE,
    Analysis,
    derivation_algebra,
    diagonal_derivations,
    engel_flag,
    is_diagonal_derivation,
    require_diagonal_derivation,
    solve_phi,
)
from nilcone.errors import NotADerivationError
from nilcone.liecore import LieBracket
from test_linalg import dense, is_derivation

HEIS = LieBracket(3, {(1, 2, 3): F(1)})


def matrices(der):
    """Der(mu) as the rational n x n matrices of the nullspace basis:
    each integer derivation divided by its entry at its first free unknown."""
    n = der.dim_algebra
    out = []
    for e in der.basis:
        flat = dense({r * n + c: x for c, col in e.items() for r, x in col.items()}, n * n)
        out.append(tuple(flat[p * n:(p + 1) * n] for p in range(n)))
    return tuple(out)


def _engel(mu):
    return engel_flag(derivation_algebra(mu))


def _phi(mu):
    return solve_phi(Analysis(mu))


def _diag(*xs):
    n = len(xs)
    return tuple(tuple(F(xs[i]) if i == j else F(0) for j in range(n)) for i in range(n))


def test_derivation_algebra_heis():
    der = derivation_algebra(HEIS)
    assert len(der) == 6
    for e in der.basis:
        assert all(type(x) is int and x for col in e.values() for x in col.values())
    for e in matrices(der):
        assert is_derivation(e, HEIS)


def test_derivation_algebra_abelian_is_gl():
    ab = LieBracket(2, {})
    assert len(derivation_algebra(ab)) == 4


def test_diagonal_derivations_heis():
    dsp = diagonal_derivations(HEIS)
    assert dsp.basis == ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
    assert dsp.point((F(2), F(3))) == (F(2), F(3), F(5))


def test_diagonal_derivations_n4nonice():
    mu = catalog_get("n4nonice")
    assert diagonal_derivations(mu).basis == ((F(0), F(1), F(1), F(1)),)


def test_is_diagonal_derivation():
    assert is_diagonal_derivation((F(1), F(1), F(2)), HEIS)
    assert not is_diagonal_derivation((F(1), F(1), F(1)), HEIS)
    assert not is_diagonal_derivation((F(1), F(1), F(2), F(5)), HEIS)
    assert not is_diagonal_derivation((F(1), F(1)), HEIS)
    with pytest.raises(NotADerivationError):
        require_diagonal_derivation((F(1), F(1), F(1)), HEIS)


def test_non_diagonal_derivation_check():
    # strictly upper triangular shift is a derivation of the abelian algebra
    e = ((F(0), F(1)), (F(0), F(0)))
    assert is_derivation(e, LieBracket(2, {}))
    assert not is_derivation(_diag(1, 1, 1), HEIS)


def test_traceless_examples():
    assert Analysis(catalog_get("ex3")).traceless
    assert Analysis(catalog_get("ex10")).traceless
    assert not Analysis(HEIS).traceless


def test_characteristically_nilpotent_positive():
    res = _engel(catalog_get("ex4-1"))
    assert res.is_nilpotent
    assert res.flag_dims[-1] == 12


def test_characteristically_nilpotent_negative():
    res = _engel(HEIS)
    assert not res.is_nilpotent
    # diag(1, 1, 2) is an invertible derivation: no common kernel at stage 0
    assert res.witness_stage == 0
    assert res.flag_dims == ()


def test_ex10_complex_rank_one():
    # traceless yet not characteristically nilpotent
    mu = catalog_get("ex10")
    assert not _engel(mu).is_nilpotent


def test_abelian_is_not_char_nilpotent():
    assert not _engel(LieBracket(2, {})).is_nilpotent


def test_phi_heis():
    phi = _phi(HEIS)
    assert phi == (F(2, 3), F(2, 3), F(4, 3))


def test_phi_trace_pairing():
    mu = catalog_get("n4nice")
    phi = _phi(mu)
    for e in matrices(derivation_algebra(mu)):
        tr_e = sum(e[r][r] for r in range(mu.dim))
        tr_phi_e = sum(phi[r] * e[r][r] for r in range(mu.dim))
        assert tr_phi_e == tr_e


def test_phi_zero_when_all_traceless():
    assert _phi(catalog_get("ex4-1")) in (
        (F(0),) * 12, INFEASIBLE,
    )


def test_phi_ex10_infeasible_on_diagonal():
    # no diagonal derivations but nonzero traces cannot happen; ex10 has
    # zero diagonal space and all traces zero, so phi = 0 works
    assert _phi(catalog_get("ex10")) == (F(0),) * 11
