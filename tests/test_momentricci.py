import random
from fractions import Fraction as F

import pytest

from nilcone.catalog import catalog_get, catalog_list
from nilcone.derivations import derivation_algebra
from nilcone.liecore import LieBracket
from nilcone.momentricci import (
    MetricExtension,
    extension_ricci,
    is_negative_definite,
    moment_diagonal,
    moment_map,
    nil_ricci,
    norm_squared,
)
from test_derivations import matrices
from test_linalg import bracket, rep_action

HEIS = LieBracket(3, {(1, 2, 3): F(1)})


def _entries(max_dim=11):
    for id_, dim, _ in catalog_list():
        if dim > max_dim:
            continue
        if id_ == "ex1ex2ex5-iii":
            yield catalog_get(id_, t=F(1, 2))
        else:
            yield catalog_get(id_)


def _pair(mu, e):
    # <E.mu, mu> over the canonical pairs
    total = F(0)
    for (i, j), v in rep_action(e, mu).items():
        for k in range(1, mu.dim + 1):
            total += v[k - 1] * mu.c(i, j, k)
    return total


def _random_symmetric(n, rng):
    a = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return tuple(
        tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n)
    )


def test_moment_map_heis():
    m = moment_map(HEIS)
    assert m == ((F(-1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(1)))


def test_moment_map_defining_identity():
    rng = random.Random(7)
    for mu in _entries():
        m = moment_map(mu)
        nsq = norm_squared(mu)
        for _ in range(5):
            e = _random_symmetric(mu.dim, rng)
            tr_me = sum(
                m[a][b] * e[b][a] for a in range(mu.dim) for b in range(mu.dim)
            )
            assert tr_me * nsq == _pair(mu, e)


def test_moment_map_orthogonal_to_derivations():
    for mu in _entries(max_dim=8):
        m = moment_map(mu)
        for e in matrices(derivation_algebra(mu)):
            tr = sum(m[a][b] * e[b][a] for a in range(mu.dim) for b in range(mu.dim))
            assert tr == 0


def test_moment_diagonal_matches_matrix():
    for mu in _entries(max_dim=8):
        m = moment_map(mu)
        assert moment_diagonal(mu) == tuple(m[a][a] for a in range(mu.dim))


def test_moment_diagonal_is_convex_combination():
    t = moment_diagonal(catalog_get("n4nonice"))
    # barycentric coefficients sum to 1, so the trace equals -1
    assert sum(t) == -1


def test_nice_basis_iff_diagonal_moment_map():
    rng = random.Random(11)
    from nilcone.liecore import is_nice_basis

    for mu in _entries(max_dim=8):
        nice = is_nice_basis(mu.keys())
        for _ in range(5):
            h = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(mu.dim))
            m = moment_map(mu.diagonal_act(h))
            diag = all(
                m[a][b] == 0 for a in range(mu.dim) for b in range(mu.dim) if a != b
            )
            if nice:
                assert diag
        if not nice:
            # some scaling must produce an off-diagonal entry
            found = False
            for _ in range(50):
                h = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(mu.dim))
                m = moment_map(mu.diagonal_act(h))
                if any(m[a][b] != 0 for a in range(mu.dim) for b in range(mu.dim) if a != b):
                    found = True
                    break
            assert found


def test_nil_ricci_heis():
    assert nil_ricci(HEIS) == (
        (F(-1, 2), F(0), F(0)), (F(0), F(-1, 2), F(0)), (F(0), F(0), F(1, 2))
    )


def test_nil_ricci_zero_bracket():
    ric = nil_ricci(LieBracket(2, {}))
    assert ric == ((F(0), F(0)), (F(0), F(0)))


def test_nil_ricci_against_orthonormal_frame_formula():
    # independent oracle: Ric(X,Y) = -1/2 sum |[X,ei]| terms + 1/4 adjoint terms
    def oracle(mu):
        n = mu.dim
        basis = [tuple(F(1) if t == s else F(0) for t in range(n)) for s in range(n)]

        def ip(u, v):
            return sum(a * b for a, b in zip(u, v))

        out = []
        for a in range(n):
            row = []
            for b in range(n):
                t1 = -F(1, 2) * sum(
                    ip(bracket(mu, basis[a], basis[i]), bracket(mu, basis[b], basis[i]))
                    for i in range(n)
                )
                t2 = F(1, 4) * sum(
                    ip(bracket(mu, basis[i], basis[j]), basis[a])
                    * ip(bracket(mu, basis[i], basis[j]), basis[b])
                    for i in range(n) for j in range(n)
                )
                row.append(t1 + t2)
            out.append(tuple(row))
        return tuple(out)

    for mu in _entries(max_dim=8):
        assert nil_ricci(mu) == oracle(mu)


def test_extension_ricci_heis_witness():
    ext = MetricExtension(HEIS, (F(1), F(1), F(2)), F(1), (F(1),) * 3)
    ric = extension_ricci(ext)
    diag = tuple(ric[i][i] for i in range(4))
    assert diag == (F(-6), F(-9, 2), F(-9, 2), F(-15, 2))
    assert all(ric[i][j] == 0 for i in range(4) for j in range(4) if i != j)
    assert is_negative_definite(ric)


def test_extension_ricci_scale_four_fails():
    ext = MetricExtension(HEIS, (F(1), F(1), F(2)), F(4), (F(1),) * 3)
    assert not is_negative_definite(extension_ricci(ext))


def test_extension_ricci_abelian():
    n = 3
    ab = LieBracket(n, {})
    ext = MetricExtension(ab, (F(1),) * n, F(1), (F(1),) * n)
    ric = extension_ricci(ext)
    assert ric[0][0] == -n
    for i in range(1, n + 1):
        assert ric[i][i] == -n
    assert is_negative_definite(ric)


def test_metric_extension_validation():
    with pytest.raises(ValueError):
        MetricExtension(HEIS, (F(1), F(1), F(2)), F(0), (F(1),) * 3)
    with pytest.raises(ValueError):
        MetricExtension(HEIS, (F(1), F(1), F(2)), F(1), (F(1), F(-1), F(1)))
    with pytest.raises(ValueError):
        MetricExtension(HEIS, (F(1), F(1), F(2)), F(1), (F(1), F(1), F(1), F(7)))
    from nilcone.errors import NotADerivationError

    with pytest.raises(NotADerivationError):
        MetricExtension(HEIS, (F(1), F(1), F(1)), F(1), (F(1),) * 3)


def test_is_negative_definite_edge_cases():
    assert not is_negative_definite(((F(0),),))
    assert is_negative_definite(((F(-1), F(0)), (F(0), F(-2))))
    # indefinite saddle
    assert not is_negative_definite(((F(-1), F(2)), (F(2), F(-1))))
