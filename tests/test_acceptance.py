"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a single PASS/FAIL
line (see conftest).  All assertions are exact rational arithmetic.
"""

import random
from fractions import Fraction as F

import pytest

from nilcone.catalog import catalog_entry, catalog_get, catalog_list
from nilcone.certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    DEGENERATION_CONE,
    NICE_CONE,
    UNKNOWN,
    Certificate,
    certify_derivation,
    certify_nilradical,
    verify_certificate,
)
from nilcone.cli import main
from nilcone.derivations import derivation_algebra, diagonal_derivations
from nilcone.liecore import LieBracket, is_nice_basis
from nilcone.momentricci import (
    MetricExtension,
    extension_ricci,
    is_negative_definite,
    moment_map,
    norm_squared,
)
from nilcone.polytope import (
    is_face,
    project_certificate_cone,
    strict_cone_membership,
    weight_set,
)
from test_derivations import matrices
from test_linalg import rep_action
from test_polytope import evaluate_cone, limit_bracket

HEIS = LieBracket(3, {(1, 2, 3): F(1)})


def _all_entries():
    for id_, _, _ in catalog_list():
        if id_ == "ex1ex2ex5-iii":
            yield id_, catalog_get(id_, t=F(1, 2))
        else:
            yield id_, catalog_get(id_)


def _rand_frac(rng, lo=-9, hi=9):
    return F(rng.randint(lo, hi), rng.randint(1, 9))


def _cone_lines(capsys, algebra):
    main(["cone", algebra])
    out = capsys.readouterr().out
    return [ln.split(": ", 1)[1] for ln in out.splitlines() if ln.startswith("inequality")]


@pytest.mark.criterion(1, "heisenberg cone")
def test_criterion_01(capsys):
    assert set(_cone_lines(capsys, "heis3")) == {"2d1+d2 > 0", "d1+2d2 > 0"}


@pytest.mark.criterion(2, "dim 4 nice cone")
def test_criterion_02(capsys):
    assert set(_cone_lines(capsys, "n4nice")) == {"d1+d2 > 0", "2d1+d2 > 0"}


@pytest.mark.criterion(3, "dim 4 non-nice vertex degeneration")
def test_criterion_03():
    mu = catalog_get("n4nonice")
    dsp = diagonal_derivations(mu)
    assert dsp.basis == ((F(0), F(1), F(1), F(1)),)

    d = (F(0), F(1), F(1), F(1))
    v = certify_derivation(mu, d)
    assert v.status == CERTIFIED_RN
    assert v.certificate.kind == DEGENERATION_CONE
    ok, msg = verify_certificate(mu, v.certificate)
    assert ok, msg

    # the vertex {(1,2,4)} also certifies d, and its cone is all of d > 0
    vertex = frozenset({(1, 2, 4)})
    face, alpha = is_face(vertex, weight_set(mu))
    assert face
    lam = limit_bracket(mu, vertex)
    slack, coefficients = strict_cone_membership(d, weight_set(lam))
    cert = Certificate(DEGENERATION_CONE, d, (alpha, vertex), coefficients, slack)
    ok, msg = verify_certificate(mu, cert)
    assert ok, msg
    cone = project_certificate_cone(weight_set(lam), dsp)
    assert cone.inequalities == ((1,),)


@pytest.mark.criterion(4, "dim 7 algebras certify with the listed derivations")
def test_criterion_04():
    for id_ in ("dim7-alg1", "dim7-alg2", "dim7-alg3", "dim7-alg4"):
        mu = catalog_get(id_)
        d = catalog_entry(id_).derivations[0]
        v = certify_derivation(mu, d)
        assert v.status == CERTIFIED_RN, id_
        ok, msg = verify_certificate(mu, v.certificate)
        assert ok, (id_, msg)

    mu = catalog_get("dim7-alg1")
    d = catalog_entry("dim7-alg1").derivations[0]
    alpha = tuple(map(F, (-1, 0, -2, -1, -2, -3, -4)))
    j_set = frozenset(mu.keys()) - {(2, 3, 7)}
    pinned = Certificate(
        DEGENERATION_CONE, d, (alpha, j_set),
        {(1, 2, 4): F(1, 2), (2, 3, 5): F(1, 2)}, F(1, 2),
    )
    ok, msg = verify_certificate(mu, pinned)
    assert ok, msg


@pytest.mark.criterion(5, "dim 10 nice-cone certificate with listed coefficients")
def test_criterion_05():
    mu = catalog_get("ex9")
    d = catalog_entry("ex9").derivations[0]
    assert d[:2] == (F(1), F(3)) and d[6] == F(-1)

    v = certify_derivation(mu, d)
    assert v.status == CERTIFIED_RN
    assert v.certificate.kind == NICE_CONE
    ok, msg = verify_certificate(mu, v.certificate)
    assert ok, msg

    coeffs = {(1, 8, 10): F(1, 6), (2, 7, 9): F(2, 3), (7, 9, 10): F(2, 3)}
    pinned = Certificate(NICE_CONE, d, None, coeffs, F(1, 6))
    ok, msg = verify_certificate(mu, pinned)
    assert ok, msg
    # entries of the combination on the second block of coordinates
    m = [F(0)] * mu.dim
    for (i, j, k), a in coeffs.items():
        m[i - 1] -= a
        m[j - 1] -= a
        m[k - 1] += a
    assert tuple(m[6:]) == (F(-4, 3), F(-1, 6), F(0), F(5, 6))


@pytest.mark.criterion(6, "obstruction verdicts")
def test_criterion_06():
    for id_ in ("ex3", "ex10"):
        v = certify_nilradical(catalog_get(id_))
        assert v.status == CERTIFIED_NOT_RN, id_
        assert "traceless" in v.obstruction, id_
    for id_ in ("ex4-1", "ex4-2"):
        v = certify_nilradical(catalog_get(id_))
        assert v.status == CERTIFIED_NOT_RN, id_
        assert "nilpotent" in v.obstruction, id_


@pytest.mark.criterion(7, "moment map defining identity")
def test_criterion_07():
    rng = random.Random(2024)
    m3 = moment_map(HEIS)
    assert m3 == ((F(-1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(1)))
    for id_, mu in _all_entries():
        n = mu.dim
        m = moment_map(mu)
        nsq = norm_squared(mu)
        for _ in range(100):
            sym = [[_rand_frac(rng) for _ in range(n)] for _ in range(n)]
            e = tuple(tuple(sym[i][j] + sym[j][i] for j in range(n)) for i in range(n))
            tr_me = sum(m[a][b] * e[b][a] for a in range(n) for b in range(n))
            pair = F(0)
            for (i, j), vec in rep_action(e, mu).items():
                for k in range(1, n + 1):
                    pair += vec[k - 1] * mu.c(i, j, k)
            assert tr_me * nsq == pair, id_


@pytest.mark.criterion(8, "moment map orthogonal to derivations")
def test_criterion_08():
    for id_, mu in _all_entries():
        m = moment_map(mu)
        n = mu.dim
        for e in matrices(derivation_algebra(mu)):
            assert sum(m[a][b] * e[b][a] for a in range(n) for b in range(n)) == 0, id_


@pytest.mark.criterion(9, "nice basis equals diagonal moment map under scaling")
def test_criterion_09():
    rng = random.Random(99)
    for id_, mu in _all_entries():
        nice = is_nice_basis(mu.keys())
        n = mu.dim
        seen_offdiag = False
        for _ in range(50):
            h = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            m = moment_map(mu.diagonal_act(h))
            offdiag = any(m[a][b] != 0 for a in range(n) for b in range(n) if a != b)
            seen_offdiag = seen_offdiag or offdiag
            if nice:
                assert not offdiag, id_
        if not nice:
            assert seen_offdiag, id_


@pytest.mark.criterion(10, "explicit heisenberg witness metric")
def test_criterion_10():
    ext = MetricExtension(HEIS, (F(1), F(1), F(2)), F(1), (F(1),) * 3)
    ric = extension_ricci(ext)
    assert tuple(ric[i][i] for i in range(4)) == (F(-6), F(-9, 2), F(-9, 2), F(-15, 2))
    assert all(ric[i][j] == 0 for i in range(4) for j in range(4) if i != j)
    assert is_negative_definite(ric)
    bad = extension_ricci(MetricExtension(HEIS, (F(1), F(1), F(2)), F(4), (F(1),) * 3))
    assert not is_negative_definite(bad)


@pytest.mark.criterion(11, "dim 5 non-nice sampling law")
def test_criterion_11():
    rng = random.Random(5)
    for _ in range(100):
        x = F(rng.randint(1, 9), rng.randint(1, 9))
        y = F(rng.randint(1, 9), rng.randint(1, 9))
        z = F(rng.randint(1, 9), rng.randint(1, 9))
        w = x * y / z
        mu = LieBracket(5, {(1, 2, 3): x, (1, 2, 4): y, (1, 3, 5): z, (1, 4, 5): w})
        m = moment_map(mu)
        assert all(m[a][b] == 0 for a in range(5) for b in range(5) if a != b)
        nsq = norm_squared(mu)
        a, b, c, d = (x * x / nsq, y * y / nsq, z * z / nsq, w * w / nsq)
        assert a + b + c + d == 1
        assert a * b == c * d
        # the diagonal really is the barycentric combination of the weights
        expected = [F(0)] * 5
        for i, j, k, t in ((1, 2, 3, a), (1, 2, 4, b), (1, 3, 5, c), (1, 4, 5, d)):
            expected[i - 1] -= t
            expected[j - 1] -= t
            expected[k - 1] += t
        assert tuple(m[r][r] for r in range(5)) == tuple(expected)


@pytest.mark.criterion(12, "projection agrees with direct membership")
def test_criterion_12():
    rng = random.Random(12)
    for id_ in ("heis3", "n4nice", "dim7-alg1", "dim7-alg2", "dim7-alg3", "dim7-alg4"):
        mu = catalog_get(id_)
        dsp = diagonal_derivations(mu)
        w = weight_set(mu)
        cone = project_certificate_cone(w, dsp)
        for _ in range(200):
            t = tuple(_rand_frac(rng, -6, 6) for _ in range(dsp.dim))
            direct = strict_cone_membership(dsp.point(t), w) is not None
            assert evaluate_cone(cone, t) == direct, (id_, t)


@pytest.mark.criterion(13, "known unknown stays unknown")
def test_criterion_13():
    v = certify_derivation(catalog_get("n4nice"), (F(1), F(-1), F(0), F(1)))
    assert v.status == UNKNOWN
    assert v.status != CERTIFIED_RN
