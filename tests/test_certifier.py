import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from nilcone import certifier, derivations, liecore, polytope
from nilcone.catalog import FAMILY_SAMPLES, catalog_entry, catalog_get, catalog_list
from nilcone.certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    DEGENERATION_CONE,
    NICE_CONE,
    NOT_POSITIVE_ON_CENTER,
    POSITIVE_DERIVATION,
    SCOPE_ALGEBRA,
    SCOPE_DERIVATION,
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
from nilcone.errors import InputError, InvariantViolation, NotADerivationError, ParseError
from nilcone.liecore import LieBracket
from nilcone.linalg import nullspace
from nilcone.momentricci import MetricExtension, extension_ricci, is_negative_definite
from nilcone.polytope import iter_faces, strict_cone_membership, weight_set
from test_golden import _verdict
from test_golden_cone import _golden_sections
from test_golden_kernels import CASES
from test_kernel_properties import reference_solve_positive_definite
from test_liecore import direct_sum
from test_polytope import limit_bracket

HEIS = LieBracket(3, {(1, 2, 3): F(1)})


def _nice_cone_cert(mu, d):
    slack, coefficients = strict_cone_membership(d, weight_set(mu))
    return Certificate(NICE_CONE, tuple(d), None, coefficients, slack)


def test_necessary_condition_passes():
    assert necessary_condition(HEIS, (F(1), F(1), F(2))) == (True, None)


def test_necessary_condition_center_failure():
    mu = catalog_get("n4nice")
    # derivation (-1, 2, 1, 0) vanishes on the one dimensional center
    ok, reason = necessary_condition(mu, (F(-1), F(2), F(1), F(0)))
    assert not ok and "center" in reason


def test_positive_derivation_shortcut():
    v = certify_derivation(HEIS, (F(1), F(1), F(2)))
    assert v.status == CERTIFIED_RN
    assert v.scope == SCOPE_DERIVATION
    assert v.certificate.kind == POSITIVE_DERIVATION
    ok, _ = verify_certificate(HEIS, v.certificate)
    assert ok


def test_nonpositive_trace_rejected():
    with pytest.raises(ValueError):
        certify_derivation(HEIS, (F(-1), F(-1), F(-2)))


def test_center_failure_gives_derivation_scope_negative():
    mu = catalog_get("n4nice")
    v = certify_derivation(mu, (F(-1), F(2), F(1), F(0)))
    assert v.status == CERTIFIED_NOT_RN
    assert v.scope == SCOPE_DERIVATION
    assert "necessary condition" in v.obstruction


def test_nice_cone_unknown_outside():
    mu = catalog_get("n4nice")
    v = certify_derivation(mu, (F(1), F(-1), F(0), F(1)))
    assert v.status == UNKNOWN


def test_degeneration_certificate_alg1():
    mu = catalog_get("dim7-alg1")
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1)))
    v = certify_derivation(mu, d)
    assert v.status == CERTIFIED_RN
    assert v.certificate.kind == DEGENERATION_CONE
    _, j_set = v.certificate.degeneration
    assert set(mu.keys()) - j_set == {(2, 3, 7)}
    ok, msg = verify_certificate(mu, v.certificate)
    assert ok, msg


def test_face_budget_counts_only_nice_subsets():
    # the first face candidate of n4nonice keeps a non-nice bracket and
    # never reaches an is_face LP, so it must not use up the budget
    mu = catalog_get("n4nonice")
    d = tuple(map(F, (0, 1, 1, 1)))
    v = certify_derivation(mu, d, budget=1)
    assert v.status == CERTIFIED_RN
    assert v.certificate.kind == DEGENERATION_CONE
    ok, msg = verify_certificate(mu, v.certificate)
    assert ok, msg
    v = certify_derivation(mu, d, budget=0)
    assert v.status == UNKNOWN and "face budget exhausted" in v.notes


def test_pinned_alg1_certificate_verifies():
    mu = catalog_get("dim7-alg1")
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1)))
    alpha = tuple(map(F, (-1, 0, -2, -1, -2, -3, -4)))
    j_set = frozenset(mu.keys()) - {(2, 3, 7)}
    cert = Certificate(
        DEGENERATION_CONE, d, (alpha, j_set),
        {(1, 2, 4): F(1, 2), (2, 3, 5): F(1, 2)}, F(1, 2),
    )
    ok, msg = verify_certificate(mu, cert)
    assert ok and "slack 1/2" in msg


def test_scaling_monotonicity():
    # r D stays certified and r a witnesses it with slack r * old slack
    mu = catalog_get("dim7-alg1")
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1)))
    base = certify_derivation(mu, d).certificate
    for r in (F(2), F(1, 3), F(7, 5)):
        scaled = Certificate(
            base.kind,
            tuple(r * x for x in d),
            base.degeneration,
            {k: r * a for k, a in base.coefficients.items()},
            r * base.slack,
        )
        ok, msg = verify_certificate(mu, scaled)
        assert ok, msg
        v = certify_derivation(mu, scaled.d)
        assert v.status == CERTIFIED_RN


def test_verify_rejects_tampering():
    mu = catalog_get("dim7-alg1")
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1)))
    good = certify_derivation(mu, d).certificate
    inflated = Certificate(
        good.kind, good.d, good.degeneration, good.coefficients, good.slack + 1
    )
    ok, msg = verify_certificate(mu, inflated)
    assert not ok and "slack" in msg
    alpha, j_set = good.degeneration
    bad_alpha = (tuple(a + 1 for a in alpha), j_set)
    ok, msg = verify_certificate(
        mu, Certificate(good.kind, good.d, bad_alpha, good.coefficients, good.slack)
    )
    assert not ok and "alpha" in msg


@pytest.mark.parametrize("slack,reason", [
    (F(0), "claimed slack 0 is not positive"),
    (F(-1), "claimed slack -1 is not positive"),
    (F(5), "claimed slack 5 exceeds the least entry 1"),
    (F(3, 2), "claimed slack 3/2 exceeds the least entry 1"),
])
def test_verify_names_a_bad_positive_derivation_slack(slack, reason):
    # every entry of D = (1, 1, 2) is positive: only the slack is wrong
    cert = certify_nilradical(HEIS).certificate
    assert cert.kind == POSITIVE_DERIVATION and cert.d == (F(1), F(1), F(2))
    assert verify_certificate(HEIS, replace(cert, slack=slack)) == (False, reason)


def test_verify_names_a_bad_cone_slack():
    # the coefficient 2 of D = (-1, 5, 4) leaves slack 1
    cert = certify_derivation(HEIS, (F(-1), F(5), F(4))).certificate
    assert (cert.kind, cert.slack) == (NICE_CONE, F(1))
    assert verify_certificate(HEIS, replace(cert, slack=F(0))) == (
        False, "claimed slack 0 is not positive")
    assert verify_certificate(HEIS, replace(cert, slack=F(2))) == (
        False, "claimed slack 2 exceeds actual 1")


def test_verify_rejects_foreign_coefficients():
    cert = _nice_cone_cert(HEIS, (F(1), F(1), F(2)))
    tampered = Certificate(
        cert.kind, cert.d, None, {(1, 2, 3): F(1, 2), (9, 9, 9): F(1)}, cert.slack
    )
    ok, msg = verify_certificate(HEIS, tampered)
    assert not ok and "absent" in msg


def test_verify_rejects_unknown_kind():
    cert = Certificate("Bogus", (F(1), F(1), F(2)))
    ok, msg = verify_certificate(HEIS, cert)
    assert not ok and "Bogus" in msg


@pytest.mark.parametrize("kind,degeneration,reason", [
    (DEGENERATION_CONE, ((F(0),) * 4, frozenset({(1, 2, 3), (1, 2, 4), (1, 3, 4)})),
     "degenerate bracket is not nice"),
    (DEGENERATION_CONE, ((F(0),) * 4, frozenset({(1, 3, 2)})), "not a subset"),
    (NICE_CONE, None, "basis is not nice"),
], ids=["every-triple-kept", "foreign-triple", "nice-cone"])
def test_verify_rejects_a_limit_bracket_that_is_not_nice(kind, degeneration, reason):
    # n4nonice is not nice, and alpha = 0 vanishes on every kept triple
    mu = catalog_get("n4nonice")
    cert = Certificate(kind, tuple(map(F, (0, 1, 1, 1))), degeneration, {}, F(1, 2))
    ok, msg = verify_certificate(mu, cert)
    assert not ok and reason in msg, msg


def test_search_verify_and_witness_build_no_bracket(monkeypatch):
    """The face walk, verify and the witness metric read every lambda_J off
    mu's index set, so no LieBracket is built (its constructor normalizes
    the constants)."""
    alg1 = catalog_get("dim7-alg1")
    twice = direct_sum([alg1, alg1])
    d = catalog_entry("dim7-alg1").derivations[0]
    calls = []
    normalize = liecore._normalize_constants
    monkeypatch.setattr(liecore, "_normalize_constants",
                        lambda *args: calls.append(args) or normalize(*args))
    for mu, v in [(alg1, certify_derivation(alg1, d)), (twice, certify_nilradical(twice))]:
        cert = v.certificate
        assert cert.kind == DEGENERATION_CONE
        ok, msg = verify_certificate(mu, cert)
        assert ok, msg
        assert find_witness_metric(mu, cert.d, cert) is not None
    assert calls == []


def test_verify_rejects_non_derivation():
    cert = Certificate(POSITIVE_DERIVATION, (F(1), F(1), F(1)), slack=F(1))
    ok, msg = verify_certificate(HEIS, cert)
    assert not ok and "derivation" in msg


def test_vectors_of_the_wrong_length_are_rejected():
    # a trailing entry satisfies no bracket equation, so only the length rules it out
    cert = Certificate(POSITIVE_DERIVATION, tuple(map(F, (1, 1, 2, 5))), slack=F(1))
    ok, msg = verify_certificate(HEIS, cert)
    assert not ok and "derivation" in msg
    with pytest.raises(NotADerivationError):
        certify_derivation(HEIS, (F(1), F(1)))
    with pytest.raises(InputError):
        MetricExtension(HEIS, (F(1), F(1), F(2)), F(1), tuple(map(F, (1, 1, 1, 7))))


def test_negative_face_budget_is_rejected_before_any_work():
    # heis3's positive derivation would certify without a face LP
    with pytest.raises(InputError):
        certify_derivation(HEIS, (F(1), F(1), F(2)), budget=-1)
    with pytest.raises(InputError):
        certify_nilradical(HEIS, budget=-1)
    with pytest.raises(InputError):
        next(iter_faces(HEIS, -1))


def test_witness_metric_heis():
    cert = _nice_cone_cert(HEIS, (F(1), F(1), F(2)))
    ext = find_witness_metric(HEIS, cert.d, cert, budget=50)
    assert ext is not None
    assert ext.s == 1 and ext.h == (F(49, 55), F(49, 55), F(64, 57))
    assert is_negative_definite(extension_ricci(ext))


def _scaled(id_, t):
    """A catalog algebra with t times its first listed derivation."""
    return catalog_get(id_), tuple(t * x for x in catalog_entry(id_).derivations[0])


# (s, h) exactly as find_witness_metric returns them at its default budget
PINNED_WITNESS = [
    ("ex9", _scaled("ex9", 1), 1,
     "29/30 37/41 48/55 43/51 22/27 26/33 37/62 15/26 84/17 62/21"),
    ("m0(8) a=7", (LieBracket(8, {(1, i, i + 1): F(1) for i in range(2, 8)}),
                   (F(-1), F(7), F(6), F(5), F(4), F(3), F(2), F(1))), 1,
     "17/31 16/61 94/63 66/49 17/14 58/53 63/64 8/9"),
    ("n4nonice t=2", _scaled("n4nonice", 2), 1, "3/10 148/63 39/16 62/49"),
    ("dim7-alg1 t=3", _scaled("dim7-alg1", 3), 1, "21/29 9/25 9/14 10/7 19/15 64/57 1"),
    ("dim7-alg2 t=3", _scaled("dim7-alg2", 3), 1, "11/16 22/61 31/51 19/14 60/47 6/5 26/23"),
    ("dim7-alg3 t=3", _scaled("dim7-alg3", 3), 1, "45/106 57/116 46/29 52/45 19/17 38/39 31/30"),
    ("dim7-alg4 t=3", _scaled("dim7-alg4", 3), 1, "11/24 57/118 3/2 16/15 44/43 9/8 30/29"),
    ("heis3 positive", (HEIS, (F(1, 100), F(1, 100), F(1, 50))), F(1, 32), "1 1 1"),
]


@pytest.mark.parametrize("case,s,h", [c[1:] for c in PINNED_WITNESS],
                         ids=[c[0] for c in PINNED_WITNESS])
def test_witness_metric_is_pinned(case, s, h):
    mu, d = case
    cert = certify_derivation(mu, d).certificate
    ext = find_witness_metric(mu, d, cert)
    assert ext.s == s and " ".join(map(str, ext.h)) == h
    assert all(type(x) is F for x in (ext.s, *ext.h))


def test_witness_metric_rejects_a_derivation_other_than_the_certificates():
    cert = Certificate(POSITIVE_DERIVATION, (F(1), F(1), F(2)), slack=F(1))
    with pytest.raises(InputError):
        find_witness_metric(HEIS, (2, 2, 4), cert)
    with pytest.raises(InputError):  # D is not > 0: the halving of s never ended
        find_witness_metric(HEIS, (-1, 5, 4), cert)
    assert find_witness_metric(HEIS, [1, 1, 2], cert).s == 1


@pytest.mark.parametrize("kind, d", [
    (NICE_CONE, (F(-1), F(1), F(1))),  # no candidate passes: only the check of d raises
    (POSITIVE_DERIVATION, (F(1), F(1), F(1))),
])
def test_witness_metric_refuses_a_certificate_on_a_non_derivation(kind, d):
    # the search tests its candidates unchecked, so it checks d itself
    cert = Certificate(kind, d, None, {(1, 2, 3): F(1)} if kind == NICE_CONE else {}, F(1))
    with pytest.raises(NotADerivationError):
        find_witness_metric(HEIS, d, cert)


@pytest.mark.parametrize("scale", [F(1, 10**400), F(10**400)], ids=["10^-400", "10^400"])
def test_witness_metric_for_a_derivation_beyond_float_range(scale):
    d = tuple(scale * x for x in (F(-1), F(5), F(4)))
    cert = certify_derivation(HEIS, d).certificate
    ext = find_witness_metric(HEIS, d, cert)
    # the slack is capped at 1, so at 10^400 the metric is that of D / c,
    # c = 2^1332 the least power of two >= max |d| = 5 10^400, with s = c
    assert ext.s == (2 ** 1332 if scale > 1 else 1)
    ok, msg = verify_certificate(HEIS, replace(cert, witness=ext))
    assert ok, msg


def test_witness_metric_for_a_cone_certificate_whose_membership_fails():
    # a certificate built by hand, D outside its cone: no metric, and no crash
    cert = Certificate(NICE_CONE, (F(1), F(-5), F(-4)), None, {(1, 2, 3): F(10**9)}, F(1))
    assert find_witness_metric(HEIS, cert.d, cert) is None


def test_positive_derivation_witness_round_trips_through_verify():
    # s = 1 fails for so small a D; halving reaches a negative definite Ricci
    d = (F(1, 100), F(1, 100), F(1, 50))
    cert = certify_derivation(HEIS, d).certificate
    assert cert.kind == POSITIVE_DERIVATION
    ext = find_witness_metric(HEIS, d, cert, budget=0)
    assert ext.s == F(1, 32) and ext.h == (1, 1, 1)
    assert not is_negative_definite(extension_ricci(replace(ext, s=F(1, 16))))
    mu2, cert2 = parse_certificate(serialize_certificate(HEIS, replace(cert, witness=ext)))
    assert cert2.witness == ext
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


def test_serialization_roundtrip():
    mu = catalog_get("dim7-alg1")
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1)))
    v = certify_derivation(mu, d, budget=50)
    cert = replace(v.certificate, witness=find_witness_metric(mu, d, v.certificate))
    assert cert.witness is not None
    text = serialize_certificate(mu, cert)
    mu2, cert2 = parse_certificate(text)
    assert mu2 == mu
    assert cert2 == cert
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


@pytest.mark.parametrize("label,id_,params", CASES, ids=[c[0] for c in CASES])
def test_every_catalog_certified_rn_gets_a_verified_metric(label, id_, params):
    """Algebra scope and every listed derivation with positive trace."""
    mu = catalog_get(id_, **params)
    verdicts = [certify_nilradical(mu)] + [
        certify_derivation(mu, d) for d in catalog_entry(id_).derivations if sum(d) > 0]
    for v in verdicts:
        if v.status != CERTIFIED_RN:
            continue
        ext = find_witness_metric(mu, v.d, v.certificate)
        assert ext is not None
        mu2, cert2 = parse_certificate(
            serialize_certificate(mu, replace(v.certificate, witness=ext)))
        ok, msg = verify_certificate(mu2, cert2)
        assert ok and cert2.witness == ext, msg


def _catalog_cone_certificates(kinds=(NICE_CONE, DEGENERATION_CONE)):
    """(mu, certificate) for every catalog CertifiedRN verdict of a cone kind,
    at algebra scope and for every listed derivation with positive trace."""
    for _, id_, params in CASES:
        mu = catalog_get(id_, **params)
        for v in [certify_nilradical(mu)] + [
                certify_derivation(mu, d) for d in catalog_entry(id_).derivations if sum(d) > 0]:
            if v.status == CERTIFIED_RN and v.certificate.kind in kinds:
                yield mu, v.certificate


def _independent_weights(mu) -> bool:
    weights = list(weight_set(mu).values())
    rows = [{r: x for r, x in enumerate(wt) if x} for wt in weights]
    return mu.dim - len(nullspace(rows, mu.dim)) == len(weights)


def _m0(n):
    """Vergne's filiform m_0(n) with its diagonal derivation (-1, a, a - 1, ..., a + 2 - n)."""
    mu = LieBracket(n, {(1, i, i + 1): F(1) for i in range(2, n)})
    return [(mu, (F(-1),) + tuple(F(a + 2 - i) for i in range(2, n + 1)))
            for a in range(n + 1, n + 5)]


def test_least_squares_start_is_the_metric_for_independent_weights():
    # with independent weights every term's gradient vanishes at the start,
    # so no Newton step is needed
    listed = [(HEIS, (F(-1), F(5), F(4))), (catalog_get("ex9"), catalog_entry("ex9").derivations[0])]
    listed += [case for n in range(5, 11) for case in _m0(n)]
    certs = [(mu, certify_derivation(mu, d).certificate) for mu, d in listed]
    assert all(cert.kind == NICE_CONE and _independent_weights(mu) for mu, cert in certs)
    certs += [(mu, cert) for mu, cert in _catalog_cone_certificates((NICE_CONE,))
              if _independent_weights(mu)]
    assert len(certs) == 28  # heis3, ex9, 24 of m_0(n), ex9 at both scopes in the catalog
    for mu, cert in certs:
        ext = find_witness_metric(mu, cert.d, cert, budget=0)
        assert ext is not None and is_negative_definite(extension_ricci(ext)), cert.d


def _newton_from_zero(mu, cert, budget=400):
    """Oracle: log h as first computed, by damped Newton from x = 0 on the
    terms (F, c^2, b) in floats; returns x, the weights and the tolerance."""
    lam = mu if cert.degeneration is None else limit_bracket(mu, cert.degeneration[1])
    zeros = sum(1 for key in lam.keys() if not cert.coefficients.get(key))
    eps = cert.slack / (4 * zeros) if zeros else F(0)
    trd = float(sum(cert.d))
    terms = [([(r, float(v)) for r, v in enumerate(wt) if v],
              float(lam.constants[key]) ** 2,
              2 * trd * float(cert.coefficients.get(key) or eps))
             for key, wt in weight_set(lam).items()]
    tol, n = 1e-6 * float(cert.slack) * trd, mu.dim
    weights = [f for f, _, _ in terms]

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
        step = reference_solve_positive_definite(hess, [-g for g in grad])
        slope, f0, t = sum(g * s for g, s in zip(grad, step)), value(x), 1.0
        while value(trial := [xr + t * sr for xr, sr in zip(x, step)]) > f0 + t * slope / 4:
            t /= 2
            if t < 1e-12:
                return x, weights, tol
        x = trial
    return x, weights, tol


def test_least_squares_start_reaches_the_oracle_minimizer(monkeypatch):
    # the minimizer is unique in the coordinates <F_w, x>, though not in x
    points = []
    solve = certifier._newton_log_metric
    monkeypatch.setattr(certifier, "_newton_log_metric",
                        lambda *args: points.append(solve(*args)) or points[-1])
    certs = list(_catalog_cone_certificates())
    assert len(certs) == 12
    for mu, cert in certs:
        points.clear()
        assert find_witness_metric(mu, cert.d, cert) is not None
        want, weights, tol = _newton_from_zero(mu, cert)
        for f in weights:
            got = sum(v * points[0][r] for r, v in f)
            assert abs(got - sum(v * want[r] for r, v in f)) <= tol, (cert.d, f)


@pytest.mark.parametrize("text", [
    "kind NiceCone\nend",                               # missing header
    "certificate\nkind NiceCone\ndim 3\nbracket 1 2 3 1\nend",  # no derivation
    "certificate\nkind X\ndim 3\nbracket 1 2 3 1\nderivation 1 1\nend",  # short d
    "certificate\nkind X\ndim 3\nbracket 1 2 3 1\nderivation 1 1 2\nwhat 1\nend",
    "certificate\nkind X\ndim 3\nbracket 1 2 3 1\nderivation 1 1 2\nalpha 0 0 -1\nend",
])
def test_parse_certificate_errors(text):
    with pytest.raises(ParseError):
        parse_certificate(text)


def test_nilradical_heis():
    v = certify_nilradical(HEIS)
    assert v.status == CERTIFIED_RN
    assert v.scope == SCOPE_ALGEBRA


def test_nilradical_n4nonice_uses_degeneration():
    v = certify_nilradical(catalog_get("n4nonice"))
    assert v.status == CERTIFIED_RN
    assert v.certificate.kind == DEGENERATION_CONE
    # the whole d-space is a single ray through (0, 1, 1, 1)
    x = v.d[1]
    assert v.d == (F(0), x, x, x) and x > 0


def _nilradical_counting_der_mu(monkeypatch, id_):
    """certify_nilradical on a catalog entry, with the number of full Der(mu)
    solves and of Engel flags it made."""
    calls = []
    solve, flag = derivations._derivation_nullspace, derivations.engel_flag

    def counted(mu):
        calls.append("der")
        return solve(mu)

    def counted_flag(der):
        calls.append("engel")
        return flag(der)

    monkeypatch.setattr(derivations, "_derivation_nullspace", counted)
    monkeypatch.setattr(derivations, "engel_flag", counted_flag)
    return certify_nilradical(catalog_get(id_)), calls.count("der"), calls.count("engel")


def test_nilradical_traceless_obstruction(monkeypatch):
    # ex3's nonzero torus is not nilpotent, and its weight-zero block is
    # traceless: no Der(mu), no flag; ex10 has no torus, and a basis
    # derivation with tr(D^2) != 0 settles the Engel question: no flag
    for id_, ders in (("ex3", 0), ("ex10", 1)):
        v, der, flags = _nilradical_counting_der_mu(monkeypatch, id_)
        assert (v.status, v.scope, v.obstruction, der, flags) == (
            CERTIFIED_NOT_RN, SCOPE_ALGEBRA,
            "every derivation is traceless, so all solvable extensions are unimodular",
            ders, 0)


def test_nilradical_engel_obstruction(monkeypatch):
    # every basis derivation has tr(D^2) = 0: one flag decides, and names its dimensions
    for id_, dims in (("ex4-1", "3,6,9,12"), ("ex4-2", "4,6,8,12")):
        v, der, flags = _nilradical_counting_der_mu(monkeypatch, id_)
        assert (v.status, v.scope, v.obstruction, der, flags) == (
            CERTIFIED_NOT_RN, SCOPE_ALGEBRA,
            "characteristically nilpotent: every derivation is nilpotent "
            f"(Engel flag of dimensions {dims})", 1, 1)


def _listed_derivations():
    """(label, mu, D) for each listed catalog derivation of positive trace,
    each family at its samples."""
    for id_, _, _ in catalog_list():
        entry = catalog_entry(id_)
        for t in FAMILY_SAMPLES if entry.params else (None,):
            mu = entry.bracket() if t is None else entry.bracket(t=t)
            label = id_ if t is None else f"{id_}(t={t})"
            for idx, d in enumerate(entry.derivations):
                if sum(d) > 0:
                    yield f"{label} d{idx}", mu, d


SINK_DECIDED = {
    "ex1ex2ex5-i d0", "ex1ex2ex5-ii d0", "ex1ex2ex5-ii d1",
    *(f"ex1ex2ex5-iii(t={t}) d0" for t in FAMILY_SAMPLES),
    "ex8ex7-i d0", "ex8ex7-ii d0",
}


def test_sinks_decide_every_listed_center_failure_without_the_center(monkeypatch):
    """Every listed derivation that fails the necessary condition is
    non-positive at a sink, so neither ``necessary_condition`` nor
    ``certify_derivation`` solves for the center."""
    calls = []

    def counted(mu):
        calls.append(mu)
        return liecore.center(mu)

    monkeypatch.setattr(certifier, "center", counted)
    failed = set()
    for label, mu, d in _listed_derivations():
        calls.clear()
        ok, reason = necessary_condition(mu, d)
        v = certify_derivation(mu, d, budget=0)
        if not ok:
            failed.add(label)
            assert reason == NOT_POSITIVE_ON_CENTER
            assert (v.status, v.scope, v.obstruction) == (
                CERTIFIED_NOT_RN, SCOPE_DERIVATION,
                f"necessary condition fails: {NOT_POSITIVE_ON_CENTER}")
            assert not calls, label
    assert failed == SINK_DECIDED


NILRADICAL_UNKNOWN_NOTE = ("no candidate derivation certified; obstruction tests passed, "
                           "so the algebra may still be a Ricci negative nilradical")


@pytest.mark.parametrize("budget,status,notes", [
    (0, UNKNOWN, NILRADICAL_UNKNOWN_NOTE + " (face budget exhausted)"),
    (4096, CERTIFIED_RN, "degeneration keeping 7 of 8 constants"),
])
def test_nilradical_notes_when_the_face_budget_ran_out(budget, status, notes):
    # dim7-alg1 has no positive derivation and is not nice: only the face walk certifies it
    v = certify_nilradical(catalog_get("dim7-alg1"), budget=budget)
    assert (v.status, v.notes) == (status, notes)


def test_nilradical_sink_lp_unknown_keeps_its_note():
    # the walk never starts, so no budget ran out
    v = certify_nilradical(catalog_get("ex1ex2ex5-ii"), budget=0)
    assert (v.status, v.notes) == (UNKNOWN, NILRADICAL_UNKNOWN_NOTE)


def test_nilradical_rejects_non_nilpotent():
    sl2 = LieBracket(3, {(1, 2, 2): F(2), (1, 3, 3): F(-2), (2, 3, 1): F(1)})
    with pytest.raises(ValueError):
        certify_nilradical(sl2)


M0_8 = LieBracket(8, {(1, i, i + 1): F(1) for i in range(2, 8)})  # Vergne's filiform m_0(8)
M0_8_VERDICT = (
    "status CertifiedRN\nnotes positive derivation\ncertificate\nkind PositiveDerivation\n"
    "dim 8\n" + "".join(f"bracket 1 {i} {i + 1} 1\n" for i in range(2, 8))
    + "derivation 1 1 2 3 4 5 6 7\nslack 1\nend\n"
)


def _golden_nilradical(label: str) -> str:
    return _golden_sections()[label].split("--- nilradical\n", 1)[1]


@pytest.mark.parametrize("mu,calls,expected", [
    (catalog_get("heis3"), 0, _golden_nilradical("heis3")),
    (M0_8, 0, M0_8_VERDICT),
    (catalog_get("dim7-alg1"), 1, _golden_nilradical("dim7-alg1")),  # no positive derivation
    # no torus D has tr D > 0 and D_r > 0 at every sink: Unknown after the sink LP
    (catalog_get("ex1ex2ex5-ii"), 0, _golden_nilradical("ex1ex2ex5-ii")),
], ids=["heis3", "m0(8)", "dim7-alg1", "ex1ex2ex5-ii"])
def test_face_lp_runs_only_without_positive_derivation(monkeypatch, mu, calls, expected):
    seen = []
    original = certifier._torus_cone_point

    def counting(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(certifier, "_torus_cone_point", counting)
    assert _verdict(mu, certify_nilradical(mu)) == expected
    if calls:
        assert len(seen) >= calls
    else:
        assert not seen


@pytest.mark.parametrize("ids,kind", [
    (("ex9", "ex9"), NICE_CONE),  # 18 constants
    (("dim7-alg1", "ex9"), DEGENERATION_CONE),  # 17 constants, not nice
], ids=["ex9+ex9", "dim7-alg1+ex9"])
def test_nilradical_of_sums_beyond_sixteen_constants(ids, kind):
    mu = direct_sum([catalog_get(i) for i in ids])
    v = certify_nilradical(mu)
    assert v.status == CERTIFIED_RN and v.scope == SCOPE_ALGEBRA
    assert v.certificate.kind == kind
    mu2, cert2 = parse_certificate(serialize_certificate(mu, v.certificate))
    assert mu2 == mu and cert2 == v.certificate
    ok, msg = verify_certificate(mu2, cert2)
    assert ok, msg


def _summand(key, s):
    """key in the s-th summand of a sum of dim7-alg1's."""
    return tuple(x + 7 * s for x in key)


ALG1_COEFFICIENTS = {(1, 2, 4): F(3, 13), (1, 5, 6): F(5, 13), (1, 6, 7): F(2, 13),
                     (2, 3, 5): F(9, 13), (3, 5, 7): F(1, 13)}


def test_nilradical_of_dim7_alg1_five_times_walks_only_nice_subsets(monkeypatch):
    """dim7-alg1^5 (n = 35, 40 constants) is not nice and has no positive
    derivation.  (2, 3, 7) conflicts with (2, 3, 5) and with (3, 5, 7) in
    each summand, so a nice subset drops a constant from every summand,
    and none that drops fewer than five is nice.  The walk must visit
    none of those: it tests one subset, no niceness test of a subset
    fails, and the walk over every subset is never started.  The verdict
    is the one the filtered walk finds."""
    mu = direct_sum([catalog_get("dim7-alg1")] * 5)
    assert len(mu.keys()) == 40
    rejected, walked = [], []
    is_nice, walk = liecore.is_nice_basis, certifier.iter_nice_candidates

    def counted(keys):
        keys = list(keys)
        ok = is_nice(keys)
        rejected.extend([] if ok or len(keys) == 40 else [keys])
        return ok

    def recorded(keys):
        for j_set, dropped in walk(keys):
            walked.append(j_set)
            yield j_set, dropped

    monkeypatch.setattr(certifier, "is_nice_basis", counted)
    monkeypatch.setattr(polytope, "is_nice_basis", counted, raising=False)
    monkeypatch.setattr(certifier, "iter_nice_candidates", recorded)
    covers = polytope.iter_covers

    def no_full_walk(keys, adj):
        # the walk over every subset runs on the edgeless graph
        if not any(adj):
            pytest.fail("the walk visits every subset")
        return covers(keys, adj)

    monkeypatch.setattr(polytope, "iter_covers", no_full_walk)
    v = certify_nilradical(mu)
    dropped = {_summand((2, 3, 7), s) for s in range(5)}
    assert rejected == []
    assert walked == [frozenset(mu.keys()) - dropped]
    d = tuple(map(F, (0, 1, 0, 1, 1, 1, 1) * 5))
    cert = Certificate(
        DEGENERATION_CONE, d, ((-1, 4, -2, 3, 2, 1, 0) * 5, frozenset(mu.keys()) - dropped),
        {_summand(key, s): a for key, a in ALG1_COEFFICIENTS.items() for s in range(5)},
        F(10, 13))
    assert v == Verdict(CERTIFIED_RN, SCOPE_ALGEBRA, d, cert,
                        notes="degeneration keeping 35 of 40 constants")
    assert verify_certificate(mu, v.certificate) == (True, "membership verified with slack 10/13")


def test_a_face_the_remainders_found_without_an_alpha_is_an_invariant_violation(monkeypatch):
    # dim7-alg1's first nice subset drops one weight, which the remainders
    # settle as a face; its alpha is solved for once D passes membership
    monkeypatch.setattr(polytope, "separating_alpha", lambda *args: None)
    with pytest.raises(InvariantViolation, match="no alpha for a face the remainders found"):
        certify_nilradical(catalog_get("dim7-alg1"))
