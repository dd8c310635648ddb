from fractions import Fraction as F

import pytest

from nilcone import derivations
from nilcone.catalog import (
    catalog_entry,
    catalog_export,
    catalog_get,
    catalog_list,
    run_regression,
)
from nilcone.errors import UnknownCatalogEntry
from nilcone.liecore import check_jacobi, is_nilpotent, parse_bracket

EXPECTED_IDS = {
    "heis3", "n4nice", "n4nonice", "n5nonice",
    "dim7-alg1", "dim7-alg2", "dim7-alg3", "dim7-alg4",
    "ex10", "ex3", "ex1ex2ex5-i", "ex1ex2ex5-ii", "ex1ex2ex5-iii",
    "ex8ex7-i", "ex8ex7-ii", "ex9", "ex4-1", "ex4-2",
}


def test_catalog_ids_present():
    ids = {id_ for id_, _, _ in catalog_list()}
    assert ids == EXPECTED_IDS


def test_unknown_entry():
    with pytest.raises(UnknownCatalogEntry):
        catalog_entry("nope")


def test_family_requires_parameter():
    with pytest.raises(UnknownCatalogEntry):
        catalog_get("ex1ex2ex5-iii")


def test_family_parameter_applied():
    mu = catalog_get("ex1ex2ex5-iii", t=F(1, 3))
    assert mu.constants[(2, 5, 7)] == F(1, 3)
    assert mu.constants[(3, 4, 7)] == F(2, 3)
    assert check_jacobi(mu)[0]


def test_every_entry_is_a_nilpotent_lie_algebra():
    for id_, _, _ in catalog_list():
        mu = catalog_get(id_, t=F(1, 2)) if id_ == "ex1ex2ex5-iii" else catalog_get(id_)
        assert check_jacobi(mu)[0], id_
        assert is_nilpotent(mu), id_


def test_export_parses_back():
    text = catalog_export("dim7-alg3")
    assert parse_bracket(text) == catalog_get("dim7-alg3")


def test_regression_all_green():
    report = run_regression()
    assert report.ok, "\n".join(report.lines())


def test_regression_subset_and_lines():
    report = run_regression(["heis3", "n4nice"])
    assert report.ok
    lines = report.lines()
    assert any("heis3" in ln for ln in lines)
    assert lines[-1].startswith("PASS")
    assert all(ln.startswith(("ok", "flag")) for ln in lines[:-1])


def test_regression_flags_do_not_fail():
    # one printed lower central series disagrees with the recomputation;
    # that is reported as a flag, not a failure
    report = run_regression(["ex1ex2ex5-i"])
    assert report.ok
    assert any(r.flagged for r in report.results)


def test_regression_solves_der_mu_once_per_bracket(monkeypatch):
    # the traceless, char-nilpotent, phi-diagonal and nilradical-verdict
    # checks share one Der(mu) per bracket that needs it (heis3, ex10,
    # ex4-1, ex4-2; ex3's nonzero traceless torus settles both obstructions
    # on its weight-zero block) and one Engel flag, built only where every
    # basis derivation has tr(D^2) = 0 (ex4-1, ex4-2; ex10 has one with
    # tr(D^2) != 0, and heis3 has no char-nilpotent check)
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
    assert run_regression().ok
    assert (calls.count("der"), calls.count("engel")) == (4, 2)
