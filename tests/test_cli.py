import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nilcone
from nilcone import cli, derivations, simplex
from nilcone.catalog import catalog_entry, catalog_get, catalog_list
from nilcone.cli import main
from nilcone.liecore import MAX_DIM, parse_bracket


def extract_block(out):
    start = out.index("\ncertificate\n") + 1
    return out[start : out.index("\nend", start) + 4] + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_catalog_entry(capsys):
    code, out, _ = run(capsys, "check", "heis3")
    assert code == 0
    assert "lower-central-series: 3,1" in out
    assert "nilpotency-class: 2" in out


def test_check_file(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text("dim 3\nbracket 1 2 3 1\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "jacobi: True" in out


@pytest.mark.parametrize("fmt, sep", [("text", ": "), ("kv", "=")])
def test_check_gives_no_class_to_a_bracket_that_is_not_nilpotent(tmp_path, capsys, fmt, sep):
    # [e1, e2] = e3, [e1, e3] = e2: Jacobi holds, and the series stops at
    # span(e2, e3), so there is no nilpotency class to print
    path = tmp_path / "alg.txt"
    path.write_text("dim 3\nbracket 1 2 3 1\nbracket 1 3 2 1\n")
    code, out, _ = run(capsys, "--format", fmt, "check", str(path))
    assert code == 0
    lines = ["dim", "3", "jacobi", "True", "nilpotent", "False",
             "lower-central-series", "3,2", "center-dim", "0"]
    assert out == "".join(f"{k}{sep}{v}\n" for k, v in zip(lines[::2], lines[1::2]))


def test_check_dim_400_single_constant(tmp_path, capsys):
    # C(400, 3) basis triples, but no chain of nonzero constants reaches one
    path = tmp_path / "alg.txt"
    path.write_text("dim 400\nbracket 1 2 3 1\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out == (
        "dim: 400\njacobi: True\nnilpotent: True\nlower-central-series: 400,1\n"
        "nilpotency-class: 2\ncenter-dim: 398\n"
    )


def test_cone_heis_text(capsys):
    code, out, _ = run(capsys, "cone", "heis3")
    assert code == 0
    assert "2d1+d2 > 0" in out
    assert "d1+2d2 > 0" in out


def test_cone_kv_format(capsys):
    code, out, _ = run(capsys, "--format", "kv", "cone", "n4nice")
    assert code == 0
    assert "inequality=d1+d2 > 0" in out
    assert "inequality=2d1+d2 > 0" in out


def test_ricci_heis(capsys):
    code, out, _ = run(capsys, "ricci", "heis3", "--derivation", "1,1,2")
    assert code == 0
    assert "negative-definite: True" in out
    code, out, _ = run(capsys, "ricci", "heis3", "--derivation", "1,1,2", "--scale", "4")
    assert code == 0
    assert "negative-definite: False" in out


def test_certify_save_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "certify", "dim7-alg1", "--derivation", "0,1,0,1,1,1,1"
    )
    assert code == 0
    assert "status: CertifiedRN" in out
    block = extract_block(out)
    path = tmp_path / "cert.txt"
    path.write_text(block)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid: True" in out


def test_verify_rejects_tampered_file(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "dim7-alg1", "--derivation", "0,1,0,1,1,1,1")
    block = extract_block(out)
    block = re.sub(r"slack \S+", "slack 100", block)
    path = tmp_path / "cert.txt"
    path.write_text(block)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "valid: False" in out


def test_certify_algebra_obstruction(capsys):
    code, out, _ = run(capsys, "certify", "ex4-1")
    assert code == 0
    assert "status: CertifiedNotRN" in out
    assert "characteristically nilpotent" in out


def test_certify_family_parameter(capsys):
    code, out, _ = run(capsys, "certify", "ex1ex2ex5-iii", "--param", "t=1/2")
    assert code == 0
    assert "status:" in out


def test_calls_in_one_process_share_no_parameters(capsys):
    """``main`` builds its parser once and keeps it: the --param values of
    one call reach neither a later call nor the parser's defaults."""
    export = ("catalog", "export", "ex1ex2ex5-iii")
    half = run(capsys, *export, "--param", "t=1/2")
    two = run(capsys, *export, "--param", "t=2")
    assert half[0] == two[0] == 0 and half[1] != two[1]
    assert run(capsys, *export, "--param", "t=1/2") == half
    assert run(capsys, *export) == (1, "", "error: entry 'ex1ex2ex5-iii' needs parameter(s) t\n")
    assert run(capsys, "certify", "ex1ex2ex5-iii", "--param", "t=2")[0] == 0
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["certify", "heis3"]).param == []


@pytest.mark.parametrize("argv, err", [
    (("certify", "ex9", "--param", "t=1"), "error: entry 'ex9' takes no parameter(s) t\n"),
    (("catalog", "export", "ex1ex2ex5-iii", "--param", "t=1/2", "--param", "s=3"),
     "error: entry 'ex1ex2ex5-iii' takes no parameter(s) s\n"),
])
def test_a_parameter_the_entry_does_not_take_is_input_error(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_witness_heis(capsys):
    code, out, _ = run(capsys, "witness", "heis3", "--derivation", "1,1,2")
    assert code == 0
    assert "found: True" in out
    assert "scale: 1\nh: 1,1,1\n" in out
    assert "negative-definite: True" in out


def test_witness_on_positive_non_nice_derivation(capsys):
    code, out, _ = run(capsys, "witness", "n5nonice", "--derivation", "1,1,2,2,3")
    assert code == 0
    assert "found: True" in out
    # only a verdict other than CertifiedRN is refused
    code, out, _ = run(capsys, "witness", "heis3", "--derivation=-1,2,1")
    assert code == 0
    assert out.startswith("status: Unknown\n") and "found" not in out


def test_certify_witness_on_positive_derivation_verifies(tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "heis3", "--derivation", "1,1,2", "--witness")
    assert code == 0
    assert "kind PositiveDerivation\n" in out
    assert "metric-scale 1\nmetric-h 1 1 1\n" in out
    path = tmp_path / "cert.txt"
    path.write_text(extract_block(out))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid: True" in out


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "heis3" in out and "ex9" in out
    code, out, _ = run(capsys, "catalog", "show", "dim7-alg3")
    assert code == 0
    assert "dim: 7" in out


def test_catalog_regress_subset(capsys):
    code, out, _ = run(capsys, "catalog", "regress", "heis3", "n4nice")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_unknown_id_is_input_error(capsys):
    code, _, err = run(capsys, "check", "no-such-algebra")
    assert code == 1
    assert "error:" in err


def test_bad_derivation_is_input_error(capsys):
    # d is printed as --derivation takes it
    code, _, err = run(capsys, "certify", "heis3", "--derivation", "1,1,1")
    assert (code, err) == (1, "error: 1,1,1 is not a diagonal derivation\n")
    code, _, err = run(capsys, "certify", "heis3", "--derivation=-1/2,1,1")
    assert (code, err) == (1, "error: -1/2,1,1 is not a diagonal derivation\n")


def test_verify_names_a_metric_on_a_bad_derivation_as_the_cli_takes_it(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text("certificate\nkind PositiveDerivation\ndim 3\nbracket 1 2 3 1\n"
                    "derivation 1 1 1\nslack 1\nmetric-scale 1\nmetric-h 1 1 1\nend\n")
    code, _, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "error: 1,1,1 is not a diagonal derivation\n")


def test_missing_catalog_id_is_input_error(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 1
    assert "error" in err


def test_face_budget_does_not_cap_the_witness_search(tmp_path, capsys):
    # --budget 0 tests no face; the witness metric is still built, at its
    # own default budget of Newton steps
    code, out, _ = run(
        capsys, "--budget", "0", "certify", "heis3", "--derivation=-1,5,4", "--witness"
    )
    assert code == 0
    assert "metric-scale 1\nmetric-h 32/57 32/57 98/55\n" in out
    path = tmp_path / "cert.txt"
    path.write_text(extract_block(out))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid: True" in out


# a float holds the square of neither constant
@pytest.mark.parametrize("constant", [
    "1"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000",
    "1/1"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000",
], ids=["10^200", "10^-200"])
def test_witness_with_a_constant_beyond_float_range(tmp_path, capsys, constant):
    path = tmp_path / "alg.txt"
    path.write_text(f"dim 3\nbracket 1 2 3 {constant}\n")
    code, out, err = run(capsys, "witness", str(path), "--derivation=-1,5,4")
    assert (code, err) == (0, "")
    assert "found: True\n" in out and out.endswith("negative-definite: True\n")


POSITIVE_WITH_METRIC = (
    "certificate\nkind PositiveDerivation\ndim 3\nbracket 1 2 3 1\nderivation 1 1 2\n"
    "slack 1\nmetric-scale 1\nmetric-h {}\nend\n"
)


def test_verify_checks_a_metric_on_a_positive_derivation(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text(POSITIVE_WITH_METRIC.format("1 1 1000"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "valid: False\nreason: attached metric is not negative definite\n"
    path.write_text(POSITIVE_WITH_METRIC.format("49/55 49/55 64/57"))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out == "valid: True\nreason: all diagonal entries positive\n"


HEIS_FOREIGN_DATA = "coeff 9 9 9 5\nalpha 1 1 1\nkeep 7 8 9\n"


def test_verify_rejects_data_a_kind_never_uses(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text(
        "certificate\nkind PositiveDerivation\ndim 3\nbracket 1 2 3 1\nderivation 1 1 2\n"
        "slack 1\n" + HEIS_FOREIGN_DATA + "end\n"
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == ("valid: False\nreason: a positive derivation carries no "
                   "coefficients or degeneration\n")
    nice = ("certificate\nkind NiceCone\ndim 3\nbracket 1 2 3 1\nderivation 1 1 2\n"
            "coeff 1 2 3 1/2\nslack 1/2\n")
    path.write_text(nice + "end\n")
    assert run(capsys, "verify", str(path))[0] == 0
    path.write_text(nice + "alpha 1 1 1\nkeep 7 8 9\nend\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "valid: False\nreason: a nice basis cone carries no degeneration\n"


def test_der_solves_der_mu_once_on_every_catalog_entry(monkeypatch, capsys):
    calls = []
    solve = derivations._derivation_nullspace

    def counted(mu):
        calls.append(mu)
        return solve(mu)

    monkeypatch.setattr(derivations, "_derivation_nullspace", counted)
    for id_, _, _ in catalog_list():
        params = ["--param", "t=1/2"] if catalog_entry(id_).params else []
        calls.clear()
        assert run(capsys, "der", id_, *params)[0] == 0
        assert len(calls) == 1, id_


def test_input_errors_exit_1(tmp_path, capsys):
    # InputError from the library, and a malformed number caught at parse time
    code, _, err = run(capsys, "ricci", "heis3", "--derivation", "1,1,2", "--scale", "0")
    assert code == 1
    assert "error: scale must be positive" in err
    code, _, err = run(capsys, "ricci", "heis3", "--derivation", "1,1,2", "--scale", "x")
    assert code == 1
    assert "error: bad scale" in err
    # an input path that cannot be read: a directory, a missing or a binary file
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(128, 256)))
    for argv in (
        ("check", str(tmp_path)),
        ("verify", str(tmp_path)),
        ("verify", str(tmp_path / "missing.txt")),
        ("check", str(binary)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: "), (argv, err)


# [e1, e2] = e4, [e3, e4] = -e5: nilpotent, but Jacobi fails at (1, 2, 3)
NOT_JACOBI = "dim 5\nbracket 1 2 4 1\nbracket 4 3 5 1\n"


def test_certify_and_witness_refuse_a_bracket_that_fails_jacobi(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(NOT_JACOBI)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "jacobi: False\njacobi-violation: 1,2,3\n" in out
    for argv in (("certify",), ("certify", "--derivation", "1,1,1,2,3"),
                 ("witness", "--derivation", "1,1,1,2,3")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert err == "error: bracket fails the Jacobi identity at 1,2,3\n", argv


def test_verify_refuses_a_certificate_on_a_bracket_that_fails_jacobi(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text("certificate\nkind PositiveDerivation\n" + NOT_JACOBI
                    + "derivation 1 1 1 2 3\nslack 1\nend\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "valid: False\nreason: bracket fails the Jacobi identity at 1,2,3\n"


def test_certify_refuses_a_non_nilpotent_bracket_at_derivation_scope(tmp_path, capsys):
    # [e1, e2] = e2 is solvable, not nilpotent; diag(0, 1) is a derivation of it
    path = tmp_path / "alg.txt"
    path.write_text("dim 2\nbracket 1 2 2 1\n")
    for argv in (("certify",), ("certify", "--derivation", "0,1"),
                 ("witness", "--derivation", "0,1")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert err == "error: algebra is not nilpotent\n", argv


def test_hostile_dim_exits_1_at_parse_time(tmp_path, capsys):
    # refused before anything of size dim is built
    path = tmp_path / "alg.txt"
    path.write_text("dim 20000\nbracket 1 2 3 1\n")
    for argv in (("check", str(path)), ("certify", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: line 1: dimension 20000 exceeds the limit {MAX_DIM}\n"
    assert parse_bracket(f"dim {MAX_DIM}\nbracket 1 2 3 1\n").dim == MAX_DIM


def test_other_value_error_exits_2(monkeypatch, capsys):
    def broken(mu):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "check_jacobi", broken)
    code, _, err = run(capsys, "check", "heis3")
    assert code == 2
    assert "internal error: boom" in err


def test_invariant_violation_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(simplex, "_run_simplex", lambda *args: simplex.UNBOUNDED)
    code, _, err = run(capsys, "cone", "heis3")
    assert code == 2
    assert "internal invariant violated" in err


def test_invariant_violation_exits_2_under_optimize():
    script = (
        "import sys\n"
        "from nilcone import cli, simplex\n"
        "simplex._run_simplex = lambda *args: simplex.UNBOUNDED\n"
        "sys.exit(cli.main(['cone', 'heis3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nilcone.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert "internal invariant violated" in proc.stderr


@pytest.mark.parametrize("id_", ["heis3", "n4nonice", "n5nonice", "dim7-alg2"])
@pytest.mark.parametrize("budget", [0, 1, 5, 127, 4096])
def test_degenerate_tests_every_subset_up_to_the_budget(capsys, id_, budget):
    m = len(catalog_get(id_).keys())
    code, out, _ = run(capsys, "--format", "kv", "--budget", str(budget), "degenerate", id_)
    assert code == 0
    tested = min(budget, 2 ** m - 1)
    assert f"tested={tested}\ncomplete={tested == 2 ** m - 1}\n" in out


@pytest.mark.parametrize("argv", [
    ("--budget", "-3", "certify", "dim7-alg1"),
    ("--budget", "-1", "degenerate", "n4nonice"),
])
def test_negative_budget_exits_1(capsys, argv):
    # a negative budget is rejected, not read as a spent one
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: face budget must be nonnegative, got {argv[1]}\n"


def test_closed_stdout_exits_quietly(tmp_path):
    # free 2-step on 32 generators: about 0.5 MB of weights, more than a pipe
    # holds, so nilcone is still writing when the reader closes after one line
    g = 32
    pairs = list(itertools.combinations(range(1, g + 1), 2))
    path = tmp_path / "free2step.txt"
    path.write_text(f"dim {g + len(pairs)}\n" + "".join(
        f"bracket {i} {j} {g + q} 1\n" for q, (i, j) in enumerate(pairs, 1)))
    env = dict(os.environ, PYTHONPATH=str(Path(nilcone.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "nilcone.cli", "weights", str(path)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"count: 496\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE
        assert proc.stderr.read() == b""
