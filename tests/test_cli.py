import os
import re
import subprocess
import sys
from pathlib import Path

import nilcone
from nilcone import cli, simplex
from nilcone.cli import main


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


def test_witness_heis(capsys):
    code, out, _ = run(capsys, "witness", "heis3", "--derivation", "1,1,2")
    assert code == 0
    assert "found: True" in out
    assert "scale: 1" in out
    assert "negative-definite: True" in out


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
    code, _, err = run(capsys, "certify", "heis3", "--derivation", "1,1,1")
    assert code == 1
    assert "error:" in err


def test_missing_catalog_id_is_input_error(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 1
    assert "error" in err


def test_face_budget_does_not_cap_the_witness_search(tmp_path, capsys):
    # --degenerations none sets the face budget to 0; the witness metric is
    # still built, at its own default budget of Newton steps
    code, out, _ = run(
        capsys, "certify", "heis3", "--derivation=-1,5,4", "--witness", "--degenerations", "none"
    )
    assert code == 0
    assert "metric-scale 1\nmetric-h 32/57 32/57 98/55\n" in out
    path = tmp_path / "cert.txt"
    path.write_text(extract_block(out))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid: True" in out


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
