"""Quick self-check of the benchmark: python3 -m pytest -q bench/test_bench.py

Runs a tiny pass of every workload, traced and untraced, and checks the
reported metric names and units against BENCHMARK.json, that no oracle
failed, that the generators are deterministic for a given seed, and the
host-speed adjustment on made-up readings.
"""

import json
from pathlib import Path

import pytest

import run
from hostspeed import FULL_SPEED_READING_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_only_known_workloads():
    # faces runs from the command line but is not in BENCHMARK.json (NOTES.md).
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - {"faces"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    result, summary = run.run(workload, seed=5, seconds=0, trace=trace, tiny=True)
    assert "error_ratio=0.0" in summary
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _fingerprint(requests):
    # Bound inputs are the partial's arguments after ``nc``.
    return [(r.kind, r.label, repr(r.call.args[1:])) for r in requests]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic(workload):
    nc = run.import_nilcone()
    first = _fingerprint(WORKLOADS[workload](nc, 11, True))
    assert first == _fingerprint(WORKLOADS[workload](nc, 11, True))
    assert first != _fingerprint(WORKLOADS[workload](nc, 12, True))


def test_tracer_restores_every_binding():
    nc = run.import_nilcone()
    before = {name: getattr(nc.certifier, name) for name in ("solve_lp", "is_face")}
    tracer = Tracer()
    tracer.install()
    try:
        assert nc.certifier.solve_lp is not before["solve_lp"]
        assert nc.polytope.solve_lp is nc.certifier.solve_lp
    finally:
        tracer.uninstall()
    assert {name: getattr(nc.certifier, name) for name in before} == before


def test_speed_probe_scales_to_full_speed():
    probe = SpeedProbe()
    result, call = probe.time_call(lambda: 42)
    assert result == 42 and call == 0 and len(probe.readings) == 2
    r = FULL_SPEED_READING_S
    probe.stamps = [0.0, 1.0, 3.0, 5.0, 9.0, 9.5]
    probe.readings = [4 * r, 4 * r, 2 * r, 2 * r, r, r]
    probe.calls = [(0.0, 1.0), (3.0, 5.0), (9.0, 9.5)]
    assert probe.adjusted(0) == pytest.approx(1 / 4)  # the readings around it only
    assert probe.adjusted(1) == pytest.approx(0.75)  # one call-length either side: 4, 2, 2
    assert probe.adjusted(2) == pytest.approx(0.5)
