"""Benchmark of nilcone: time to verdict on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

One client sends one request at a time to the library (a closed loop:
one process, one thread).  A run sets the workload up, then repeats whole
passes over it until the next pass would end after --seconds (at least
one pass), then times the set-up again.  Every result is checked by the
request's oracle.  Each timed call sits between two readings of the
host's speed (hostspeed.py), and the end-to-end timings are reported for
the host at full speed; the raw figures are on the summary line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one pass
untraced and the same pass traced, reports the per-layer metrics of the
traced pass and the tracing overhead (traced minus untraced request time,
both at full speed),
and writes the spans to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a readable
summary.  Exit code 0 when that line was printed, 2 when the library
cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-ups timed before the passes and after them.  Machine speed drifts
# over tens of seconds, so samples from both ends of the run give a median
# that depends less on the moment the run started.
SETUP_BEFORE, SETUP_AFTER = 3, 4
# A timing percentile needs at least ten samples beyond it.
MIN_SAMPLES_BEYOND_P90 = 10

sys.path.insert(0, str(BENCH_DIR))

from hostspeed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(Exception):
    """The library under test cannot be imported from this checkout."""


def import_nilcone():
    """A fresh import of the checkout's nilcone, so set-up can be timed again."""
    for name in [n for n in sys.modules if n == "nilcone" or n.startswith("nilcone.")]:
        del sys.modules[name]
    if not (SRC / "nilcone" / "__init__.py").is_file():
        raise SetupError(f"no nilcone package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    nc = importlib.import_module("nilcone")
    importlib.import_module("nilcone.cli")
    if not Path(nc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported nilcone from {nc.__file__}, not from {SRC}")
    return nc


def set_up(workload: str, seed: int, tiny: bool, probe: SpeedProbe, calls: list):
    """Import plus generation, timed by ``probe``; appends the call to ``calls``."""
    def generate():
        return WORKLOADS[workload](import_nilcone(), seed, tiny)

    requests, call = probe.time_call(generate)
    calls.append(call)
    return requests


@dataclass
class Tally:
    # The probe's index of each timed call.
    calls: list = field(default_factory=list)
    # The request each call belongs to: a workload repeats the same
    # Request object in every round and every pass.
    keys: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    decided: int = 0

    def fail(self, req, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {req.kind} [{req.label}]: {why}", file=sys.stderr)


def run_pass(requests, tally: Tally, probe: SpeedProbe, tracer: Tracer | None = None) -> float:
    """Send every request once, in order; returns the pass wall time.

    Each call is timed between two host-speed readings.
    """
    start = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = tally.attempted
        tally.attempted += 1
        try:
            result, call = probe.time_call(req.call)
        except Exception:
            tally.fail(req, traceback.format_exc())
            continue
        tally.calls.append(call)
        tally.keys.append(id(req))
        try:
            if req.check(result):
                tally.decided += 1
        except Exception as exc:
            tally.fail(req, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start


def measure(requests, seconds: float, probe: SpeedProbe) -> tuple[Tally, int]:
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while True:
        wall = run_pass(requests, tally, probe)
        passes += 1
        if time.perf_counter() - start + wall > seconds:
            return tally, passes


def request_latencies(keys: list, latencies: list) -> list:
    """Every timed request, valued at the median of its request's timings.

    A request recurs in every round and pass of a run, at times spread over
    the run.  Taking its median before the percentiles keeps one slow or
    fast moment of the host from reordering requests of similar cost, which
    would move a percentile that falls between two of them.
    """
    by_request: dict = {}
    for key, x in zip(keys, latencies):
        by_request.setdefault(key, []).append(x)
    med = {key: statistics.median(xs) for key, xs in by_request.items()}
    return [med[key] for key in keys]


def timings(keys: list, latencies: list, setup_times: list) -> dict:
    """The timing metrics: median set-up, throughput and latency percentiles."""
    lat = request_latencies(keys, latencies)
    # Interpolated; with n >= 100 samples at least 10 lie beyond it.
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(lat) / sum(latencies),
        "latency_s.p50": statistics.median(lat),
        "latency_s.p90": p90,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (result object, summary line)."""
    probe = SpeedProbe()
    setup_calls = []
    for _ in range(SETUP_BEFORE):
        requests = set_up(workload, seed, tiny, probe, setup_calls)
    if trace:
        tally = Tally()
        untraced = run_pass(requests, tally, probe)
        first = len(tally.calls)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(requests, tally, probe, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        overhead = (sum(probe.adjusted(c) for c in tally.calls[first:])
                    - sum(probe.adjusted(c) for c in tally.calls[:first]))
        metrics["trace.overhead_s"] = (overhead, "s")
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        extra = (f"untraced_s={untraced:.3f} traced_s={traced:.3f} spans={len(tracer.spans)} "
                 f"spans_file={spans.relative_to(ROOT)}")
        if tracer.missing:
            extra += " untraced_missing=" + ",".join(tracer.missing)
    else:
        tally, passes = measure(requests, seconds, probe)
        for _ in range(SETUP_AFTER):
            set_up(workload, seed, tiny, probe, setup_calls)
        raw = timings(tally.keys, [probe.raw(c) for c in tally.calls],
                      [probe.raw(c) for c in setup_calls])
        latencies = [probe.adjusted(c) for c in tally.calls]
        setups = [probe.adjusted(c) for c in setup_calls]
        units = {"setup_s": "s", "requests_per_s": "1/s", "latency_s.p50": "s", "latency_s.p90": "s"}
        metrics = {name: (v, units[name])
                   for name, v in timings(tally.keys, latencies, setups).items()}
        metrics["decided_ratio"] = (tally.decided / tally.attempted, "ratio")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        p90 = metrics["latency_s.p90"][0]
        beyond = sum(1 for x in request_latencies(tally.keys, latencies) if x > p90)
        extra = (f"passes={passes} samples={len(tally.calls)} beyond_p90={beyond} "
                 f"fastest_reading_s={min(probe.readings):.6f} "
                 f"mean_slowdown={probe.mean_slowdown():.3f} "
                 + " ".join(f"raw_{name}={v:.6g}" for name, v in raw.items()))
        if beyond < MIN_SAMPLES_BEYOND_P90 and not tiny:
            print(f"warning: only {beyond} samples beyond p90", file=sys.stderr)
    error_ratio = tally.failed / tally.attempted
    summary = (f"workload={workload} seed={seed} trace={int(trace)} "
               f"requests_per_pass={len(requests)} attempted={tally.attempted} "
               f"failed={tally.failed} error_ratio={error_ratio} {extra}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
