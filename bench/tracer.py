"""Outside-in tracer: spans around the library's layer functions.

The library imports names directly (``from .simplex import solve_lp``),
so wrapping a function only where it is defined misses most calls.
``Tracer.install`` rebinds every ``nilcone.*`` module attribute that is
the original function object, and ``uninstall`` puts the originals back.
Spans are kept in memory; self time is a span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Module -> functions traced in it, one layer per module.
LAYERS = {
    "liecore": ("parse_bracket", "check_jacobi", "lower_central_series", "center",
                "is_nice_basis"),
    "derivations": ("derivation_algebra", "diagonal_derivations", "all_derivations_traceless",
                    "is_characteristically_nilpotent", "rep_action"),
    "linalg": ("nullspace", "mat_inv", "mat_mul", "leading_principal_minors"),
    "simplex": ("solve_lp",),
    "polytope": ("strict_cone_membership", "is_face", "project_certificate_cone",
                 "fourier_motzkin", "remove_redundant", "iter_face_candidates"),
    "momentricci": ("moment_map", "nil_ricci", "extension_ricci", "is_negative_definite"),
    "certifier": ("certify_derivation", "certify_nilradical", "find_witness_metric",
                  "verify_certificate", "serialize_certificate", "parse_certificate",
                  "necessary_condition"),
    "catalog": ("run_regression",),
    "cli": ("main",),
}
GENERATORS = {"polytope.iter_face_candidates"}
WITNESS = "certifier.find_witness_metric"
RICCI = "momentricci.extension_ricci"


def _is_optimal(result) -> bool:
    return getattr(result, "status", None) == "optimal"


# Per-call outcome counted for the ratios: key -> predicate on the result.
OUTCOMES = {
    "simplex.solve_lp": _is_optimal,
    "polytope.is_face": lambda r: bool(r[0]),
    WITNESS: lambda r: r is not None,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.hits: Counter = Counter()  # calls whose OUTCOMES predicate held
        self.yielded: Counter = Counter()
        self.ricci_in_witness = 0
        self.request = -1
        self._stack: list[list] = []  # open spans: [id, name, start, child_time]
        self._witness_depth = 0
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        if name == RICCI and self._witness_depth:
            self.ricci_in_witness += 1
        if name == WITNESS:
            self._witness_depth += 1
        span = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = span
        dur = end - start
        self.self_s[name] += dur - child
        if name == WITNESS:
            self._witness_depth -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else None, self.request, name, start, end))

    def _wrap(self, key: str, fn):
        tracer = self
        outcome = OUTCOMES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            span = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if outcome is not None and outcome(result):
                tracer.hits[key] += 1
            return result

        return traced

    def _wrap_generator(self, key: str, fn):
        """Each resumption of the generator is a span; calls count generators."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            gen = fn(*args, **kwargs)

            def resume():
                while True:
                    span = tracer._open(key)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    tracer.yielded[key] += 1
                    yield item

            return resume()

        return traced

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "nilcone" or name.startswith("nilcone."))}
        for layer, names in LAYERS.items():
            home = modules.get(f"nilcone.{layer}")
            for fname in names:
                key = f"{layer}.{fname}"
                orig = getattr(home, fname, None) if home is not None else None
                if orig is None:
                    self.missing.append(key)
                    continue
                wrapper = (self._wrap_generator if key in GENERATORS else self._wrap)(key, orig)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_s"] = (self.self_s[key], "s")
        out["polytope.iter_face_candidates.yielded"] = (
            self.yielded["polytope.iter_face_candidates"], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        out["simplex.solve_lp.optimal_ratio"] = (
            ratio(self.hits["simplex.solve_lp"], self.calls["simplex.solve_lp"]), "ratio")
        out["polytope.is_face.face_ratio"] = (
            ratio(self.hits["polytope.is_face"], self.calls["polytope.is_face"]), "ratio")
        out["polytope.is_face.per_candidate"] = (
            ratio(self.calls["polytope.is_face"],
                  self.yielded["polytope.iter_face_candidates"]), "ratio")
        out[f"{WITNESS}.found_ratio"] = (ratio(self.hits[WITNESS], self.calls[WITNESS]), "ratio")
        out[f"{WITNESS}.ricci_per_call"] = (
            ratio(self.ricci_in_witness, self.calls[WITNESS]), "count/call")
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, request, name, start, end."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
