"""In-memory span tracer for the benchmark's traced run, and the per-layer
metrics derived from its spans.

The tracer wraps zenopure's public functions from outside. Each one is
replaced in its defining module and under every name another zenopure module
bound it to (``engine.hermitian_eigendecompose``, ``cli.top_k_eigenpairs``,
``cli.unitary_exponential``, ...), so a call is seen whichever name it goes
through. No file of the package changes. Spans are (name, start, end, parent,
task, counts); a span's self time is its duration minus that of its children.
Traced calls must come from one thread: the span stack is not shared safely.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

#: module -> public functions the traced run wraps.
LAYERS = {
    "linalg": ("hermitian_eigendecompose", "unitary_exponential", "top_k_eigenpairs"),
    "engine": ("build_projected_propagator", "spectral_report", "run_purification",
               "trace_distance", "zeno_limit_scan"),
    "oscillator": ("build_hamiltonian", "factorized_propagator", "closed_form_propagator",
                   "closed_form_rho"),
    "config": ("load_config", "load_matrix_file"),
}
CLI_KINDS = ("figure1", "spectrum", "purify", "compare", "zeno")


def _counts(name: str, args: dict, result) -> dict:
    """Counts recorded with a span, measured at the boundary where the work is."""
    if name == "linalg.hermitian_eigendecompose":
        return {"dim": int(np.shape(args["m"])[0])}
    if name == "linalg.top_k_eigenpairs":
        return {"requested": int(args["k"]), "returned": len(result.pairs),
                "refused": int(result.truncated)}
    if name == "engine.run_purification":
        return {"steps": len(result.steps) - 1}
    if name == "engine.zeno_limit_scan":
        return {"points": len(result)}
    if name == "config.load_matrix_file":
        return {"bytes": os.path.getsize(args["path"])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._open = []
        self._patched = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task, {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, counts: dict) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = counts
        self._open.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, {"raised": 1})
                raise
            self.end(index, _counts(name, signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "zenopure" or n.startswith("zenopure.")]
        for module_name, names in LAYERS.items():
            home = sys.modules[f"zenopure.{module_name}"]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _median_ms(values: list) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer(spans: list, rounds: int, task_kinds: dict, untraced_ms: dict) -> dict:
    """Per-layer metrics, name -> (value, unit).

    ``.ms`` and ``.self_ms`` are medians per call; counts are per round of
    the workload (every round runs the same tasks, so they are exact);
    ``cli.<kind>.ms`` comes from the untraced round.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, task, counts in spans:
        if parent is not None:
            child[parent] += end - start
    duration, self_time = defaultdict(list), defaultdict(list)
    totals = defaultdict(lambda: defaultdict(float))
    # (root kind, layer) -> calls, for the duplicate-work counters.
    under = defaultdict(int)
    for i, (name, start, end, parent, task, counts) in enumerate(spans):
        duration[name].append(end - start)
        self_time[name].append(end - start - child[i])
        for key, value in counts.items():
            totals[name][key] += value
        if parent is not None:
            under[task_kinds[task], name] += 1
    tasks_of = defaultdict(int)
    for kind in task_kinds.values():
        tasks_of[kind] += 1

    def calls(name):
        return len(duration[name]) / rounds

    def per_task(kind, name):
        return under[kind, name] / tasks_of[kind] if tasks_of[kind] else 0.0

    eigh = "linalg.hermitian_eigendecompose"
    topk = "linalg.top_k_eigenpairs"
    requested = totals[topk]["requested"]
    dims = [c["dim"] for n, *_, c in spans if n == eigh and "dim" in c]
    m = {
        f"{eigh}.ms": (_median_ms(duration[eigh]), "ms"),
        f"{eigh}.calls": (calls(eigh), "count"),
        f"{eigh}.max_dim": (max(dims, default=0), "count"),
        # 9 n^3 real flops for a symmetric eigensolver with vectors (Golub and
        # Van Loan), times 4 for complex arithmetic: a computed count.
        f"{eigh}.computed_gflop": (sum(36.0 * d ** 3 for d in dims) / 1e9 / rounds, "GFLOP"),
        "engine.build_projected_propagator.self_ms":
            (_median_ms(self_time["engine.build_projected_propagator"]), "ms"),
        "engine.build_projected_propagator.calls":
            (calls("engine.build_projected_propagator"), "count"),
        "oscillator.factorized_propagator.ms":
            (_median_ms(duration["oscillator.factorized_propagator"]), "ms"),
        "linalg.unitary_exponential.self_ms":
            (_median_ms(self_time["linalg.unitary_exponential"]), "ms"),
        "oscillator.closed_form_propagator.ms":
            (_median_ms(duration["oscillator.closed_form_propagator"]), "ms"),
        "oscillator.closed_form_rho.ms": (_median_ms(duration["oscillator.closed_form_rho"]), "ms"),
        "oscillator.closed_form_rho.calls": (calls("oscillator.closed_form_rho"), "count"),
        "oscillator.build_hamiltonian.ms": (_median_ms(duration["oscillator.build_hamiltonian"]), "ms"),
        f"{topk}.ms": (_median_ms(duration[topk]), "ms"),
        f"{topk}.calls": (calls(topk), "count"),
        f"{topk}.pairs_requested": (requested / rounds, "count"),
        f"{topk}.pairs_returned": (totals[topk]["returned"] / rounds, "count"),
        f"{topk}.useful_ratio": (totals[topk]["returned"] / requested if requested else 0.0, "ratio"),
        f"{topk}.refusals": (totals[topk]["refused"] / rounds, "count"),
        "engine.spectral_report.self_ms": (_median_ms(self_time["engine.spectral_report"]), "ms"),
        "engine.run_purification.self_ms": (_median_ms(self_time["engine.run_purification"]), "ms"),
        "engine.run_purification.steps": (totals["engine.run_purification"]["steps"] / rounds, "count"),
        "engine.trace_distance.ms": (_median_ms(duration["engine.trace_distance"]), "ms"),
        "engine.trace_distance.calls": (calls("engine.trace_distance"), "count"),
        "engine.zeno_limit_scan.self_ms": (_median_ms(self_time["engine.zeno_limit_scan"]), "ms"),
        "engine.zeno_limit_scan.points": (totals["engine.zeno_limit_scan"]["points"] / rounds, "count"),
        "config.load_config.ms": (_median_ms(duration["config.load_config"]), "ms"),
        "config.load_matrix_file.ms": (_median_ms(duration["config.load_matrix_file"]), "ms"),
        "config.load_matrix_file.bytes": (totals["config.load_matrix_file"]["bytes"] / rounds, "bytes"),
    }
    for kind in CLI_KINDS:
        m[f"cli.{kind}.ms"] = (untraced_ms.get(kind, 0.0), "ms")
        m[f"cli.{kind}.self_ms"] = (_median_ms(self_time[f"cli.{kind}"]), "ms")
    m["dup.compare.eigh_calls"] = (per_task("compare", eigh), "count")
    m["dup.spectrum.top_k_calls"] = (per_task("spectrum", topk), "count")
    m["dup.compare.top_k_calls"] = (per_task("compare", topk), "count")
    for kind in CLI_KINDS:
        m[f"dup.{kind}.build_projected_propagator_calls"] = (
            per_task(kind, "engine.build_projected_propagator"), "count")
    return m
