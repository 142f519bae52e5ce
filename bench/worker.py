"""One benchmark run of one workload, in fresh interpreters.

Started by run.py twice, with the BLAS thread count pinned in its environment
and the checkout's ``src`` on PYTHONPATH. With ``--prepare`` it writes the
workload's inputs and references to ``prepared.pkl`` in the work directory,
untimed. Without it, it loads them and one closed-loop client runs the tasks
of a round back to back, round after round, until ``--seconds`` of task time
have passed. Untraced (``--trace 0``) the run gives the end-to-end metrics,
and between tasks, outside the timed calls, it times the import of zenopure
in a fresh interpreter, spread over the run; traced (``--trace 1``) one
untraced round is followed by traced rounds, and the run gives the per-layer
metrics, the tracing overhead and a check that every output is
byte-identical with and without tracing. The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: Fresh-interpreter imports timed per untraced run for ``setup_s``.
SETUP_SAMPLES = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import zenopure; "
              "print(repr(time.perf_counter() - t))")


def load_package(root: str) -> None:
    import zenopure

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(zenopure.__file__).startswith(src):
        sys.exit(f"zenopure was imported from {zenopure.__file__}, not from {src}")


def round_count(seconds: float, round_s: float) -> int:
    """Whole rounds that fill ``seconds`` most closely; at least one."""
    return max(1, round(seconds / round_s))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SetupSampler:
    """Times ``import zenopure`` in a fresh interpreter, spread over the run.

    Called after each task with the task time so far, it takes a sample
    whenever another ``seconds / SETUP_SAMPLES`` of task time has passed, so
    the samples cover the whole run rather than one moment of it; ``finish``
    tops them up to SETUP_SAMPLES. The time is taken inside the child (a
    timed wait on it would round to the polling interval).
    """

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_SAMPLES
        self.times = []

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                              capture_output=True, text=True, timeout=60)
        self.times.append(float(proc.stdout))

    def __call__(self, busy: float) -> None:
        if busy >= len(self.times) * self.interval and len(self.times) < SETUP_SAMPLES:
            self.sample()

    def finish(self) -> list:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return self.times


def run_rounds(workload, seconds: float, tracer=None, first_round: int = 0,
               between=None) -> list:
    """Whole rounds while that brings the run's task time closer to ``seconds``.

    Stopping at the nearest whole round, not the first one past the mark,
    keeps the round count away from its boundary when a round takes about
    as long as the run. ``between(busy)`` is called after each task, outside
    the timed call, with the task time so far.
    """
    rounds, busy = [], 0.0
    while not rounds or len(rounds) < round_count(seconds, busy / len(rounds)):
        records = []
        for index, task in enumerate(workload.tasks):
            root = None
            if tracer is not None:
                tracer.task = (first_round + len(rounds), index)
                root = tracer.begin("cli." + task.kind)
            raw, error = None, None
            t0 = time.perf_counter()
            try:
                raw = task.run()
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            if tracer is not None:
                tracer.end(root, {})
            if error is None:
                output, problems = task.output(raw), task.check(raw)
            else:
                output, problems = b"", [f"{task.kind} raised: {error}"]
            records.append({"kind": task.kind, "s": elapsed, "output": output,
                            "problems": problems})
            if between is not None:
                between(busy)
        rounds.append(records)
    return rounds


def tail(samples: list, nominal_count: int) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    The percentile is fixed from the task count a run of this length made
    when the benchmark was defined, so that it does not move with the run's
    own count. With twenty samples or fewer that percentile is at or below
    the median, which is no tail, and the tail is the maximum.
    """
    import numpy as np

    p = 100.0 if nominal_count <= 20 else math.floor(1000 * (1 - 10 / nominal_count)) / 10
    value = float(np.percentile(samples, p))
    return p, value, sum(1 for s in samples if s > value)


def blas_vendor() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_vendor(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--prepare", action="store_true",
                        help="write the inputs and references to prepared.pkl and exit")
    args = parser.parse_args()

    load_package(args.root)
    import workloads
    import tracer as tracing

    prepare, build = workloads.WORKLOADS[args.workload]
    prepared_path = os.path.join(args.workdir, "prepared.pkl")
    if args.prepare:
        t0 = time.perf_counter()
        refs = prepare(args.workdir, args.seed, args.root, args.toy)
        with open(prepared_path, "wb") as fh:
            pickle.dump({"refs": refs, "prepare_s": time.perf_counter() - t0,
                         "rss_mb": peak_rss_mb()}, fh)
        return
    with open(prepared_path, "rb") as fh:
        prepared = pickle.load(fh)
    workload = build(args.workdir, args.seed, args.root, args.toy, prepared["refs"])
    del prepared["refs"]
    # The harness's own high-water mark before the program runs: the timed
    # run's peak_rss_mb is the program's only where it lies above this.
    harness_rss_mb = peak_rss_mb()
    for task in workload.warmup:
        task()

    result = {"env": environment(args), "info": workload.info,
              "prepare_s": prepared["prepare_s"],
              "rss_mb": {"prepare": prepared["rss_mb"], "harness": harness_rss_mb}}
    metrics = {}
    if args.trace == 0:
        sampler = SetupSampler(args.seconds)
        rounds = run_rounds(workload, args.seconds, between=sampler)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        result["setup_s"] = sampler.finish()
    else:
        rounds = run_rounds(workload, 0.0)
        untraced = rounds[0]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, args.seconds - sum(r["s"] for r in untraced),
                                tracer, first_round=1)
        finally:
            tracer.uninstall()
        rounds += traced
        mismatched = [r["kind"] for t in traced for r, u in zip(t, untraced)
                      if r["output"] != u["output"]]
        kinds = {(i, j): r["kind"] for i, rnd in enumerate(traced, start=1)
                 for j, r in enumerate(rnd)}
        untraced_ms = {}
        for r in untraced:
            untraced_ms[r["kind"]] = untraced_ms.get(r["kind"], 0.0) + 1e3 * r["s"]
        metrics = tracing.per_layer(tracer.spans, len(traced), kinds, untraced_ms)
        busy = [sum(r["s"] for r in rnd) for rnd in traced]
        metrics["trace.overhead_ms"] = (
            1e3 * (statistics.median(busy) - sum(r["s"] for r in untraced)), "ms")
        metrics["trace.outputs_identical"] = (float(not mismatched), "count")
        jobs2_ms = 0.0
        if workload.jobs2 is not None:
            t = time.perf_counter()
            workload.jobs2()
            jobs2_ms = 1e3 * (time.perf_counter() - t)
        metrics["engine.zeno_limit_scan.jobs2_ms"] = (jobs2_ms, "ms")
        result["mismatched_outputs"] = mismatched
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    records = [r for rnd in rounds for r in rnd]
    problems = [p for r in records for p in r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    attempted = len(records)
    final = workload.final_checks()
    if args.trace == 1:
        final["outputs_identical_with_tracing"] = [
            f"{kind} output differs" for kind in result["mismatched_outputs"]]
    for name, found in final.items():
        attempted += 1
        failed += bool(found)
        problems += [f"{name}: {p}" for p in found]

    samples = [r["s"] for r in records]
    nominal = len(workload.tasks) * round_count(args.seconds, workload.nominal_round_s)
    p, tail_s, beyond = tail(samples, nominal)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["s"])
    if args.trace == 0:
        metrics = {
            "tasks_per_s": (len(samples) / sum(samples), "1/s"),
            "task_p50_ms": (1e3 * statistics.median(samples), "ms"),
            "task_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": metrics["peak_rss_mb"],
            "setup_s": (statistics.median(result["setup_s"]), "s"),
        }
    result.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "rounds": len(rounds),
        "tail": {"percentile": p, "samples": len(samples), "beyond": beyond},
        "kind_median_ms": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "samples": [[i, j, r["kind"], r["s"]] for i, rnd in enumerate(rounds)
                    for j, r in enumerate(rnd)],
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
