"""Benchmark of zenopure: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout is the parent of this
file's directory. The run prepares the workload's inputs and references in
one child interpreter (worker.py --prepare), then runs the workload in a
second, fresh one (worker.py), both with BLAS pinned to one thread. The
untraced run also times ``setup_s``, the import of zenopure in a fresh
interpreter (what every CLI user pays), many times spread over the run. It
prints an environment line, every metric by name with its
unit, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced,
the per-layer metrics traced. Scratch files go under ``.bench_work/`` in the
checkout. Workloads and metrics are listed in BENCHMARK.json and explained
in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
WORKLOADS = ("oscillator_cli", "explicit_dense")
#: Every thread-count variable a BLAS or OpenMP runtime may read.
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
#: A run must end within this many seconds, child included.
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, without searching the directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(argv: list, cwd: str, deadline: float) -> None:
    """Run a child in its own process group; on timeout stop the whole group
    (the child's own import probes too) and wait for it."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=cwd,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code:
        raise subprocess.CalledProcessError(code, argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "zenopure", "__init__.py")):
        print(f"error: no zenopure package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{args.trace}{'-toy' if args.toy else ''}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", ROOT, "--workdir", workdir, "--result", result_path]
    if args.toy:
        argv.append("--toy")
    try:
        for extra in (["--prepare"], []):
            run_child(argv + extra, workdir, deadline)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: workload run failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    env_block = dict(result["env"], commit=git_commit())
    print("environment " + json.dumps(env_block, sort_keys=True))
    print("workload " + json.dumps(result["info"], sort_keys=True))
    print(f"prepare_s = {result['prepare_s']:.3f} s (inputs and references, untimed)")
    rss = result["rss_mb"]
    print(f"harness_rss_mb = {rss['prepare']:.1f} MB in the preparing process, "
          f"{rss['harness']:.1f} MB in the timed one before the program ran")
    if "setup_s" in result:
        print("setup_runs_s = " + " ".join(f"{s:.4f}" for s in result["setup_s"]))
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for kind, ms in sorted(result["kind_median_ms"].items()):
        print(f"{kind}_ms = {ms:.6g} ms (median per task, import excluded)")
    tail = result["tail"]
    print(f"task_tail_percentile = p{tail['percentile']:g} of {tail['samples']} samples "
          f"({tail['beyond']} beyond it); rounds = {result['rounds']}")
    print(f"failed_fraction = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"gate: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
