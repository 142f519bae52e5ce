"""Self-test of the benchmark harness at toy size.

    python3 bench/selftest.py

It checks that
- every workload runs untraced and traced at toy size (oscillator cutoff 12,
  a 2x20 explicit H), passes its correctness gate, and emits exactly the
  metrics BENCHMARK.json names for that mode, each with its unit;
- the gate flags a deliberately corrupted output of every task kind: a
  changed digit in each toy output file, and a ``compare`` report with
  ``status = breach`` or a non-zero exit (the toy round leaves ``compare``
  out, because it breaches its truncation tolerances at cutoff 12);
- run.py exits non-zero without printing a result in a directory that holds
  only BENCHMARK.json and bench/.
It prints one line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, RUN, "--workload", workload["name"], "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                fail(f"{workload['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{workload['name']} trace {trace}: gate failed\n{proc.stdout}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload['name']} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                     f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
            print(f"ok   {workload['name']} trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} tasks passed")


def corrupt_file(path: str) -> None:
    """Change the first digit of the first line after the header."""
    with open(path, encoding="utf-8") as fh:
        head, line, rest = fh.read().split("\n", 2)
    match = re.search(r"\d", line)
    digit = str((int(match.group()) + 1) % 10)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([head, line[:match.start()] + digit + line[match.end():], rest]))


def check_gate() -> None:
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    for name, (prepare, build) in workloads.WORKLOADS.items():
        workdir = os.path.join(WORK, name)
        os.makedirs(workdir)
        workload = build(workdir, 5, ROOT, True, prepare(workdir, 5, ROOT, True))
        for task in {t.kind: t for t in workload.tasks}.values():
            if task.check(task.run()):
                fail(f"{name}: clean {task.kind} output flagged")
            code = task.run()
            corrupt_file(os.path.join(workdir, task.kind + ".out"))
            if not task.check(code):
                fail(f"{name}: corrupted {task.kind} output passed the gate")
            print(f"ok   {name}: corrupted {task.kind} output is flagged")

    report = "cutoff = 30\nstatus = {}\n"
    if workloads.compare_check(0, report.format("ok")):
        fail("compare: a clean report is flagged")
    for label, code, status in (("status = breach", 0, "breach"), ("exit code 3", 3, "ok")):
        if not workloads.compare_check(code, report.format(status)):
            fail(f"compare: a report with {label} passed the gate")
        print(f"ok   compare: a report with {label} is flagged")


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(bare, "bench", "run.py"),
                           "--workload", "oscillator_cli", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=170, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_bare_directory()
    check_metrics(spec)
    check_gate()
    print("selftest passed")


if __name__ == "__main__":
    main()
