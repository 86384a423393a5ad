"""Smoke test of the benchmark itself; takes a few minutes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--seconds 1``, so
each run issues a single round (one op per class), and checks that

* every metric ``BENCHMARK.json`` names is printed with its unit,
* no op failed and every run exits 0,
* installing and restoring the tracer leaves every zenoanneal module and
  traced-class attribute as it was (``run.py --trace 1`` also exits non-zero
  if not),
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec, printed, where) -> list[str]:
    bad = []
    for m in spec:
        got = printed.get(m["name"])
        if got is None:
            bad.append(f"{where}: metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            bad.append(f"{where}: {m['name']} unit {got['unit']!r}, expected {m['unit']!r}")
    extra = set(printed) - {m["name"] for m in spec}
    if extra:
        bad.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return bad


def check_runs(bench) -> list[str]:
    bad = []
    for workload in bench["workloads"]:
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            where = f"{workload['name']} --trace {trace}"
            proc = run_bench(run.ROOT, "--workload", workload["name"], "--seed", "1",
                             "--seconds", "1", "--trace", trace)
            if proc.returncode != 0:
                bad.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{where}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] or not result["correct"]:
                bad.append(f"{where}: attempted {result['attempted']}, "
                           f"failed {result['failed']}")
            bad += check_metrics(spec, result["metrics"], where)
            print(f"ok   {where}", flush=True)
    return bad


def check_restore() -> list[str]:
    run._import_program()
    import tracing
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.snapshot() != before
    finally:
        tracer.restore()
    bad = [] if wrapped else ["installing the tracer changed no attribute"]
    if tracing.snapshot() != before:
        bad.append("zenoanneal attributes differ after the tracer was restored")
    return bad


def check_bare_directory() -> list[str]:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "mis-pure", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without the program's sources the benchmark still printed a result"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = check_restore() + check_bare_directory() + check_runs(bench)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
