"""Run perfbench and CLI commands in two checkouts; record every run in one BENCH file.

    python3 tools/bench_record.py --parent ../parent --change . \
        --runs mis-pure:1 density-sweep:1:10 density-sweep:104729:6 \
        --cli constraint-sweep:3 --seconds 30 --out BENCH_8.json

Each ``workload:seed[:pairs]`` entry runs ``perfbench/run.py`` in the parent
and in the change checkout, ``pairs`` times each (default 1), alternating
which side runs first; every run is a fresh process started in its
checkout, so it imports that checkout's ``src/``.
Nothing under ``perfbench/`` is modified.  The output keeps, per run, the
environment line (``{"perfbench": ...}``) and the result line that
perfbench prints, and per checkout its commit, whether its tree was dirty,
and the git tree hash of its ``src/`` as it stood when the runs were made.
The summary gives, per entry and end-to-end metric, both sides' quartiles,
the median ratio and how many pairs the change won.

Each ``--cli command[:pairs]`` entry times ``zenoanneal <command>`` at its
default config in both checkouts, in alternating pairs, each run a fresh
process on its checkout's ``src/`` with BLAS pinned to one thread.  Per
pair it records both wall times and whether the two output files are
byte-identical once their ``# config:`` lines (which name the output path)
are dropped, and the numbers of the lines that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git(checkout: str, *args: str, env=None) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True, text=True,
                          capture_output=True, env=env).stdout.strip()


def describe(checkout: str) -> dict:
    """Commit, dirty flag, and the tree hash of ``src/`` in the working tree
    (built in a throwaway index, so the checkout's own index is untouched)."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git(checkout, "add", "src", env=env)
        src_tree = _git(checkout, "write-tree", "--prefix=src/", env=env)
    return {"path": os.path.abspath(checkout),
            "revision": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "src_tree": src_tree}


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, text=True, capture_output=True).stdout
    env_line, result_line = out.strip().splitlines()[-2:]
    return {**json.loads(env_line), "result": json.loads(result_line)}


def run_cli(checkout: str, command: str, out: str) -> float:
    """Wall seconds of ``zenoanneal <command> --out <out>`` run from ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               **BLAS_PIN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "zenoanneal.cli", command, "--out", out],
                   cwd=checkout, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def output_lines(path: str) -> list[bytes]:
    """The lines of an output file without its ``# config:`` line."""
    with open(path, "rb") as fh:
        return [line for line in fh if not line.startswith(b"# config:")]


def cli_pairs(checkouts: dict[str, str], command: str, pairs: int) -> dict:
    """Alternating parent/change runs of one CLI command, with a summary."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            seconds, outs = {}, {}
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                outs[name] = os.path.join(tmp, f"{name}_{i}.csv")
                seconds[name] = run_cli(checkouts[name], command, outs[name])
            lines = {name: output_lines(path) for name, path in outs.items()}
            differ = [n for n, (a, b) in enumerate(zip(lines["parent"], lines["change"]), 2)
                      if a != b]
            runs.append({"pair": i, "parent_s": seconds["parent"], "change_s": seconds["change"],
                         "identical_without_config_line": lines["parent"] == lines["change"],
                         "differing_line_numbers": differ})
            print(f"cli {command} pair {i}: {json.dumps(runs[-1])}", file=sys.stderr)
    parent = statistics.median(r["parent_s"] for r in runs)
    change = statistics.median(r["change_s"] for r in runs)
    return {"command": command, "config": "default", "blas_threads": 1,
            "nproc": os.cpu_count(), "pairs": pairs,
            "runs": runs, "parent_median_s": parent, "change_median_s": change,
            "speedup": parent / change,
            "change_wins": sum(r["change_s"] < r["parent_s"] for r in runs),
            "identical_without_config_line": all(r["identical_without_config_line"]
                                                 for r in runs)}


def _cli_entry(text: str) -> tuple[str, int]:
    """command or command:pairs."""
    command, *repeats = text.split(":")
    return command, int(repeats[0]) if repeats else 1


def _pair(text: str) -> tuple[str, int, int]:
    """workload:seed or workload:seed:pairs."""
    workload, seed, *repeats = text.split(":")
    return workload, int(seed), int(repeats[0]) if repeats else 1


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def better_signs(checkout: str) -> dict[str, int]:
    """+1 for each end-to-end metric of BENCHMARK.json where higher is
    better, -1 where lower is."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: 1 if m["better"] == "higher" else -1
                for m in json.load(fh)["end_to_end"]}


def summarize(runs, workload: str, seed: int, better_by: dict[str, int]) -> list[dict]:
    """Per end-to-end metric: each side's quartiles and how many pairs the
    change won (ties count for neither side)."""
    sides = {name: [r["result"]["metrics"] for r in runs
                    if (r["workload"], r["seed"], r["checkout"]) == (workload, seed, name)]
             for name in ("parent", "change")}
    out = []
    for metric, first in sides["parent"][0].items():
        better = better_by[metric]
        values = {name: [m[metric]["value"] for m in ms] for name, ms in sides.items()}
        wins = sum((c - p) * better > 0 for p, c in zip(values["parent"], values["change"]))
        out.append({"workload": workload, "seed": seed, "metric": metric,
                    "unit": first["unit"], "better": "higher" if better > 0 else "lower",
                    "pairs": len(values["parent"]), "change_wins": wins,
                    "parent_quartiles": _quartiles(values["parent"]),
                    "change_quartiles": _quartiles(values["change"]),
                    "median_ratio": (statistics.median(values["change"])
                                     / statistics.median(values["parent"]))})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--runs", nargs="*", type=_pair, default=[],
                        help="workload:seed[:pairs] entries")
    parser.add_argument("--cli", nargs="*", type=_cli_entry, default=[],
                        help="command[:pairs] entries, each run at its default config")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    record = {name: describe(path) for name, path in checkouts.items()}
    better_by = better_signs(args.change)
    record.update(seconds=args.seconds, runs=[], summary=[])
    for workload, seed, pairs in args.runs:
        for i in range(pairs):
            # alternate which side runs first
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run = run_perfbench(checkouts[name], workload, seed, args.seconds)
                record["runs"].append({"checkout": name, "workload": workload,
                                       "seed": seed, "pair": i, **run})
                print(f"{workload} seed {seed} pair {i} {name}: "
                      f"{json.dumps(run['result']['metrics'])}", file=sys.stderr)
        record["summary"] += summarize(record["runs"], workload, seed, better_by)
    record["cli"] = [cli_pairs(checkouts, command, pairs) for command, pairs in args.cli]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
