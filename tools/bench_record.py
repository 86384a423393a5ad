"""Run perfbench and CLI commands in two checkouts; record every run in one BENCH file.

    python3 tools/bench_record.py --parent ../parent --change . \
        --runs mis-pure:1 density-sweep:1:10 density-sweep:104729:6 \
        --cli constraint-sweep:3 "drive-sweep:3=--eta-ratios 0 --gammas 2,30" \
        --tier1 3 --seconds 30 --out BENCH_8.json

Each ``workload:seed[:pairs]`` entry runs ``perfbench/run.py`` in the parent
and in the change checkout, ``pairs`` times each (default 1), alternating
which side runs first; every run is a fresh process started in its
checkout, so it imports that checkout's ``src/``.
Nothing under ``perfbench/`` is modified.  The output keeps, per run, the
environment line (``{"perfbench": ...}``) and the result line that
perfbench prints, and per checkout its commit, whether its tree was dirty,
and the git tree hash and line count of its ``src/`` as it stood when the
runs were made.
The summary gives, per entry and end-to-end metric, and per op class's
median calibration-scaled seconds (``class_median_scaled_s[c]``, so that a
record names the class that moved), both sides' quartiles, the median ratio
and how many pairs the change won.

Each ``--cli command[:pairs][=flags]`` entry times ``zenoanneal <command>``
at its default config, or with ``flags`` (split as a shell would) on top of
it, in both checkouts, in alternating pairs, each run a fresh process on its
checkout's ``src/``, with the BLAS thread variables it inherits (the record
keeps them; where they are unset the package pins one thread as it loads).  Per
pair it records both wall times and whether the two output files are
byte-identical once their ``# config:`` lines (which name the output path)
are dropped, and the numbers of the lines that differ.

Each ``--traced workload:seed[:pairs]`` entry runs ``perfbench/run.py --trace 1``
in both checkouts, alternating, for ``TRACED_SECONDS``: perfbench always runs
its first round, so each run traces one op of every class, and the record
keeps its per-layer metrics and self times.

``--tier1 pairs`` runs the tier-1 command (``TIER1``) in both checkouts, in
alternating pairs, each a fresh process on its checkout's ``src/`` (where
``tests/conftest.py`` pins BLAS as the package does) with pytest writing junit
XML with each case's captured stdout.  Per run it records the wall time, the
exit code, the test counts and, for each acceptance criterion
(``test_acceptance.py::test_criterion_*``), its junit time and the
``ACCEPTANCE n: PASS/FAIL - detail`` line it printed, so a record keeps each
criterion's measured margin; the summary gives both sides' medians of the times.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The repo's tier-1 test command, run from the checkout with its src/ first on PYTHONPATH.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# Keeps each case's captured stdout in the junit XML, where the criteria print their lines.
JUNIT_STDOUT = ["-o", "junit_logging=system-out"]
CRITERION_CLASS, CRITERION_PREFIX = "tests.test_acceptance", "test_criterion_"
# Shorter than any op, so a traced run stops after the round that always runs.
TRACED_SECONDS = 1e-3


def _git(checkout: str, *args: str, env=None) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True, text=True,
                          capture_output=True, env=env).stdout.strip()


def src_lines(checkout: str) -> int:
    """Lines of the ``*.py`` files under ``src/`` in the working tree, as
    ``wc -l`` counts them."""
    total = 0
    for root, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def describe(checkout: str) -> dict:
    """Commit, dirty flag, the tree hash of ``src/`` in the working tree
    (built in a throwaway index, so the checkout's own index is untouched)
    and its line count."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git(checkout, "add", "src", env=env)
        src_tree = _git(checkout, "write-tree", "--prefix=src/", env=env)
    return {"path": os.path.abspath(checkout),
            "revision": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "src_tree": src_tree, "src_lines": src_lines(checkout)}


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, text=True, capture_output=True).stdout
    env_line, result_line = out.strip().splitlines()[-2:]
    return {**json.loads(env_line), "result": json.loads(result_line)}


def blas_env() -> dict:
    """The BLAS thread variables as the runs inherit them (None where unset)."""
    return {var: os.environ.get(var) for var in BLAS_VARS}


def run_cli(checkout: str, command: str, flags: list[str], out: str) -> float:
    """Wall seconds of ``zenoanneal <command> <flags> --out <out>`` run from
    ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "zenoanneal.cli", command, *flags, "--out", out],
                   cwd=checkout, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def output_lines(path: str) -> list[bytes]:
    """The lines of an output file without its ``# config:`` line."""
    with open(path, "rb") as fh:
        return [line for line in fh if not line.startswith(b"# config:")]


def cli_pairs(checkouts: dict[str, str], command: str, pairs: int, flags: list[str]) -> dict:
    """Alternating parent/change runs of one CLI command, with a summary."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            seconds, outs = {}, {}
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                outs[name] = os.path.join(tmp, f"{name}_{i}.csv")
                seconds[name] = run_cli(checkouts[name], command, flags, outs[name])
            lines = {name: output_lines(path) for name, path in outs.items()}
            differ = [n for n, (a, b) in enumerate(zip(lines["parent"], lines["change"]), 2)
                      if a != b]
            runs.append({"pair": i, "parent_s": seconds["parent"], "change_s": seconds["change"],
                         "identical_without_config_line": lines["parent"] == lines["change"],
                         "differing_line_numbers": differ})
            print(f"cli {command} pair {i}: {json.dumps(runs[-1])}", file=sys.stderr)
    parent = statistics.median(r["parent_s"] for r in runs)
    change = statistics.median(r["change_s"] for r in runs)
    return {"command": command, "config": shlex.join(flags) or "default", "blas_env": blas_env(),
            "nproc": os.cpu_count(), "pairs": pairs,
            "runs": runs, "parent_median_s": parent, "change_median_s": change,
            "speedup": parent / change,
            "change_wins": sum(r["change_s"] < r["parent_s"] for r in runs),
            "identical_without_config_line": all(r["identical_without_config_line"]
                                                 for r in runs)}


def run_tier1(checkout: str, xml_path: str) -> dict:
    """Wall seconds, exit code, junit test counts, and per criterion its
    seconds and ``ACCEPTANCE`` line, of one tier-1 run in ``checkout``."""
    src = os.path.join(os.path.abspath(checkout), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1, *JUNIT_STDOUT, f"--junitxml={xml_path}"],
                          cwd=checkout, env=env, capture_output=True)
    wall = time.perf_counter() - t0
    suite = ET.parse(xml_path).getroot()
    suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    criteria = [case for case in suite.iter("testcase")
                if case.get("classname") == CRITERION_CLASS
                and case.get("name").startswith(CRITERION_PREFIX)]
    return {"wall_s": wall, "exit_code": proc.returncode,
            **{k: int(suite.get(k)) for k in ("tests", "failures", "errors", "skipped")},
            "criterion_s": {case.get("name"): float(case.get("time")) for case in criteria},
            "criterion_lines": {case.get("name"): acceptance_lines(case) for case in criteria}}


def acceptance_lines(case: ET.Element) -> list[str]:
    """The ``ACCEPTANCE`` lines a junit test case printed (one for a
    criterion that ran to its check, none for one that failed before it)."""
    out = case.findtext("system-out") or ""
    return [line for line in out.splitlines() if line.startswith("ACCEPTANCE ")]


def tier1_pairs(checkouts: dict[str, str], pairs: int) -> dict:
    """Alternating parent/change tier-1 runs, with both sides' medians."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            run = {"pair": i}
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run[name] = run_tier1(checkouts[name], os.path.join(tmp, f"{name}_{i}.xml"))
            runs.append(run)
            print(f"tier1 pair {i}: {json.dumps(run)}", file=sys.stderr)
    median = {name: {"wall_s": statistics.median(r[name]["wall_s"] for r in runs),
                     "criterion_s": {c: statistics.median(r[name]["criterion_s"][c]
                                                          for r in runs)
                                     for c in runs[0][name]["criterion_s"]}}
              for name in ("parent", "change")}
    return {"command": shlex.join(["python", *TIER1]), "blas_env": blas_env(),
            "nproc": os.cpu_count(), "pairs": pairs, "runs": runs, "median": median}


def _cli_entry(text: str) -> tuple[str, int, list[str]]:
    """command, command:pairs, either followed by =flags."""
    head, _, flags = text.partition("=")
    command, *repeats = head.split(":")
    return command, int(repeats[0]) if repeats else 1, shlex.split(flags)


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
    """Per end-to-end metric, and per op class as ``class_median_scaled_s[c]``
    (that class's median calibration-scaled seconds, lower is better): each
    side's quartiles, the median ratio and how many pairs the change won
    (ties count for neither side)."""
    sides = {name: [r for r in runs
                    if (r["workload"], r["seed"], r["checkout"]) == (workload, seed, name)]
             for name in ("parent", "change")}
    first = sides["parent"][0]
    series = [(metric, m["unit"], better_by[metric],
               lambda r, metric=metric: r["result"]["metrics"][metric]["value"])
              for metric, m in first["result"]["metrics"].items()]
    series += [(f"class_median_scaled_s[{c}]", "s", -1,
                lambda r, c=c: r["perfbench"]["class_median_scaled_s"][c])
               for c in range(len(first["perfbench"]["class_median_scaled_s"]))]
    out = []
    for metric, unit, better, value_of in series:
        values = {name: [value_of(r) for r in rs] for name, rs in sides.items()}
        wins = sum((c - p) * better > 0 for p, c in zip(values["parent"], values["change"]))
        out.append({"workload": workload, "seed": seed, "metric": metric,
                    "unit": unit, "better": "higher" if better > 0 else "lower",
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
                        help="command[:pairs][=flags] entries, run at the default "
                             "config with any flags on top")
    parser.add_argument("--traced", nargs="*", type=_pair, default=[],
                        help="workload:seed[:pairs] entries, each run traced for one round")
    parser.add_argument("--tier1", type=int, default=0, metavar="PAIRS",
                        help="alternating pairs of tier-1 runs with junit XML")
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
    record["traced"] = []
    for workload, seed, pairs in args.traced:
        for i in range(pairs):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run = run_perfbench(checkouts[name], workload, seed, TRACED_SECONDS, trace=1)
                record["traced"].append({"checkout": name, "workload": workload,
                                         "seed": seed, "pair": i, **run})
    record["cli"] = [cli_pairs(checkouts, command, pairs, flags)
                     for command, pairs, flags in args.cli]
    if args.tier1:
        record["tier1"] = tier1_pairs(checkouts, args.tier1)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
