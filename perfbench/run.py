"""zenoanneal benchmark: one workload, one seed, a closed loop of sweep calls.

    python3 perfbench/run.py --workload mis-pure --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client issues sweep calls back to back in
this process (the experiment drivers run with ``threads=1`` and BLAS is
pinned to one thread), each call is timed, and every output is checked.  The
last line of standard output is the result object; the line before it holds
the environment and the details behind the metrics.

Times are scaled to a reference machine speed.  On a shared host the same op
runs up to twice as slow while other tenants are busy, for stretches longer
than a run, so raw wall time follows their load.  A fixed calibration unit
that the program never touches runs before the first op and after every op;
each op's time is scaled by how long the two units around it took (see
``Calibration``).  The raw wall-clock figures are on the info line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then with spans around every layer call, and reports the
per-layer metrics plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # this process and its children only

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Set-up repetitions before and after the timed loop; setup_s is their
# median.  Spreading them over the run makes setup_s reflect the run's
# window rather than the machine's speed in its first second.
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 2
PREGENERATED_OPS = 64
# Reference comparison tolerance for floats (integers and strings: exact).
REF_RTOL = 1e-6
REF_ATOL = 1e-8
# op_tail_s is the op time with this many slower ops beyond it.
TAIL_BEYOND = 10
# A calibration unit takes this long at the reference machine speed.
CAL_REFERENCE_S = 0.0025


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "zenoanneal", "__init__.py")):
        sys.exit(f"perfbench: no zenoanneal sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import zenoanneal
    if not os.path.abspath(zenoanneal.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported zenoanneal from {zenoanneal.__file__}, not {SRC}")


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing the package, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zenoanneal.experiments"],
                   env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def load_refs(workload: str, seed: int):
    path = os.path.join(REF_DIR, f"{workload}.json")
    with open(path) as fh:
        data = json.load(fh)
    return data["seeds"].get(str(seed), [])


def compare_rows(rows, ref) -> list[str]:
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    bad = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        if len(row) != len(want):
            bad.append(f"row {i} has {len(row)} fields, reference {len(want)}")
            continue
        for got, exp in zip(row, want):
            if isinstance(exp, float) or isinstance(got, float):
                same = (math.isnan(got) and math.isnan(exp)) or math.isclose(
                    got, exp, rel_tol=REF_RTOL, abs_tol=REF_ATOL)
            else:
                same = got == exp
            if not same:
                bad.append(f"row {i}: {got!r} != reference {exp!r}")
                break
    return bad


def jsonable(rows) -> list:
    return [[v.item() if hasattr(v, "item") else v for v in row] for row in rows]


def clear_program_caches(modules) -> None:
    """Empty the program's lru caches so each set-up repetition starts cold."""
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def set_up(workload, seed: int, modules, calibration):
    """Imports, input generation, reference loading and warm-up, from cold
    program caches.  Returns (wall seconds, seconds at the reference speed,
    ops, references)."""
    before = calibration.unit()
    clear_program_caches(modules)
    import_s = fresh_import_seconds()
    t0 = time.perf_counter()
    ops = [workload.make_op(seed, i) for i in range(PREGENERATED_OPS)]
    refs = load_refs(workload.name, seed)
    workload.warm_up()
    wall = import_s + time.perf_counter() - t0
    return wall, calibration.scaled(wall, before, calibration.unit()), ops, refs


class Calibration:
    """A fixed unit of work, independent of the program, timed between ops.

    It mixes what the program spends its time on: interpreted arithmetic,
    small complex NumPy updates, a dense complex matmul and a sparse
    mat-vec.  ``scaled(seconds, before, after)`` turns a wall time measured
    between two units into the time it would take at the reference speed,
    where one unit takes ``CAL_REFERENCE_S``.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        self.dense = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self.small = np.ones(64, complex)
        self.sparse = sp.random(400, 400, density=0.02, random_state=0, format="csr")
        self.vec = np.ones(400)
        self.unit()  # first call pays one-off dispatch costs

    def unit(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        v = self.small
        for _ in range(400):
            v = v * 0.999 + 0.001j
        for _ in range(20):
            self.dense @ self.dense
        for _ in range(200):
            self.sparse @ self.vec
        return time.perf_counter() - t0

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        return seconds * 2.0 * CAL_REFERENCE_S / (before + after)


class Loop:
    """Closed loop with one client: each op starts when the previous one ends.

    With a tracer, every op runs twice back to back, untraced then traced,
    so slow drifts of the machine's speed hit both sides of the overhead
    comparison alike.
    """

    def __init__(self, workload, seed: int, ops, refs, tracer=None, calibration=None):
        self.workload, self.seed, self.ops, self.refs = workload, seed, ops, refs
        self.tracer, self.calibration = tracer, calibration
        # Indexed by op index; the op's class is index % len(CLASSES).
        # cal_seconds[i] and cal_seconds[i + 1] are the units around op i.
        self.durations: list[float] = []
        self.cal_seconds: list[float] = []
        self.traced_durations: list[float] = []
        self.points: list[int] = []
        self.kept_traced_drive_rows = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _op(self, index: int):
        if index < len(self.ops):
            return self.ops[index]
        return self.workload.make_op(self.seed, index)

    def run_one(self, index: int, traced: bool) -> None:
        op = self._op(index)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(index):
                    rows = self.workload.run(op)
            else:
                rows = self.workload.run(op)
            problems = []
        except Exception as exc:  # a failing op is counted, never aborts the run
            rows, problems = [], [f"raised {type(exc).__name__}: {exc}"]
        (self.traced_durations if traced else self.durations).append(
            time.perf_counter() - t0)
        if not problems:
            try:
                rows = jsonable(rows)
                problems = self.workload.check(op, rows)
                if index < len(self.refs):
                    problems += compare_rows(self.workload.reference_view(rows),
                                             self.refs[index])
            except Exception as exc:  # malformed output fails the op, not the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"op {index}: " + "; ".join(problems[:3]))
            rows = []
        if traced:
            self.kept_traced_drive_rows += sum(
                1 for r in rows if r[0] in ("sweep", "markov", "tpa_ref"))
        else:
            self.points.append(len(rows))

    def run_for(self, seconds: float) -> None:
        """Issue whole rounds of ops (one per class) while the next round is
        predicted, from the previous one, to end within ``seconds``.

        Whole rounds give every run the same mix of op classes, whatever the
        number of rounds; the first round always runs.
        """
        n_classes = len(self.workload.CLASSES)
        start = time.perf_counter()
        index = 0
        if self.calibration is not None:
            self.cal_seconds.append(self.calibration.unit())
        while True:
            if index and index % n_classes == 0:
                last_round = (sum(self.durations[-n_classes:])
                              + sum(self.traced_durations[-n_classes:]))
                if time.perf_counter() - start + last_round > seconds:
                    break
            self.run_one(index, traced=False)
            if self.calibration is not None:
                self.cal_seconds.append(self.calibration.unit())
            if self.tracer is not None:
                self.run_one(index, traced=True)
            index += 1


def tail(durations):
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it; the slowest op when the run is too short."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND slower ops
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "git_rev": git_rev()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_out(name: str, payload) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mis-pure", "qubo-wide", "density-sweep", "drive-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    calibration = Calibration()
    setup_wall, setup_scaled = [], []

    def set_up_once():
        wall, scaled, ops, refs = set_up(workload, args.seed, tracing.ZENOANNEAL_MODULES,
                                         calibration)
        setup_wall.append(wall)
        setup_scaled.append(scaled)
        return ops, refs

    for _ in range(SETUP_REPS_BEFORE):
        ops, refs = set_up_once()
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), "setup_reps_wall_s": setup_wall,
            "setup_reps_scaled_s": setup_scaled, "reference_ops": len(refs)}

    if args.trace == 0:
        loop = Loop(workload, args.seed, ops, refs, calibration=calibration)
        loop.run_for(args.seconds)
        for _ in range(SETUP_REPS_AFTER):
            set_up_once()
        n_classes = len(workload.CLASSES)
        cal = loop.cal_seconds
        scaled = [Calibration.scaled(d, cal[i], cal[i + 1])
                  for i, d in enumerate(loop.durations)]
        op_s = [statistics.median(scaled[c::n_classes]) for c in range(n_classes)]
        points = [statistics.fmean(loop.points[c::n_classes]) for c in range(n_classes)]
        metrics = {
            "points_per_s": metric(sum(points) / sum(op_s), "1/s"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
        value, pct, beyond = tail(loop.durations)
        info["class_median_scaled_s"] = op_s
        info["class_ops"] = [len(loop.durations[c::n_classes]) for c in range(n_classes)]
        info["wall_clock"] = {
            "points_per_s": sum(loop.points) / sum(loop.durations),
            "op_p50_s": statistics.median(loop.durations),
            "op_tail_s": value, "op_tail_percentile": pct, "op_tail_beyond": beyond,
            "setup_s": statistics.median(setup_wall)}
        info["calibration"] = {"reference_s": CAL_REFERENCE_S, "units": len(cal),
                               "median_s": statistics.median(cal), "min_s": min(cal)}
        info["op_seconds"] = loop.durations
        info["cal_seconds"] = cal
    else:
        before = tracing.snapshot()
        tracer = tracing.Tracer()
        loop = Loop(workload, args.seed, ops, refs, tracer)
        loop.run_for(args.seconds)
        if tracing.snapshot() != before:
            sys.exit("perfbench: a zenoanneal attribute was not restored after tracing")
        spans = tracer.spans
        metrics = {k: metric(v, u) for k, (v, u) in tracing.layer_metrics(
            spans, len(loop.traced_durations), loop.kept_traced_drive_rows).items()}
        metrics["trace.overhead_frac"] = metric(
            sum(loop.traced_durations) / sum(loop.durations) - 1.0, "ratio")
        info["self_s_by_layer"] = tracing.self_time_by(spans, lambda n: n.split(".")[0])
        info["self_s_by_span"] = tracing.self_time_by(spans, lambda n: n)
        write_out(f"spans-{workload.name}-seed{args.seed}.json",
                  {"fields": ["name", "start", "end", "parent", "op", "attrs"],
                   "spans": spans})

    attempted = loop.attempted
    failed = len(loop.failures)
    info["failed_frac"] = metric(failed / attempted, "ratio")
    info["failures"] = loop.failures[:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_out(f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json",
              {"perfbench": info, "result": result})
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
