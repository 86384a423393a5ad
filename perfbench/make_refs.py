"""Regenerate the stored reference outputs for the default seeds.

    python3 perfbench/make_refs.py                 # all workloads, several minutes
    python3 perfbench/make_refs.py --workload drive-sweep

For every default seed, runs the first ``REF_OPS`` ops of a workload, checks
their invariants, and stores ``reference_view(rows)`` in
``perfbench/refs/<workload>.json``.  Regenerate only when a change is meant
to alter the program's outputs, and say which outputs moved.
"""

from __future__ import annotations

import argparse
import json
import os

import run

DEFAULT_SEEDS = tuple(range(1, 11))
# Two rounds of op classes.
REF_OPS = {"mis-pure": 6, "qubo-wide": 10, "density-sweep": 16, "drive-sweep": 8}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(REF_OPS), action="append")
    args = parser.parse_args()
    run._import_program()
    from workloads import WORKLOADS

    for name in args.workload or sorted(REF_OPS):
        workload = WORKLOADS[name]
        workload.warm_up()
        seeds = {}
        for seed in DEFAULT_SEEDS:
            ops = []
            for index in range(REF_OPS[name]):
                op = workload.make_op(seed, index)
                rows = run.jsonable(workload.run(op))
                problems = workload.check(op, rows)
                if problems:
                    raise SystemExit(f"{name} seed {seed} op {index}: {problems}")
                ops.append(workload.reference_view(rows))
            seeds[str(seed)] = ops
            print(f"{name}: seed {seed} done", flush=True)
        payload = {"workload": name, "ops_per_seed": REF_OPS[name],
                   "rtol": run.REF_RTOL, "atol": run.REF_ATOL, "seeds": seeds}
        with open(os.path.join(run.REF_DIR, f"{name}.json"), "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
