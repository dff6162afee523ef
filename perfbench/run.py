"""Benchmark of the ILP postpass scheduler: compile cost, code quality,
correctness and serving, in one command.

Run from the repository root::

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload paper_scale --seed 3
    python3 perfbench/run.py --workload loop_corpus --trace 1
    python3 perfbench/run.py --manifest           # rewrite BENCHMARK.json

Each run prints its metrics by name with their units, the routines or
requests that failed, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of an untraced run; ``--trace 1`` reports the
per-layer metrics of a traced run.  The full record (Table-2 rows, the
``ScheduleFeatures`` used, the layer table with self times, the failure
list) is written to ``.bench_build/perfbench/``.  See
``perfbench/README.md``.

The measuring process is started with ``PYTHONHASHSEED`` pinned, because
HiGHS wall time follows Python's hash order, and with ``REPRO_*``
variables removed, so tracing is off unless the run asks for it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"
CHILD_MARK = "PERFBENCH_MEASURING"
OUT_DIR = os.path.join(".bench_build", "perfbench")
WORKLOAD_NAMES = [
    name for name, _why in catalog.WORKLOADS + catalog.EXTRA_WORKLOADS
]


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark of the ILP postpass scheduler.",
    )
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES + ["all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(catalog.RUN_SECONDS)
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--manifest", action="store_true",
        help="write BENCHMARK.json from perfbench/catalog.py and exit",
    )
    return parser.parse_args(argv)


def _measuring_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        CHILD_MARK: "1",
    })
    return env


def _relaunch(args):
    """Run each requested workload in a fresh, pinned interpreter."""
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        rc = subprocess.run(cmd, env=_measuring_env(), cwd=ROOT).returncode
        status = status or rc
    return status


def _report(record, args):
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    measured = record["metrics"]
    if not args.trace:
        missing = [name for name, *_ in wanted if name not in measured]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
    # A layer that does no work on this workload reports 0.
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit, *_ in wanted
    }
    print(
        f"workload {record['workload']}  seed {args.seed}  "
        f"trace {args.trace}  PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}"
    )
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    _print_rows(record)
    failures = record["failures"]
    print(
        f"failed {record['failed']} of {record['attempted']} attempted "
        f"(failed_frac {record['failed'] / record['attempted']:.4f})"
    )
    for label, problems in failures.items():
        print(f"  {label}: {'; '.join(problems[:3])}")
    for line in record.get("notes", []):
        print(f"note: {line}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
    )
    record["python_hash_seed"] = os.environ["PYTHONHASHSEED"]
    record["seed"] = args.seed
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    print(f"record: {path}")
    print(json.dumps({
        "correct": bool(record.get("correct", True)),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))


def _print_rows(record):
    """Table-2-shaped rows and the features that differ from defaults."""
    from repro.sched.scheduler import ScheduleFeatures

    import compile_bench

    defaults = compile_bench.features_record(ScheduleFeatures())
    changed = {
        k: v for k, v in record["features"].items() if defaults.get(k) != v
    }
    print(f"features (non-default; all in the record): {changed}")
    print(
        "rows/cols: phase-1 model before presolve, under the features' "
        f"max_hops={record['features']['max_hops']}"
    )
    print(
        f"  {'routine':14s} {'rows':>7s} {'cols':>6s} {'nodes':>5s} "
        f"{'phase1_s':>9s} {'quality':>9s} {'static_red':>10s}"
    )
    for row in record["routines"]:
        print(
            f"  {row['routine']:14s} {str(row['rows']):>7} "
            f"{str(row['cols']):>6} {str(row['nodes']):>5} "
            f"{row['phase1_s']:>9.3f} {row['quality']:>9s} "
            f"{row['static_reduction']:>10.3f}"
        )


def _measure(args):
    # The program's imports are part of set-up; a process makes them once.
    started = time.perf_counter()
    if args.workload == "fleet_mix":
        import fleet_bench

        import_s = time.perf_counter() - started
        record = fleet_bench.run(args.seed, args.seconds, args.trace, import_s)
    else:
        import compile_bench

        import_s = time.perf_counter() - started
        record = compile_bench.run(
            args.workload, args.seed, args.seconds, args.trace, import_s
        )
    _report(record, args)
    return 0


def main(argv=None):
    args = _parse(argv)
    if args.manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            handle.write(catalog.manifest_text())
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the program's source (src/repro) is missing; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if os.environ.get(CHILD_MARK) != "1" or args.workload == "all":
        return _relaunch(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())
