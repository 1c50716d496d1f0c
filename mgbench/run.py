"""Benchmark of the mgnet toolkit.

    python3 mgbench/run.py --workload toy --seed 1 --seconds 30 --trace 0
    python3 mgbench/run.py --workload all          # every workload, one process each

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, so nothing needs installing.  With ``--trace 0`` the last line
of standard output is one JSON object with the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the full span table is written under ``mgbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread() -> None:
    """One BLAS thread: on a shared machine a second thread makes the
    large GEMMs several times noisier.  Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    summary = []
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary.append(f"{name}: exit code {proc.returncode}")
            continue
        result = json.loads(lines[-1])
        summary.append(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                       f"failed={result['failed']}")
    print("\n".join(["== summary"] + summary))
    return status


def run_one(args, spec) -> int:
    if not (ROOT / "src" / "mgnet" / "__init__.py").is_file():
        print(f"error: no mgnet package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))

    import session
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        res = session.run(args.workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads 1  rounds {res['rounds']}  "
          f"median round {res['round_s']:.4f} s")
    for key, val in res["details"].items():
        print(f"  {key}: {val}")
    for op, values in res["samples"].items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        print(f"  samples {op:18s} n {len(values):4d}  median {q[1]:.6g}  "
              f"quartiles {q[0]:.6g} .. {q[2]:.6g}")
    for err in res["errors"]:
        print(f"  ORACLE FAILED {err}")
    if args.trace:
        values = spans.per_layer(tracer, res["rounds"], res["extras"])
        specs = spec["per_layer"]
        table = tracer.table()
        print("  span table per round (calls, total s, self s):")
        for name in sorted(table, key=lambda n: -table[n]["self_s"]):
            row = table[name]
            print(f"    {name:46s} {row['calls'] / res['rounds']:10.1f} "
                  f"{row['total_s'] / res['rounds']:10.5f} {row['self_s'] / res['rounds']:10.5f}")
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"rounds": res["rounds"], "round_s": res["round_s"],
                                   "spans": table, "per_layer": values}, indent=1))
        print(f"  span table written to {out.relative_to(ROOT)}")
    else:
        values = res["end_to_end"]
        specs = spec["end_to_end"]
    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
