"""conceptkb benchmark: one workload per process.

Usage (from the repository root):

    python3 bench/run.py --workload wn18-train --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result (environment, counts by kind, sample sizes, and with tracing
the spans) is written under ``.bench/results/``.  The generated KB lives
in ``.bench/`` only while the run lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # fixed at or below nproc so runs on a shared machine stay steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench"


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    import checks
    import workload

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    data_dir = WORK_DIR / f"kb-{args.workload}-{args.seed}-{os.getpid()}"
    counts = workload.Counts()
    try:
        result = workload.run(workload.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), data_dir, counts)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": sum(counts.attempted.values()),
                          "failed": sum(counts.failed.values()), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    attempted = sum(counts.attempted.values())
    failed = sum(counts.failed.values())
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    missing = sorted(k for k, m in metrics.items() if m["value"] is None)
    metrics = {k: m for k, m in metrics.items() if m["value"] is not None}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": _environment(args.seed), "attempted": counts.attempted,
              "failed": counts.failed, **result}
    out_dir = WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, m in result["end_to_end"].items():
        if m["value"] is not None:
            print(f"{'traced ' if args.trace else ''}{key} = {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
    if missing:
        print(f"no successful call behind {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    if not (ROOT / "src" / "conceptkb" / "__init__.py").is_file():
        print(f"bench: no engine sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    # one fixed CPU: a process that migrates between CPUs of unequal load
    # (CPU 0 of a VM often takes the interrupts) reads 10-30% apart from run to run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    sys.exit(main())
