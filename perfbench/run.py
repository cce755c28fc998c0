"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of the dualdepth CLI against the package under ``src/``
of the checkout this file sits in, and prints one JSON line per record:
a detail record (environment, job counts, failures, answer digest), then
the result line with ``correct``, ``attempted``, ``failed`` and the metrics
that ``BENCHMARK.json`` lists: its ``end_to_end`` metrics untraced, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-depth", "partition-search", "measure-mc")
# One BLAS/OpenMP thread, the same on every commit and never above nproc.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    package = ROOT / "src" / "dualdepth" / "__init__.py"
    if not package.is_file():
        print(f"error: no dualdepth package at {package.parent}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.update(PINNED_THREADS)  # numpy reads them when it is imported
    sys.path.insert(0, str(package.parent.parent))
    import bench

    result, detail = bench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        {m["name"]: m["unit"] for m in metrics},
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
