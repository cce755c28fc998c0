"""Seconds-long self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once at tiny sizes and checks that

* each end-to-end metric of BENCHMARK.json is emitted with its unit, and
  every job passes its answer check;
* a traced run emits each per-layer metric, gives the same answer digest
  as its untraced half, and reports a kernel the code lacks as absent;
* a tampered answer (a center depth off by one) is caught and counted;
* the benchmark refuses to run where the package source is missing.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(name: str, kind: str, trace: bool = False):
    return bench.measure(name, 0, 0.2, trace, ROOT, metric_units(kind), tiny=True)


def emitted(result: dict, kind: str) -> None:
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == metric_units(kind), f"{kind} metrics or units differ: {units}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{name} is not a number")


def main() -> int:
    for name in workloads.WORKLOADS:
        result, detail = run(name, "end_to_end")
        emitted(result, "end_to_end")
        expect(result["correct"] and result["failed"] == 0, f"{name}: {detail['failures']}")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{name}: a zero metric")
        print(f"selftest: {name} ok ({result['attempted']} jobs)")

    saved = tracer.TRACED
    tracer.TRACED = saved + ("depth.no_such_kernel",)
    try:
        result, detail = run("exact-depth", "per_layer", trace=True)
    finally:
        tracer.TRACED = saved
    emitted(result, "per_layer")
    expect(result["correct"], f"traced run failed: {detail['failures']}")
    expect(detail["answer_digest_matches_untraced"], "traced answers differ")
    expect(detail["absent"] == ["depth.no_such_kernel"], f"absent: {detail['absent']}")
    expect(result["metrics"]["depth.max_depth_point.self_ms"]["value"] > 0, "no depth spans")
    print("selftest: traced run ok")

    honest = bench.call

    def tampered(lib, argv):
        code, out = honest(lib, argv)
        if argv[0] == "center":
            report = json.loads(out)
            report["result"]["depth"] += 1
            out = json.dumps(report)
        return code, out

    bench.call = tampered
    try:
        result, detail = run("exact-depth", "end_to_end")
    finally:
        bench.call = honest
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"tampered depths not all caught: {result['failed']}/{result['attempted']}")
    expect(detail["fail_ratio"] == 1.0, "fail_ratio does not count the tampered jobs")
    print("selftest: tampered answer caught")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "exact-depth",
             "--seed", "0", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout, "ran without the package source")
    print("selftest: refuses to run without the package source")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
