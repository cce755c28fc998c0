"""Closed-loop runner: set-up, the timed job loop, answer checks and metrics.

One client runs the jobs of one workload back to back in this process;
each job starts when the previous one has finished.  Every CLI call is an
in-process ``dualdepth.cli.main(argv)`` with stdout and stderr captured, so
argument parsing, file parsing and report writing are timed but interpreter
start-up is not.  Answer checks and the files of later cycles are made
outside the timed region, and so is a host-speed yardstick by which every
timing metric is scaled (see PROBE_SHARE).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer
from workloads import Call

# Set up this many times per run and report the median.  Each set-up is a
# fresh package import plus the files of the workload's next setup_cycles
# cycles; they are spread through the run, so that a slow spell of the host
# moves one of them rather than all.
SETUP_REPS = 7
# A traced run spends about this share of --seconds in each of its two
# phases at the baseline cycle time.
TRACE_SHARE = 0.4
# Host-speed yardstick: between jobs, a fixed pure-Python loop runs for
# this share of the timed job time.  On a shared host the speed of the
# machine drifts by 20% and more over minutes; every timing metric is
# scaled by PROBE_REFERENCE_MS / (median probe time) of its own run, so it
# reads as on a host where the loop takes PROBE_REFERENCE_MS.
PROBE_SHARE = 0.02
PROBE_REFERENCE_MS = 10.0


def fresh_import():
    """Import the package anew, so each set-up pays for its import."""
    for name in [m for m in sys.modules if m == "dualdepth" or m.startswith("dualdepth.")]:
        del sys.modules[name]
    lib = importlib.import_module("dualdepth")
    importlib.import_module("dualdepth.cli")
    return lib


def call(lib, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation; returns its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cycles: dict[int, list] = {}
        self.setup_s: list[float] = []
        self.lib = None
        self.tracer = None  # set while a job runs traced
        self.keep_answers = workload.min_cycles * len(workload.slots)
        self.latencies: list[float] = []
        self.kinds: dict[str, int] = {}
        self.call_s: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.answers: list = []
        self.reports: list[dict] = []  # of traced jobs only
        self.probes_ms: list[float] = []

    def setup(self, first: int) -> None:
        start = time.perf_counter()
        self.lib = fresh_import()
        for c in range(first, first + self.workload.setup_cycles):
            self.cycles[c] = self.make_cycle(c)
        self.setup_s.append(time.perf_counter() - start)

    def prepare(self, c: int) -> list:
        """The jobs of cycle ``c``, set up first while set-ups remain."""
        if c not in self.cycles:
            if len(self.setup_s) < SETUP_REPS:
                self.setup(c)
            else:
                self.cycles[c] = self.make_cycle(c)
        return self.cycles.pop(c)

    def make_cycle(self, c: int) -> list:
        return self.workload.make_cycle(self.lib, self.seed, c, self.workdir)

    def run_job(self, job, answers: list) -> float:
        """Run one job, check it, and add its answers to ``answers``."""
        calls = [Call(argv) for argv in job.argvs]
        error = None
        start = time.perf_counter()
        try:
            for c in calls:
                t0 = time.perf_counter()
                c.code, c.out = call(self.lib, c.argv)
                c.seconds = time.perf_counter() - t0
        except Exception:  # a crashing job is counted, and the run goes on
            error = traceback.format_exc(limit=-3)
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
        for label, c in zip(job.call_labels(), calls):
            self.call_s.setdefault(label, []).append(c.seconds)
        with self._paused():
            problems = [error] if error else self._check(job, calls)
            # keep only what the digest and the trace read, so that memory
            # does not grow with the number of jobs a run completes
            if len(answers) < self.keep_answers:
                try:
                    answers.append([job.kind, job.answer(calls)])
                except (ValueError, KeyError, TypeError):
                    answers.append([job.kind, None])
            if self.tracer is not None:
                with contextlib.suppress(ValueError):
                    self.reports.extend(json.loads(c.out) for c in calls)
        if problems:
            traced = " traced" if self.tracer is not None else ""
            self.failures.append(f"{job.kind}{traced} ({' '.join(job.argvs[0])}): {'; '.join(problems)}")
        return latency

    def _check(self, job, calls) -> list[str]:
        try:
            return job.check(self.lib, calls)
        except Exception as exc:  # a malformed report fails the job, not the run
            return [f"check raised {exc!r}"]

    @contextlib.contextmanager
    def _paused(self):
        """Keep the answer checks out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    @contextlib.contextmanager
    def traced(self, tracer: Tracer, job_id):
        tracer.install()
        tracer.job = job_id
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None
            tracer.uninstall()

    def run_cycles(self, seconds: float) -> float:
        """Run whole cycles until the one that brings the timed total
        closest to ``seconds``, and never fewer than ``min_cycles``."""
        elapsed, c = 0.0, 0
        while c < self.workload.min_cycles or elapsed + elapsed / c / 2 < seconds:
            for job in self.prepare(c):
                elapsed += self.run_job(job, self.answers)
                while sum(self.probes_ms) < PROBE_SHARE * elapsed * 1e3:
                    self.probes_ms.append(host_probe_ms())
            c += 1
        c = max([c - 1, *self.cycles]) + 1
        while len(self.setup_s) < SETUP_REPS:  # set-ups the run ended before
            self.setup(c)
            c += self.workload.setup_cycles
        return elapsed


def digest(answers) -> str:
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "dualdepth").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
        "seed": seed,
        "git_commit": commit,
        "source_digest": "sha256:" + src.hexdigest(),
    }


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop (about 10 ms), the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def _quantile90(values: list[float]) -> float:
    # inclusive: with a handful of jobs, stay within the measured range
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            metrics: dict[str, str], tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record).

    ``metrics`` maps each metric to emit to its unit.
    """
    workload = workloads.build(name, tiny=tiny)
    workdir = root / "perfbench" / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            values, detail = _traced(runner, seconds, root)
        else:
            values, detail = _timed(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(metrics) - set(values))
    if missing:
        raise KeyError(f"benchmark computes no value for {missing}")
    attempted, failed = len(runner.latencies), len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in metrics.items()},
    }
    detail.update({
        "workload": name,
        "trace": int(trace),
        "fail_ratio": failed / attempted,
        "setup_runs_s": runner.setup_s,
        "environment": environment(root, seed),
    })
    return result, detail


def _timed(runner: Runner, seconds: float) -> tuple[dict, dict]:
    elapsed = runner.run_cycles(seconds=seconds)
    lat = runner.latencies
    raw = {
        "jobs_per_s": len(lat) / elapsed,
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": _quantile90(lat) * 1e3,
        "setup_s": statistics.median(runner.setup_s),
    }
    probe_ms = statistics.median(runner.probes_ms)
    scale = PROBE_REFERENCE_MS / probe_ms  # < 1 on a host slower than the reference
    values = {k: v / scale if k == "jobs_per_s" else v * scale for k, v in raw.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {
        "jobs": len(lat),
        "timed_s": elapsed,
        "unscaled": raw,
        "probe_median_ms": probe_ms,
        "probes": len(runner.probes_ms),
        "jobs_by_kind": runner.kinds,
        "call_p50_ms": {k: statistics.median(v) * 1e3 for k, v in runner.call_s.items()},
        "failures": runner.failures[:20],
        "answer_digest": digest(runner.answers),
        "answer_digest_jobs": len(runner.answers),
    }
    return values, detail


def _traced(runner: Runner, seconds: float, root: Path) -> tuple[dict, dict]:
    """Run each job untraced and then traced, and read the layers.

    The cycle count follows from ``seconds`` and the nominal cycle time, not
    from the clock, so the counts repeat exactly for a seed.  Running the
    two versions of a job back to back keeps drift in the host's speed out
    of their time ratio.
    """
    workload = runner.workload
    count = max(workload.min_cycles, round(seconds * TRACE_SHARE / workload.nominal_cycle_s))
    runner.keep_answers = count * len(workload.slots)
    runner.lib = fresh_import()
    tracer = Tracer()
    plain_answers, traced_answers = [], []
    plain_s = traced_s = 0.0
    for c in range(count):
        with runner.traced(tracer, f"setup-{c}"):  # for the set-up layers
            jobs = runner.make_cycle(c)
        for job in jobs:
            plain_s += runner.run_job(job, plain_answers)
            with runner.traced(tracer, len(traced_answers)):
                traced_s += runner.run_job(job, traced_answers)

    failures = runner.failures
    same = digest(plain_answers) == digest(traced_answers)
    if not same:
        failures.append("traced and untraced runs gave different answers")
    values = {}
    for qualname, (calls, _, self_s) in tracer.stats.items():
        values[f"{qualname}.calls"] = calls
        values[f"{qualname}.self_ms"] = self_s * 1e3
    results = [r["result"] for r in runner.reports]
    checked = [r["metadata"]["candidates_checked"] for r in results
               if "candidates_checked" in r.get("metadata", {})]
    verdicts = [r["pass"] for r in results if r.get("type") == "VerificationReport"]
    lp_calls = tracer.calls("tverberg.common_interior_point")
    values.update({
        "lp.pivots": tracer.calls("lp._pivot"),
        "tverberg.partitions_checked": sum(checked),
        "tverberg.lp_accept_ratio": tracer.counts["tverberg.lp_accepted"] / lp_calls if lp_calls else 0.0,
        "measures.flats_drawn": tracer.counts["measures.flats_drawn"],
        "measures.ray_tests": tracer.counts["measures.ray_tests"],
        "measures.verify_pass_ratio": sum(verdicts) / len(verdicts) if verdicts else 0.0,
        "generators.regenerations": tracer.counts["generators.regenerations"],
        "trace_overhead_ratio": traced_s / plain_s,
    })
    out_dir = root / "perfbench" / "_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"trace-{workload.name}-{runner.seed}.json"
    tracer.dump(span_file)
    detail = {
        "cycles": count,
        "jobs": len(traced_answers),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "failures": failures[:20],
        "answer_digest": digest(traced_answers),
        "answer_digest_matches_untraced": same,
        "absent": tracer.absent,
        "spans_file": str(span_file.relative_to(root)),
    }
    return values, detail
