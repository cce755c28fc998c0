"""Seeded job streams for the three benchmark workloads, with answer checks.

A workload is a fixed cycle of job slots.  Cycle ``c`` of a run with seed
``s`` draws every input of slot ``k`` from ``default_rng([s, c, k])``, so a
seed fixes the whole job sequence and a faster commit simply gets further
along the same sequence.  A job is one or more CLI calls; its files are
written before it runs and its answers are checked after it, both outside
the timed region.

Why the cycles look the way they do:

* Each cycle has as many jobs below its median size class as above it,
  and its slowest class makes up more than a tenth of it, so that the
  median and the 90th percentile of job latency fall inside one size class
  rather than in the gap between two: exact-depth repeats d=2 n=50 three
  times and d=4 n=20 twice.
* A measure-mc run has room for only about 10 CLI calls of 0.5-7 s, too
  few for steady percentiles of single calls, so a job there is a whole
  scenario (search, two verify-only checks, two transversal checks) and
  the detail record gives each call's median latency.  A run is always
  three scenarios, one per measure kind of the search, as the search cost
  depends on the kind.
* partition-search leaves out ``tverberg-search --groups 4`` in the plane:
  its latency has a mean of 0.59 s and a standard deviation of 1.39 s
  (max 11.5 s over 150 seeds, 2-vCPU Xeon), so any share of it large enough to matter
  makes throughput differ by 30% or more from seed to seed.
* measure-mc rotates the three measure kinds through its search and
  verify-only jobs and leaves out d=3 searches (28-51 s each).
* One set-up of partition-search makes eight cycles, so that its time
  (about 0.25 s) is not lost in the host's noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

KINDS = ("uniform-angle-offset", "gaussian-offset", "smoothed-points")


@dataclass
class Call:
    argv: list[str]
    code: int = -1  # filled in by the runner
    out: str = ""
    seconds: float = 0.0


@dataclass
class Job:
    kind: str
    argvs: list[list[str]]
    # check(lib, calls) -> list of problems; answer(calls) -> exact answers
    check: Callable
    answer: Callable
    labels: Optional[list[str]] = None  # per call, for per-command latency

    def call_labels(self) -> list[str]:
        return self.labels or [self.kind] * len(self.argvs)


@dataclass
class Workload:
    name: str
    slots: list[Callable]  # slot(lib, rng, path_stem, cycle) -> Job
    min_cycles: int  # every run completes at least this many cycles
    nominal_cycle_s: float  # cycle time at the baseline; sizes the traced run
    setup_cycles: int = 1  # cycles whose files one set-up makes

    def make_cycle(self, lib, seed: int, cycle: int, workdir: Path) -> list[Job]:
        return [
            slot(lib, np.random.default_rng([seed, cycle, k]), workdir / f"c{cycle}-s{k}", cycle)
            for k, slot in enumerate(self.slots)
        ]


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _gen(lib, rng, n: int, d: int, colors=None):
    seed = int(rng.integers(0, 2**31))
    return lib.generators.gen_instance("random-rational", n, d, seed, colors=colors)


def _fracs(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def _result(call: Call) -> dict:
    return json.loads(call.out)["result"]


# ---------------------------------------------------------------------------
# exact-depth: center, then 8 depth queries, on one random-rational instance
# ---------------------------------------------------------------------------

QUERIES = 8


def _depth_slot(n: int, d: int, queries: int = QUERIES):
    def slot(lib, rng, stem: Path, cycle: int) -> Job:
        path = _write(stem.with_suffix(".json"), lib.io.write_instance(_gen(lib, rng, n, d)))
        argvs = [["center", "--instance", path]]
        for _ in range(queries):
            den = rng.integers(1, 17, size=d)
            num = rng.integers(-2 * den, 2 * den + 1)
            point = ",".join(f"{a}/{b}" for a, b in zip(num, den))
            argvs.append(["depth", "--instance", path, f"--point={point}"])
        labels = [f"center d={d} n={n}"] + [f"depth d={d} n={n}"] * queries
        return Job(f"depth d={d} n={n}", argvs, _check_depth, _answer_depth, labels)

    return slot


def _check_depth(lib, calls: list[Call]) -> list[str]:
    problems = []
    if any(c.code != 0 for c in calls):
        return [f"exit codes {[c.code for c in calls]}, expected all 0"]
    F = lib.io.parse_instance(Path(calls[0].argv[2]).read_bytes())
    ray_crossings, dual_depth = lib.depth.ray_crossings, lib.depth.dual_depth
    cert = _result(calls[0])
    point, witness = _fracs(cert["point"]), _fracs(cert["witness_direction"])
    depth = cert["depth"]
    bound = (F.n + F.dim) // (F.dim + 1)
    if cert["bound"] != bound or depth < bound or not cert["meets_bound"]:
        problems.append(f"center depth {depth} below bound {bound}")
    if dual_depth(F, point)[0] != depth:
        problems.append("center depth differs from dual_depth at the point")
    if ray_crossings(F, point, witness) != depth:
        problems.append("center witness does not attain the depth")
    for call in calls[1:]:
        res = _result(call)
        query = _fracs(call.argv[3].split("=", 1)[1].split(","))
        if _fracs(res["point"]) != query:
            problems.append("depth report echoes another point")
        if ray_crossings(F, query, _fracs(res["witness_direction"])) != res["depth"]:
            problems.append(f"depth witness does not attain depth {res['depth']}")
    return problems


def _answer_depth(calls: list[Call]):
    cert = _result(calls[0])
    return [cert["depth"], cert["point"]] + [_result(c)["depth"] for c in calls[1:]]


# ---------------------------------------------------------------------------
# partition-search: exhaustive, colorful and planar partitions
# ---------------------------------------------------------------------------

def _partition_slot(cmd: str, n: int, d: int, groups: int = 0, colors=None):
    def slot(lib, rng, stem: Path, cycle: int) -> Job:
        inst = _gen(lib, rng, n, d, colors=colors)
        path = _write(stem.with_suffix(".json"), lib.io.write_instance(inst))
        argv = [cmd, "--instance", path]
        if cmd == "tverberg-search":
            argv += ["--groups", str(groups)]
        elif cmd == "colorful":
            argv += ["--r", str(groups)]
        label = f"{cmd} d={d} n={n}" + (f" groups={groups}" if groups else "")
        return Job(label, [argv], _check_partition, _answer_partition)

    return slot


def _check_partition(lib, calls: list[Call]) -> list[str]:
    (call,) = calls
    if call.code != 0:
        return [f"exit code {call.code}, expected 0"]
    F = lib.io.parse_instance(Path(call.argv[2]).read_bytes())
    res = _result(call)
    groups = [tuple(g) for g in res["groups"]]
    used = [i for g in groups for i in g]
    problems = []
    if len(set(used)) != len(used) or any(len(g) != F.dim + 1 for g in groups):
        problems.append(f"groups {groups} overlap or have the wrong size")
    if call.argv[0] == "colorful":
        if len(groups) != int(call.argv[4]):
            problems.append(f"{len(groups)} groups, expected {call.argv[4]}")
        if any(sorted(F.colors[i] for i in g) != list(range(F.dim + 1)) for g in groups):
            problems.append("a group is not colorful")
    elif sorted(used) != list(range(F.n)):
        problems.append("groups do not cover the family")
    if problems:
        return problems
    witness, margin = _fracs(res["witness"]), Fraction(res["margin"])
    slack = min(
        sum(a * x for a, x in zip(normal, witness)) - offset
        for g in groups
        for normal, offset in lib.tverberg.form_simplex(F, g).facets
    )
    # the margin LP caps its slack variable at 1
    if not (slack == margin or (margin == 1 and slack >= 1)):
        problems.append(f"margin {margin} but the witness has slack {slack}")
    if res["strict"] != (margin > 0):
        problems.append("strict flag disagrees with the margin")
    if margin < 0 or (call.argv[0] != "tverberg-plane" and margin <= 0):
        problems.append(f"margin {margin} is not a {'closed' if margin < 0 else 'strict'} certificate")
    return problems


def _answer_partition(calls: list[Call]):
    res = _result(calls[0])
    return [res["groups"], res["margin"]]


# ---------------------------------------------------------------------------
# measure-mc: Monte Carlo verifiers of the measure bounds
# ---------------------------------------------------------------------------

def _measure_spec(lib, rng, kind: str, d: int):
    if kind == "uniform-angle-offset":
        params = {
            "radius": float(rng.uniform(0.5, 3.0)),
            "center": [float(v) for v in rng.uniform(-1, 1, size=d)],
        }
    elif kind == "gaussian-offset":
        params = {"mean": float(rng.uniform(0.0, 1.0)), "std": float(rng.uniform(0.5, 2.0))}
    else:
        flats = []
        for _ in range(int(rng.integers(2, 5))):
            normal = rng.normal(size=d)
            normal /= np.linalg.norm(normal)
            flats.append([[float(v) for v in normal], float(rng.uniform(-1.5, 1.5))])
        params = {"flats": flats, "sigma": float(rng.uniform(0.1, 0.5))}
    return lib.measures.FlatMeasureSpec(d, 1, kind, params, seed=int(rng.integers(0, 10_000)))


def _verify_measure_slot(kind_offset: int, search: bool, extra=()):
    """verify-measure on a d=2 spec; the kind rotates with the cycle."""

    def slot(lib, rng, stem: Path, cycle: int) -> Job:
        kind = KINDS[(cycle + kind_offset) % len(KINDS)]
        inst = _gen(lib, rng, 3, 2)
        inst.metadata["_measure"] = _measure_spec(lib, rng, kind, 2)
        path = _write(stem.with_suffix(".json"), lib.io.write_instance(inst))
        argv = ["verify-measure", "--instance", path, *extra]
        if not search:
            argv.append("--point=0,0")
        label = f"verify-measure {'search' if search else 'at 0,0'} {kind}"
        return Job(label, [argv], _check_measure, _answer_search if search else _answer_measure)

    return slot


def _transversal_slot(d: int, extra=()):
    """verify-transversal: two codim-2 measures and the line through their centers."""

    def slot(lib, rng, stem: Path, cycle: int) -> Job:
        centers = rng.uniform(-2, 2, size=(2, d))
        measures = [
            {
                "dim": d, "codim": 2, "kind": "uniform-angle-offset",
                "params": {"radius": float(rng.uniform(0.5, 1.5)), "center": [float(v) for v in c]},
                "seed": int(rng.integers(0, 10_000)),
            }
            for c in centers
        ]
        flat = {"point": [float(v) for v in centers[0]],
                "directions": [[float(v) for v in centers[1] - centers[0]]]}
        data = json.dumps({"measures": measures, "flat": flat}).encode()
        path = _write(stem.with_suffix(".json"), data)
        argv = ["verify-transversal", "--spec", path, *extra]
        return Job(f"verify-transversal d={d}", [argv], _check_measure, _answer_measure)

    return slot


def _check_measure(lib, calls: list[Call]) -> list[str]:
    (call,) = calls
    res = _result(call)
    expected = 0 if res["pass"] else 1
    if call.code != expected:
        return [f"exit code {call.code} but pass is {res['pass']}"]
    if any(a.startswith("--point=") for a in call.argv) and res["point"] != ["0", "0"]:
        return ["verify-measure report echoes another point"]
    return []


def _answer_measure(calls: list[Call]):
    return [_result(calls[0])["pass"]]


def _answer_search(calls: list[Call]):
    # the searched point is a heuristic candidate, not a fixed answer
    return []


def _scenario(kind: str, parts: list):
    """One job made of several single-call jobs, run back to back."""

    def slot(lib, rng, stem: Path, cycle: int) -> Job:
        jobs = [
            part(lib, sub, stem.with_name(f"{stem.name}-{i}"), cycle)
            for i, (part, sub) in enumerate(zip(parts, rng.spawn(len(parts))))
        ]

        def check(lib, calls):
            return [p for job, call in zip(jobs, calls) for p in job.check(lib, [call])]

        def answer(calls):
            return [job.answer([call]) for job, call in zip(jobs, calls)]

        return Job(kind, [j.argvs[0] for j in jobs], check, answer, [j.kind for j in jobs])

    return slot


# ---------------------------------------------------------------------------

def build(name: str, tiny: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` shrinks every input for the self-test."""
    if name == "exact-depth":
        sizes = [(2, 12), (3, 12), (2, 30), (4, 12), (2, 50), (2, 50), (2, 50),
                 (3, 24), (3, 30), (4, 20), (4, 20)]
        if tiny:
            return Workload(name, [_depth_slot(6, 2, 2), _depth_slot(5, 3, 2)], 1, 0.05)
        return Workload(name, [_depth_slot(n, d) for d, n in sizes], 2, 5.3)
    if name == "partition-search":
        slots = [
            _partition_slot("tverberg-search", 6, 2, 2),
            _partition_slot("tverberg-search", 9, 2, 3),
            _partition_slot("tverberg-search", 8, 3, 2),
            _partition_slot("colorful", 9, 2, 2, colors=[0, 1, 2] * 3),
        ] + [_partition_slot("tverberg-plane", n, 2) for n in (9, 12, 15, 18)]
        if tiny:
            return Workload(name, [slots[0], slots[3], slots[4]], 1, 0.05)
        return Workload(name, slots, 20, 0.16, setup_cycles=8)
    if name == "measure-mc":
        if tiny:
            small = ("--samples", "300", "--probes", "24")
            return Workload(name, [_scenario("measure scenario", [
                _verify_measure_slot(0, True, small),
                _verify_measure_slot(0, False, small),
                _transversal_slot(2, small),
            ])] * 2, 1, 0.05)
        return Workload(name, [_scenario("measure scenario", [
            _verify_measure_slot(0, True),
            _verify_measure_slot(0, False),
            _verify_measure_slot(1, False),
            _transversal_slot(2),
            _transversal_slot(3),
        ])], 3, 10.5)
    raise KeyError(name)


WORKLOADS = ("exact-depth", "partition-search", "measure-mc")
