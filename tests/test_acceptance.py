"""End-to-end acceptance runs: one test per shipped guarantee.

Each test prints a single PASS line on success; sizes and tolerances are
fixed and must not be loosened.  The suite is heavier than the unit tests
(several minutes total) but still well inside a desk-scale budget.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualdepth import (
    FlatMeasureSpec,
    colorful_dual_tverberg_search,
    common_interior_point,
    dual_depth,
    dual_tverberg_plane,
    dual_tverberg_search,
    form_simplex,
    gen_instance,
    max_depth_point,
    ray_crossings,
    search_center_sampled,
    verify_dual_cpt_measure,
    verify_dual_ctr,
    write_instance,
)
from dualdepth.cli import main as cli_main
from dualdepth.depth import signature_of
from dualdepth.geometry import DegenerateSubfamilyError

from conftest import (
    closed_feasible_by_vertex_enumeration,
    dot,
    sampled_depth_oracle,
    side_of,
)

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_01_depth_bound_on_generated_grid():
    t0 = time.time()
    runs = 0
    for d in (2, 3, 4):
        for n in range(d + 1, 13):
            for seed in range(200):
                F = gen_instance("random-rational", n, d, seed=seed)
                cert = max_depth_point(F)
                assert cert.depth >= (n + d) // (d + 1), (d, n, seed)
                assert cert.meets_bound
                runs += 1
    elapsed = time.time() - t0
    assert elapsed <= 600.0, f"grid took {elapsed:.0f}s"
    print(f"criterion 1: PASS ({runs} instances, {elapsed:.0f}s)")


def test_criterion_02_depth_oracle_equivalence():
    rng = np.random.default_rng(2024)
    discrepancies = 0
    for case in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 9))
        F = gen_instance("random-rational", n, d, seed=case)
        for q in range(10):
            den = int(rng.integers(1, 5))
            x = tuple(Fraction(int(v), den) for v in rng.integers(-16, 17, size=d))
            depth, witness = dual_depth(F, x)
            sampled = sampled_depth_oracle(F, x, 100_000, seed=1000 * case + q)
            if sampled < depth:  # sampling may never beat the exact value
                discrepancies += 1
            if ray_crossings(F, x, witness) != depth:  # witness must attain it
                discrepancies += 1
            if min(sampled, depth) != depth:
                discrepancies += 1
    assert discrepancies == 0
    print("criterion 2: PASS (100 instances x 10 points, 1e5 directions)")


def test_criterion_03_cell_constancy():
    rng = np.random.default_rng(3)
    violations = 0
    for case in range(50):
        F = gen_instance("random-rational", 8, 2, seed=case)
        pairs = 0
        while pairs < 100:
            a = tuple(Fraction(int(v), 8) for v in rng.integers(-24, 25, size=2))
            delta = tuple(Fraction(int(v), 10**6) for v in rng.integers(-9, 10, size=2))
            b = tuple(ai + di for ai, di in zip(a, delta))
            if signature_of(F, a) != signature_of(F, b):
                continue
            pairs += 1
            if dual_depth(F, a)[0] != dual_depth(F, b)[0]:
                violations += 1
    assert violations == 0
    print("criterion 3: PASS (50 instances x 100 same-cell pairs)")


def test_criterion_04_planar_construction_containment():
    for n in range(1, 7):
        for seed in range(200):
            F = gen_instance("random-rational", 3 * n, 2, seed=seed)
            res = dual_tverberg_plane(F)
            assert len(res.groups) == n
            slack = min(
                dot(normal, res.witness) - offset
                for g in res.groups
                for normal, offset in form_simplex(F, g).facets
            )
            assert slack >= 0, (n, seed)
            off_all = all(side_of(h, res.witness) != 0 for h in F.hyperplanes)
            if off_all:
                assert res.strict and res.margin > 0, (n, seed)
    print("criterion 4: PASS (6 x 200 planar instances, closed containment)")


def test_criterion_05_exhaustive_search_always_strict():
    cases = [(2, 2), (2, 3), (2, 4), (3, 2)]
    for d, n in cases:
        for seed in range(100):
            F = gen_instance("random-rational", (d + 1) * n, d, seed=seed)
            t0 = time.time()
            res = dual_tverberg_search(F, n)
            assert time.time() - t0 <= 60.0, (d, n, seed)
            assert res is not None and res.strict, (d, n, seed)
    print("criterion 5: PASS (4 cases x 100 instances, 0 NotFound)")


def test_criterion_06_colorful_search_always_strict():
    colors = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for seed in range(100):
        F = gen_instance("random-rational", 9, 2, seed=seed, colors=colors)
        res = colorful_dual_tverberg_search(F, 2)
        assert res is not None and res.strict, seed
        flat = [i for g in res.groups for i in g]
        assert len(set(flat)) == 6
        for g in res.groups:
            assert sorted(F.colors[i] for i in g) == [0, 1, 2]
    print("criterion 6: PASS (100 colored instances, 2 disjoint colorful triples)")


def test_criterion_07_lp_certificate_soundness():
    rng = np.random.default_rng(7)
    unsound = 0
    infeasible_seen = 0
    for case in range(1000):
        d = int(rng.integers(2, 4))
        n = 3 * (d + 1)
        F = gen_instance("random-rational", n, d, seed=case)
        m = int(rng.integers(1, 4))
        simplices = []
        while len(simplices) < m:
            idx = tuple(sorted(rng.choice(n, size=d + 1, replace=False).tolist()))
            try:
                simplices.append(form_simplex(F, idx))
            except DegenerateSubfamilyError:
                continue
        res = common_interior_point(simplices)
        if res is None:
            infeasible_seen += 1
            if closed_feasible_by_vertex_enumeration(simplices):
                unsound += 1
        else:
            witness, margin = res
            slack = min(
                dot(normal, witness) - offset
                for s in simplices
                for normal, offset in s.facets
            )
            if slack < margin or margin < 0:
                unsound += 1
    assert unsound == 0
    assert infeasible_seen > 0  # the cross-check actually exercised both branches
    print(f"criterion 7: PASS (1000 collections, {infeasible_seen} infeasible cross-checked)")


def _random_measure_spec(rng, index):
    d = 2 if index % 2 == 0 else 3
    kind = ("uniform-angle-offset", "gaussian-offset", "smoothed-points")[index % 3]
    if kind == "uniform-angle-offset":
        params = {
            "radius": float(rng.uniform(0.5, 3.0)),
            "center": [float(v) for v in rng.uniform(-1, 1, size=d)],
        }
    elif kind == "gaussian-offset":
        params = {"mean": float(rng.uniform(0.0, 1.0)), "std": float(rng.uniform(0.5, 2.0))}
    else:
        k = int(rng.integers(2, 5))
        flats = []
        for _ in range(k):
            normal = rng.normal(size=d)
            normal /= np.linalg.norm(normal)
            flats.append([[float(v) for v in normal], float(rng.uniform(-1.5, 1.5))])
        params = {"flats": flats, "sigma": float(rng.uniform(0.1, 0.5))}
    return FlatMeasureSpec(d, 1, kind, params, seed=int(rng.integers(0, 10_000)))


def test_criterion_08_measure_bound_at_searched_center():
    rng = np.random.default_rng(8)
    passed = 0
    for index in range(20):
        spec = _random_measure_spec(rng, index)
        point = search_center_sampled(spec, 10_000)
        rep = verify_dual_cpt_measure(spec, [float(c) for c in point], 10_000, 720)
        assert rep.trials >= 720
        passed += rep.passed
    assert passed >= 19, f"only {passed}/20 specs passed"
    print(f"criterion 8: PASS ({passed}/20 specs within 3x binomial standard error)")


def test_criterion_09_transversal_two_disk_fixture():
    specs = [
        FlatMeasureSpec(2, 2, "uniform-angle-offset",
                        {"radius": 1.0, "center": [-2.0, 0.0]}, seed=0),
        FlatMeasureSpec(2, 2, "uniform-angle-offset",
                        {"radius": 1.0, "center": [2.0, 0.0]}, seed=1),
    ]
    good = verify_dual_ctr(specs, (0.0, 0.0), [[1.0, 0.0]], 10_000, 64)
    assert good.passed and good.bound == pytest.approx(0.5)
    bad = verify_dual_ctr(specs, (2.0, 0.0), [[0.0, 1.0]], 10_000, 64)
    assert not bad.passed
    again = verify_dual_ctr(specs, (0.0, 0.0), [[1.0, 0.0]], 10_000, 64)
    assert again == good  # deterministic under seed
    print("criterion 9: PASS (good line passes, bad line fails, deterministic)")


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_10_reproducibility_and_goldens(capsys, tmp_path):
    tri = str(GOLDEN / "triangle.json")
    six = str(GOLDEN / "six.json")

    # spec'd CLI examples, replayed twice each and compared modulo timing
    examples = [
        ("center", "--instance", tri),
        ("tverberg-search", "--instance", six, "--groups", "2"),
        ("depth", "--instance", tri, "--point", "2,2"),
    ]
    for argv in examples:
        code1, rep1 = _cli_json(capsys, *argv)
        code2, rep2 = _cli_json(capsys, *argv)
        assert code1 == code2 == 0
        rep1.pop("timing_s")
        rep2.pop("timing_s")
        assert rep1 == rep2, argv

    code, center = _cli_json(capsys, "center", "--instance", tri)
    assert code == 0
    assert center["result"] == json.loads((GOLDEN / "center_triangle.json").read_text())
    assert center["result"]["depth"] == 2 and center["result"]["meets_bound"]

    code, part = _cli_json(capsys, "tverberg-search", "--instance", tri, "--groups", "1")
    assert code == 0
    assert part["result"] == json.loads((GOLDEN / "partition_triangle.json").read_text())

    code, depth = _cli_json(capsys, "depth", "--instance", tri, "--point", "2,2")
    assert code == 0 and depth["result"]["depth"] == 0

    # the golden instance files themselves never drift
    from dualdepth import Hyperplane, Instance

    tri_inst = Instance(2, [
        Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
        Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
        Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
    ])
    assert (GOLDEN / "triangle.json").read_bytes() == write_instance(tri_inst)
    assert (GOLDEN / "six.json").read_bytes() == write_instance(
        gen_instance("random-rational", 6, 2, seed=7)
    )
    print("criterion 10: PASS (CLI replays bit-identical, goldens stable)")
