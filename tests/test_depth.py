"""Ray-crossing depth, its maximization, and the Tukey-depth oracle."""

import warnings
from fractions import Fraction

import pytest

from dualdepth import (
    Hyperplane,
    Instance,
    ZeroDirectionError,
    discrete_centerpoint,
    dual_depth,
    gen_instance,
    max_depth_point,
    ray_crossings,
    tukey_depth,
)
from dualdepth.depth import (
    CellSignature,
    depth_from_signature,
    hemisphere_depth,
    signature_of,
)
from dualdepth.geometry import DegenerateInstanceError, dot

from conftest import sampled_depth_oracle


class TestRayCrossings:
    def test_ray_into_line(self, triangle):
        F = Instance(2, [triangle.hyperplanes[0]])
        assert ray_crossings(F, (1, 0), (-1, 0)) == 1

    def test_parallel_ray_misses(self, triangle):
        F = Instance(2, [triangle.hyperplanes[0]])
        assert ray_crossings(F, (1, 0), (0, 1)) == 0

    def test_vertex_of_triangle(self, triangle):
        assert ray_crossings(triangle, (0, 0), (-1, -1)) == 2

    def test_zero_direction_rejected(self, triangle):
        with pytest.raises(ZeroDirectionError):
            ray_crossings(triangle, (0, 0), (0, 0))

    def test_positive_scaling_invariance(self, triangle):
        for u in ((1, 2), (-3, 1), (0, -1)):
            base = ray_crossings(triangle, (Fraction(1, 4), Fraction(1, 4)), u)
            for lam in (2, Fraction(1, 3), 10):
                scaled = tuple(lam * c for c in u)
                assert ray_crossings(
                    triangle, (Fraction(1, 4), Fraction(1, 4)), scaled
                ) == base


class TestHemisphereDepth:
    def test_single_vector(self):
        count, u = hemisphere_depth([(1, 0)])
        assert count == 0
        assert dot((Fraction(1), Fraction(0)), u) <= 0

    def test_opposite_pair(self):
        count, u = hemisphere_depth([(1, 0), (-1, 0)])
        assert count == 0
        assert u[0] == 0 and u[1] != 0

    def test_three_spanning_vectors(self):
        vecs = [(1, 0), (0, 1), (-1, -1)]
        count, u = hemisphere_depth(vecs)
        assert count == 1
        assert sum(1 for w in vecs if dot(tuple(map(Fraction, w)), u) > 0) == 1

    def test_empty_input(self):
        count, u = hemisphere_depth([], dim=3)
        assert count == 0 and len(u) == 3

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroDirectionError):
            hemisphere_depth([(0, 0), (1, 0)])

    def test_witness_attains_count(self):
        for seed in range(10):
            F = gen_instance("random-rational", 7, 3, seed=seed)
            vecs = [h.normal for h in F.hyperplanes]
            count, u = hemisphere_depth(vecs)
            assert sum(1 for w in vecs if dot(w, u) > 0) == count


class TestDualDepth:
    def test_triangle_interior(self, triangle):
        depth, _ = dual_depth(triangle, (Fraction(1, 4), Fraction(1, 4)))
        assert depth == 1

    def test_triangle_outside(self, triangle):
        depth, u = dual_depth(triangle, (2, 2))
        assert depth == 0
        assert ray_crossings(triangle, (2, 2), u) == 0

    def test_on_one_line(self, triangle):
        depth, u = dual_depth(triangle, (0, 5))
        assert depth == 1
        assert ray_crossings(triangle, (0, 5), u) == 1

    def test_witness_always_attains(self, triangle):
        for x in ((0, 0), (Fraction(1, 3), Fraction(1, 3)), (5, -7), (0, Fraction(1, 2))):
            depth, u = dual_depth(triangle, x)
            assert ray_crossings(triangle, x, u) == depth

    def test_oracle_equivalence_small(self):
        for seed in range(6):
            F = gen_instance("random-rational", 6, 2, seed=seed)
            for j, x in enumerate([(0, 0), (1, 2), (Fraction(-3, 2), Fraction(5, 4))]):
                depth, u = dual_depth(F, x)
                sampled = sampled_depth_oracle(F, x, 20_000, seed=100 * seed + j)
                assert sampled >= depth
                assert ray_crossings(F, x, u) == depth

    def test_monotone_under_added_hyperplanes(self):
        for seed in range(5):
            F = gen_instance("random-rational", 7, 2, seed=seed)
            for x in ((0, 0), (Fraction(1, 2), Fraction(-1, 3))):
                sub = Instance(2, F.hyperplanes[:5])
                assert dual_depth(F, x)[0] >= dual_depth(sub, x)[0]


class TestCellSignature:
    def test_signature_values(self, triangle):
        assert signature_of(triangle, (Fraction(1, 4), Fraction(1, 4))).signs == (1, 1, -1)
        assert signature_of(triangle, (0, 0)).signs == (0, 0, -1)

    def test_depth_from_signature_matches(self, triangle):
        for x in ((Fraction(1, 4), Fraction(1, 4)), (2, 2), (0, 5)):
            sig = signature_of(triangle, x)
            assert depth_from_signature(triangle, sig)[0] == dual_depth(triangle, x)[0]

    def test_constant_within_cell(self):
        F = gen_instance("random-rational", 8, 2, seed=3)
        a = (Fraction(1, 7), Fraction(2, 7))
        b = (Fraction(1, 7) + Fraction(1, 10**6), Fraction(2, 7) + Fraction(1, 10**6))
        if signature_of(F, a) == signature_of(F, b):
            assert dual_depth(F, a)[0] == dual_depth(F, b)[0]


class TestMaxDepthPoint:
    def test_triangle_certificate(self, triangle):
        cert = max_depth_point(triangle)
        assert cert.depth == 2
        assert cert.point == (0, 0)  # lexicographically smallest of the vertices
        assert cert.bound == 1 and cert.meets_bound
        assert ray_crossings(triangle, cert.point, cert.witness_direction) == 2

    def test_single_hyperplane(self):
        F = Instance(2, [Hyperplane((Fraction(1), Fraction(0)), Fraction(0))])
        cert = max_depth_point(F)
        assert cert.depth == 1 and cert.bound == 1 and cert.meets_bound
        assert cert.point[0] == 0

    def test_empty_instance_gives_origin(self):
        cert = max_depth_point(Instance(3, []))
        assert cert.point == (0, 0, 0)
        assert cert.depth == 0 and cert.bound == 0 and cert.meets_bound
        assert len(cert.witness_direction) == 3

    def test_six_random_lines_seed_42(self):
        F = gen_instance("random-rational", 6, 2, seed=42)
        cert = max_depth_point(F)
        assert cert.bound == 2
        assert cert.depth >= 2 and cert.meets_bound
        assert dual_depth(F, cert.point)[0] == cert.depth

    def test_degenerate_rejected(self):
        F = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane((Fraction(1), Fraction(0)), Fraction(1)),
            ],
        )
        with pytest.raises(DegenerateInstanceError):
            max_depth_point(F)

    def test_maximum_beats_random_probes(self):
        for seed in range(5):
            F = gen_instance("random-rational", 7, 2, seed=seed)
            cert = max_depth_point(F)
            for x in ((0, 0), (1, 1), (Fraction(-1, 2), Fraction(3, 4))):
                assert dual_depth(F, x)[0] <= cert.depth


class TestTukeyDepth:
    def test_centroid_of_triangle_points(self):
        P = [(0, 0), (1, 0), (0, 1)]
        assert tukey_depth(P, (Fraction(1, 3), Fraction(1, 3))) == 1

    def test_single_point(self):
        assert tukey_depth([(0, 0)], (0, 0)) == 1

    def test_far_point(self):
        assert tukey_depth([(0, 0), (1, 0)], (5, 5)) == 0

    def test_centerpoint_meets_discrete_bound(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for trial in range(8):
            n = int(rng.integers(4, 10))
            P = [tuple(Fraction(int(v)) for v in rng.integers(-20, 21, size=2)) for _ in range(n)]
            if len(set(P)) < n:
                continue
            c = discrete_centerpoint(P)
            assert tukey_depth(P, c) >= (n + 2) // 3

    def test_rank_deficient_sets(self):
        # points on a line in R^2 and R^3 and on a plane in R^3: on the set's
        # span the depth is the lower-dimensional one, off it 0
        line2 = [(t, 3 * t + 1) for t in range(5)]
        assert [tukey_depth(line2, x) for x in line2] == [1, 2, 3, 2, 1]
        assert tukey_depth(line2, (Fraction(1, 2), Fraction(5, 2))) == 1
        assert tukey_depth(line2, (0, 0)) == 0
        line3 = [(t, 2 * t, -t) for t in range(-3, 4)]
        assert [tukey_depth(line3, x) for x in line3] == [1, 2, 3, 4, 3, 2, 1]
        assert tukey_depth(line3, (Fraction(1, 3), 0, 0)) == 0
        plane3 = [(a, b, a + b) for a in range(-2, 3) for b in range(-1, 2)]
        assert [tukey_depth(plane3, x) for x in plane3] == [
            1, 2, 1, 2, 5, 2, 3, 8, 3, 2, 5, 2, 1, 2, 1]
        assert tukey_depth(plane3, (Fraction(1, 2), 0, Fraction(1, 2))) == 6
        assert tukey_depth(plane3, (0, 0, 1)) == 0

    def test_median_in_one_dimension(self):
        assert discrete_centerpoint([(Fraction(5),), (Fraction(1),), (Fraction(9),)]) == (5,)

    def test_centerpoint_scale_invariant_past_float_range(self):
        # 12 points span 66 lines and 1496 distinct candidates, so the float
        # screen and its 600 cap run; at 10**200 its counts must still bound
        P = [(-14, 19), (10, -30), (-6, 22), (3, -28), (16, 14), (21, -20),
             (-25, 22), (-29, 3), (-26, -12), (-1, -5), (-6, -29), (-30, -23)]
        P = [tuple(Fraction(v) for v in p) for p in P]
        big = [tuple(10**200 * v for v in p) for p in P]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = discrete_centerpoint(P)
            assert discrete_centerpoint(big) == tuple(10**200 * v for v in c)
