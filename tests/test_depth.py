"""Ray-crossing depth and its maximization."""

from fractions import Fraction

import pytest

from dualdepth import (
    Hyperplane,
    Instance,
    ZeroDirectionError,
    dual_depth,
    gen_instance,
    max_depth_point,
    ray_crossings,
)
from dualdepth.depth import signature_of
from dualdepth.geometry import DegenerateInstanceError, scale_to_int

from conftest import dot, hemisphere_at_origin, hemisphere_depth_reference, sampled_depth_oracle


def hemisphere(vecs, dim):
    """``hemisphere_at_origin`` of nonzero rational vectors, checked against the reference."""
    ints = [c for v in vecs for c in scale_to_int([Fraction(c) for c in v])]
    got = hemisphere_at_origin(ints, dim)
    assert got == hemisphere_depth_reference(vecs, dim)
    return got


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

    def test_matches_rational_residuals(self):
        # the side signs come from the integer rows; the residual
        # offset - normal . x of each rational hyperplane gives the same count
        for d, seed in ((2, 1), (2, 4), (3, 2)):
            F = gen_instance("random-rational", 7, d, seed=seed)
            vertex = max_depth_point(F).point  # on d of the hyperplanes
            points = [vertex, tuple(Fraction(k - 2, 3) for k in range(d))]
            directions = [(1,) * d, tuple(range(-1, d - 1)),
                          tuple(-c for c in F.hyperplanes[0].normal)]
            for x in points:
                for u in directions:
                    expected = 0
                    for h in F.hyperplanes:
                        r = h.offset - dot(h.normal, x)
                        expected += r == 0 or r * dot(h.normal, u) > 0
                    assert ray_crossings(F, x, u) == expected


class TestHemisphereDepth:
    def test_single_vector(self):
        count, u = hemisphere([(1, 0)], 2)
        assert count == 0
        assert dot((Fraction(1), Fraction(0)), u) <= 0

    def test_opposite_pair(self):
        count, u = hemisphere([(1, 0), (-1, 0)], 2)
        assert count == 0
        assert u[0] == 0 and u[1] != 0

    def test_three_spanning_vectors(self):
        vecs = [(1, 0), (0, 1), (-1, -1)]
        count, u = hemisphere(vecs, 2)
        assert count == 1
        assert sum(1 for w in vecs if dot(tuple(map(Fraction, w)), u) > 0) == 1

    def test_empty_input(self):
        count, u = hemisphere([], 3)
        assert count == 0 and len(u) == 3

    def test_witness_attains_count(self):
        for seed in range(10):
            F = gen_instance("random-rational", 7, 3, seed=seed)
            vecs = [h.normal for h in F.hyperplanes]
            count, u = hemisphere(vecs, 3)
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
        assert signature_of(triangle, (Fraction(1, 4), Fraction(1, 4))) == (1, 1, -1)
        assert signature_of(triangle, (0, 0)) == (0, 0, -1)

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
