"""Simplex formation, LP interior certificates, and partition construction."""

from fractions import Fraction

import pytest

from dualdepth import (
    MODELS,
    DegenerateSubfamilyError,
    Hyperplane,
    Instance,
    colorful_dual_tverberg_search,
    common_interior_point,
    dual_tverberg_plane,
    dual_tverberg_search,
    form_simplex,
    gen_instance,
    max_depth_point,
    parse_instance,
    signature_of,
    write_instance,
)
from dualdepth import geometry, tverberg
from dualdepth.geometry import DimensionMismatchError
from dualdepth.tverberg import _partitions

from conftest import (
    colorful_dual_tverberg_search_reference,
    dot,
    dual_tverberg_plane_reference,
    dual_tverberg_search_reference,
    strict_partitions_oracle,
)


def parsed(model, n, seed, d=2, colors=None):
    """A generated instance read back from a file that declares nothing
    but its colors, so no general-position verdict is cached on it."""
    F = gen_instance(model, n, d, seed=seed, colors=colors)
    return parse_instance(write_instance(Instance(d, F.hyperplanes, colors=F.colors)))


def containment_margin(simplices, x):
    x = tuple(Fraction(v) for v in x)
    return min(
        dot(normal, x) - offset for s in simplices for normal, offset in s.facets
    )


class TestFormSimplex:
    def test_standard_triangle(self, triangle):
        s = form_simplex(triangle, (0, 1, 2))
        assert set(s.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_parallel_pair_degenerate(self):
        F = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane((Fraction(1), Fraction(0)), Fraction(1)),
                Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
            ],
        )
        with pytest.raises(DegenerateSubfamilyError):
            form_simplex(F, (0, 1, 2))

    def test_three_dimensional_simplex(self):
        F = Instance(
            3,
            [
                Hyperplane((1, 0, 0), 0),
                Hyperplane((0, 1, 0), 0),
                Hyperplane((0, 0, 1), 0),
                Hyperplane((1, 1, 1), 1),
            ],
        )
        s = form_simplex(F, (0, 1, 2, 3))
        assert set(s.vertices) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_facet_certificates(self):
        for seed in range(6):
            F = gen_instance("random-rational", 3, 2, seed=seed)
            s = form_simplex(F, (0, 1, 2))
            for pos, (normal, offset) in enumerate(s.facets):
                slacks = [dot(normal, v) - offset for v in s.vertices]
                assert sum(1 for t in slacks if t == 0) == 2
                assert slacks[pos] > 0  # the opposite vertex is strictly inward

    def test_bad_index_count(self, triangle):
        with pytest.raises(DimensionMismatchError):
            form_simplex(triangle, (0, 1))


class TestCommonInteriorPoint:
    def test_single_triangle_strict(self, triangle):
        s = form_simplex(triangle, (0, 1, 2))
        witness, margin = common_interior_point([s])
        assert margin > 0
        for normal, offset in s.facets:
            assert dot(normal, witness) - offset >= margin

    def test_disjoint_translates_infeasible(self):
        near = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
                Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
            ],
        )
        far = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(100)),
                Hyperplane((Fraction(0), Fraction(1)), Fraction(100)),
                Hyperplane((Fraction(1), Fraction(1)), Fraction(201)),
            ],
        )
        a = form_simplex(near, (0, 1, 2))
        b = form_simplex(far, (0, 1, 2))
        assert common_interior_point([a, b]) is None

    def test_duplicated_constraints_inert(self, triangle):
        s = form_simplex(triangle, (0, 1, 2))
        single = common_interior_point([s])
        doubled = common_interior_point([s, s])
        assert single == doubled

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            common_interior_point([])

    def test_boundary_contact_reports_zero_margin(self):
        # mirror-image triangles sharing exactly the edge x1 = 0
        left = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
                Hyperplane((Fraction(-1), Fraction(1)), Fraction(1)),
            ],
        )
        right = Instance(
            2,
            [
                Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
                Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
            ],
        )
        a = form_simplex(left, (0, 1, 2))
        b = form_simplex(right, (0, 1, 2))
        witness, margin = common_interior_point([a, b])
        assert margin == 0
        assert witness[0] == 0


class TestDualTverbergPlane:
    def test_single_triangle(self, triangle):
        res = dual_tverberg_plane(triangle)
        assert res.groups == ((0, 1, 2),)
        assert res.witness == max_depth_point(triangle).point
        assert res.margin == 0 and not res.strict  # witness is a vertex on two lines

    def test_six_random_lines_seed_7(self):
        F = gen_instance("random-rational", 6, 2, seed=7)
        res = dual_tverberg_plane(F)
        assert len(res.groups) == 2
        simplices = [form_simplex(F, g) for g in res.groups]
        assert containment_margin(simplices, res.witness) == res.margin
        assert res.margin >= 0

    def test_six_tangent_lines(self):
        F = gen_instance("uniform-sphere-tangent", 6, 2, seed=0)
        res = dual_tverberg_plane(F)
        simplices = [form_simplex(F, g) for g in res.groups]
        assert containment_margin(simplices, res.witness) >= 0
        assert res.groups == ((0, 2, 4), (1, 3, 5))  # circular order alternates
        # the witness is a vertex of two tangent lines, just outside the circle
        assert dot(res.witness, res.witness) <= 2

    def test_strict_iff_witness_off_all_lines(self):
        for seed in range(20):
            F = gen_instance("random-rational", 9, 2, seed=seed)
            res = dual_tverberg_plane(F)
            on_some = 0 in signature_of(F, res.witness)
            assert res.margin >= 0
            assert res.strict == (res.margin > 0)
            if not on_some:
                assert res.strict

    def test_count_not_divisible_by_three(self):
        F = gen_instance("random-rational", 4, 2, seed=0)
        with pytest.raises(ValueError):
            dual_tverberg_plane(F)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of 3"):
            dual_tverberg_plane(Instance(2, []))

    def test_requires_plane(self):
        F = gen_instance("random-rational", 6, 3, seed=0)
        with pytest.raises(DimensionMismatchError):
            dual_tverberg_plane(F)

    def test_groups_partition_everything(self):
        F = gen_instance("random-rational", 12, 2, seed=4)
        res = dual_tverberg_plane(F)
        flat = sorted(i for g in res.groups for i in g)
        assert flat == list(range(12))

    @pytest.mark.parametrize("n", [3, 6, 9, 12, 15, 18])
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_eager_reference(self, model, n):
        for seed in range(10):
            assert dual_tverberg_plane(parsed(model, n, seed)) == \
                dual_tverberg_plane_reference(parsed(model, n, seed))

    def test_answer_from_insertion_scan(self, monkeypatch):
        # the stored-normal order leaves the center outside a triangle, so
        # the answer is the sixth order of the scan over slots of a and b
        margins = []
        real = tverberg._containment_margin

        def recording(simplices, x):
            margins.append(real(simplices, x))
            return margins[-1]

        monkeypatch.setattr(tverberg, "_containment_margin", recording)
        res = dual_tverberg_plane(parsed("random-rational", 9, 4))
        assert len(margins) == 7 and all(m < 0 for m in margins[:-1])
        assert res.margin == margins[-1] == 0 and not res.strict
        assert res == dual_tverberg_plane_reference(parsed("random-rational", 9, 4))


class TestDualTverbergSearch:
    def test_trivial_single_group(self, triangle):
        res = dual_tverberg_search(triangle, 1)
        assert res is not None
        assert res.groups == ((0, 1, 2),)
        assert res.strict and res.margin > 0

    def test_six_lines_seed_7(self):
        F = gen_instance("random-rational", 6, 2, seed=7)
        res = dual_tverberg_search(F, 2)
        assert res is not None and res.strict
        assert res.metadata["candidates_checked"] <= 10

    def test_eight_planes_seed_11(self):
        F = gen_instance("random-rational", 8, 3, seed=11)
        res = dual_tverberg_search(F, 2)
        assert res is not None and res.strict
        assert res.metadata["candidates_checked"] <= 35

    def test_partition_enumeration_is_lexicographic(self):
        parts = [tuple(p) for p in _partitions(list(range(6)), 3)]
        assert len(parts) == 10
        assert parts == sorted(parts)
        assert parts[0] == ((0, 1, 2), (3, 4, 5))

    def test_agrees_with_independent_enumerator(self):
        for seed in range(6):
            F = gen_instance("random-rational", 6, 2, seed=seed)
            res = dual_tverberg_search(F, 2)
            oracle = strict_partitions_oracle(F, 2)
            if oracle:
                assert res is not None
                assert res.groups == oracle[0]
            else:
                assert res is None

    def test_result_recertifies(self):
        F = gen_instance("random-rational", 9, 2, seed=2)
        res = dual_tverberg_search(F, 3)
        assert res is not None
        simplices = [form_simplex(F, g) for g in res.groups]
        assert containment_margin(simplices, res.witness) >= res.margin > 0

    def test_cardinality_mismatch(self, triangle):
        with pytest.raises(ValueError):
            dual_tverberg_search(triangle, 2)

    @pytest.mark.parametrize("d,groups", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_center_stage_reference(self, model, d, groups):
        for seed in range(10):
            F = parsed(model, (d + 1) * groups, seed, d)
            assert dual_tverberg_search(F, groups) == \
                dual_tverberg_search_reference(parsed(model, (d + 1) * groups, seed, d), groups)

    def test_computes_no_center(self, monkeypatch):
        expected = dual_tverberg_search_reference(parsed("random-rational", 9, 2), 3)

        def refuse(F):
            raise AssertionError("the search computed a center")

        monkeypatch.setattr(tverberg, "max_depth_point", refuse)
        assert dual_tverberg_search(parsed("random-rational", 9, 2), 3) == expected

    @pytest.mark.parametrize("colors,search", [
        (None, lambda F: dual_tverberg_search(F, 3)),
        ([0] * 3 + [1] * 3 + [2] * 3, lambda F: colorful_dual_tverberg_search(F, 2)),
    ], ids=["tverberg-search", "colorful"])
    def test_reads_simplices_off_one_vertex_pass(self, monkeypatch, colors, search):
        passes = []
        real = geometry.vertex_blocks

        def counting(F):
            passes.append(F.n)
            return real(F)

        def refuse(F, groups):
            raise AssertionError("the search built a simplex by its own cofactor call")

        expected = search(parsed("random-rational", 9, 2, 2, colors))
        F = parsed("random-rational", 9, 2, 2, colors)
        assert F._gp is None
        monkeypatch.setattr(geometry, "vertex_blocks", counting)
        monkeypatch.setattr(tverberg, "_simplex_vertices", refuse)
        assert search(F) == expected
        assert passes == [9] and F._gp.ok

    def test_no_groups_on_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="at least one group"):
            dual_tverberg_search(Instance(2, []), 0)


UNPRUNED_CASES = [
    ("random-rational", 2, 3, 2), ("random-rational", 2, 4, 2), ("random-rational", 2, 5, 3),
    ("random-rational", 3, 3, 2), ("random-rational", 2, 3, 1),
    ("uniform-sphere-tangent", 3, 2, 2),
]


class TestColorfulSearch:
    def test_trivial_one_per_color(self, triangle):
        F = Instance(2, list(triangle.hyperplanes), colors=[0, 1, 2])
        res = colorful_dual_tverberg_search(F, 1)
        assert res is not None
        assert res.groups == ((0, 1, 2),)
        assert res.strict

    def test_three_by_three_seed_5(self):
        F = gen_instance(
            "random-rational", 9, 2, seed=5, colors=[0, 0, 0, 1, 1, 1, 2, 2, 2]
        )
        res = colorful_dual_tverberg_search(F, 2)
        assert res is not None and res.strict
        flat = [i for g in res.groups for i in g]
        assert len(set(flat)) == 6  # disjoint groups
        for g in res.groups:
            assert sorted(F.colors[i] for i in g) == [0, 1, 2]
        assert res.metadata["preconditions"]["t_ge_2r_minus_1"]
        assert res.metadata["preconditions"]["r_prime_power"]

    def test_precondition_violation_recorded_not_enforced(self):
        F = gen_instance("random-rational", 6, 2, seed=9, colors=[0, 0, 1, 1, 2, 2])
        res = colorful_dual_tverberg_search(F, 2)
        if res is not None:
            assert res.metadata["preconditions"]["t_ge_2r_minus_1"] is False
            assert res.strict

    def test_missing_colors_rejected(self, triangle):
        with pytest.raises(ValueError):
            colorful_dual_tverberg_search(triangle, 1)

    def test_more_groups_than_class_size_not_found(self):
        # r past the C ssize_t range overflowed itertools.combinations
        F = gen_instance("random-rational", 6, 2, seed=9, colors=[0, 0, 1, 1, 2, 2])
        assert colorful_dual_tverberg_search(F, 3) is None
        assert colorful_dual_tverberg_search(F, 10**20) is None

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_groups_rejected(self, triangle, r):
        F = Instance(2, list(triangle.hyperplanes), colors=[0, 1, 2])
        with pytest.raises(ValueError, match="at least one group"):
            colorful_dual_tverberg_search(F, r)

    # sphere-tangent planes in d=3 put the vertex table on Python ints (dtype=object)
    @pytest.mark.parametrize("model,d,t,r", UNPRUNED_CASES,
                             ids=[f"{d}-{t}-{r}" if model == "random-rational"
                                  else f"{model}-{d}-{t}-{r}" for model, d, t, r in UNPRUNED_CASES])
    def test_matches_unpruned_reference(self, model, d, t, r):
        colors = [c for c in range(d + 1) for _ in range(t)]
        for seed in range(15):
            F = parsed(model, (d + 1) * t, seed, d, colors)
            assert colorful_dual_tverberg_search(F, r) == colorful_dual_tverberg_search_reference(
                parsed(model, (d + 1) * t, seed, d, colors), r)

    def test_disjoint_boxes_skip_the_lp(self, monkeypatch):
        calls = []
        real = tverberg._max_slack

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(tverberg, "_max_slack", counting)
        colors = [0] * 4 + [1] * 4 + [2] * 4
        res = colorful_dual_tverberg_search(parsed("random-rational", 12, 1, 2, colors), 2)
        # 56 disjoint candidates, 47 of them with two vertex boxes apart
        assert res is not None and res.metadata["candidates_checked"] == 56
        assert len(calls) == 9

    def test_unbalanced_colors_rejected(self):
        F = gen_instance("random-rational", 5, 2, seed=0, colors=[0, 0, 1, 1, 2])
        with pytest.raises(ValueError):
            colorful_dual_tverberg_search(F, 1)
