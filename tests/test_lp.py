"""The exact margin LP of ``common_interior_point`` against Fraction references.

``_max_slack`` enumerates the bases of the max-slack LP; its optimum must
equal the reference simplex's, and its point must be the lexicographically
least optimal vertex that the reference vertex enumeration finds.
"""

from fractions import Fraction

import numpy as np

from dualdepth import Hyperplane, Instance, gen_instance
from dualdepth.geometry import DegenerateSubfamilyError
from dualdepth.tverberg import _max_slack, common_interior_point, form_simplex

from conftest import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    dot,
    exact_dtype_of,
    margin_lp,
    margin_rows,
    simplex_reference,
    vertex_reference,
)


def assert_matches_references(facets):
    """``_max_slack`` on the facets agrees with both references; returns its answer."""
    x, e = _max_slack(margin_rows(facets))
    ref = simplex_reference(*margin_lp(facets))
    assert ref.status == OPTIMAL and ref.value == e
    assert vertex_reference(*margin_lp(facets)) == (e, x + (e,))
    return x, e


def triangle_simplex(size):
    """The simplex of x1 = 0, x2 = 0, x1 + x2 = size; its margin is size / 3."""
    F = Instance(2, [
        Hyperplane((1, 0), 0), Hyperplane((0, 1), 0), Hyperplane((1, 1), size),
    ])
    return form_simplex(F, (0, 1, 2))


def facets_of(simplices):
    return [f for s in simplices for f in s.facets]


class TestMaximize:
    """The references on LPs with known answers, which the margin-LP comparisons trust."""

    def test_simple_optimum(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4
        res = simplex_reference([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
        assert res.status == OPTIMAL
        assert res.value == 4
        assert sum(res.x) == 4
        # the optimal face is the edge from (1, 3) to (2, 2)
        assert vertex_reference([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4]) == (4, (1, 3))

    def test_infeasible(self):
        # x <= -1 and -x <= -2 force x <= -1 and x >= 2
        res = simplex_reference([1], [[1], [-1]], [-1, -2])
        assert res.status == INFEASIBLE
        assert res.x is None and res.value is None
        assert vertex_reference([1], [[1], [-1]], [-1, -2]) is None

    def test_unbounded(self):
        res = simplex_reference([1], [[-1]], [0])
        assert res.status == UNBOUNDED

    def test_free_variables_negative_optimum(self):
        # max x st x <= -3: optimum at x = -3, needs the free split
        res = simplex_reference([1], [[1]], [-3])
        assert res.status == OPTIMAL
        assert res.x == (-3,) and res.value == -3
        assert vertex_reference([1], [[1]], [-3]) == (-3, (-3,))

    def test_exact_rational_answer(self):
        # max 3x + 2y st 2x + y <= 1, x + 3y <= 1 -> vertex (2/5, 1/5)
        res = simplex_reference([3, 2], [[2, 1], [1, 3]], [1, 1])
        assert res.status == OPTIMAL
        assert res.x == (Fraction(2, 5), Fraction(1, 5))
        assert res.value == Fraction(8, 5)
        assert vertex_reference([3, 2], [[2, 1], [1, 3]], [1, 1]) == (res.value, res.x)

    def test_degenerate_constraints_terminate(self):
        # redundant and duplicated rows exercise Bland's rule anti-cycling
        A = [[1, 0], [1, 0], [0, 1], [1, 1], [2, 2]]
        b = [1, 1, 1, 2, 4]
        res = simplex_reference([1, 1], A, b)
        assert res.status == OPTIMAL
        assert res.value == 2
        assert vertex_reference([1, 1], A, b) == (2, (1, 1))

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            A = [[Fraction(int(v)) for v in row] for row in rng.integers(-5, 6, size=(m, n))]
            b = [Fraction(int(v)) for v in rng.integers(-3, 8, size=m)]
            c = [Fraction(int(v)) for v in rng.integers(-4, 5, size=n)]
            # cap every variable to keep the program bounded
            for j in range(n):
                row = [Fraction(0)] * n
                row[j] = Fraction(1)
                A.append(list(row))
                b.append(Fraction(10))
                row2 = [Fraction(0)] * n
                row2[j] = Fraction(-1)
                A.append(row2)
                b.append(Fraction(10))
            res = simplex_reference(c, A, b)
            assert res.status in (OPTIMAL, INFEASIBLE)
            ref = vertex_reference(c, A, b)
            assert (ref is None) == (res.status == INFEASIBLE)
            if res.status == OPTIMAL:
                for row, bi in zip(A, b):
                    assert sum(a * x for a, x in zip(row, res.x)) <= bi
                assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.value == ref[0]

    def test_degenerate_random_lps_match_exact_simplex(self):
        # few distinct coefficients and repeated rows: ties in the ratio
        # test, zero multipliers and optimal faces larger than a point
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 7))
            A = [[int(v) for v in row] for row in rng.integers(-1, 2, size=(m, n))]
            b = [int(v) for v in rng.integers(0, 2, size=m)]
            A += A[: int(rng.integers(0, m + 1))]
            b += b[: len(A) - len(b)]
            for j in range(n):
                for sign in (1, -1):
                    A.append([sign * int(k == j) for k in range(n)])
                    b.append(2)
            c = [int(v) for v in rng.integers(-2, 3, size=n)]
            res = simplex_reference(c, A, b)
            value, x = vertex_reference(c, A, b)
            assert res.status == OPTIMAL and res.value == value
            assert sum(ci * xi for ci, xi in zip(c, x)) == value

    def test_margin_lps_match_exact_simplex(self):
        rng = np.random.default_rng(3)
        kinds = set()
        for case in range(40):
            d = int(rng.integers(2, 4))
            F = gen_instance("random-rational", 3 * (d + 1), d, seed=case)
            simplices = []
            while len(simplices) < int(rng.integers(1, 4)):
                idx = rng.choice(F.n, size=d + 1, replace=False).tolist()
                try:
                    simplices.append(form_simplex(F, idx))
                except DegenerateSubfamilyError:
                    continue
            _, e = assert_matches_references(facets_of(simplices))
            margin = min(e, 1)
            kinds.add("deep" if margin == 1 else "open" if margin > 0 else "closed")
        assert kinds == {"deep", "open", "closed"}


class TestMaxSlack:
    def test_triangle_incenter(self):
        witness, margin = common_interior_point([triangle_simplex(1)])
        assert witness == (Fraction(1, 3), Fraction(1, 3))
        assert margin == Fraction(1, 3)

    def test_margin_is_capped_at_one(self):
        simplex = triangle_simplex(10)
        witness, margin = common_interior_point([simplex])
        # the largest slack is 10/3, at the one deepest point; the margin caps it
        assert margin == 1
        assert witness == (Fraction(10, 3), Fraction(10, 3))
        assert min(dot(normal, witness) - offset for normal, offset in simplex.facets) >= 1
        assert _max_slack(margin_rows(simplex.facets)) == (witness, Fraction(10, 3))

    def test_object_dtype_collection(self):
        # 400-digit coefficients put the cofactors and the row check on Python ints
        big = 10**400
        F = Instance(2, [
            Hyperplane((big, 1), 0), Hyperplane((1, big), 0), Hyperplane((1, 1), 3),
            Hyperplane((big, -1), big), Hyperplane((-1, big), big), Hyperplane((1, 1), -1),
        ])
        simplices = [form_simplex(F, (0, 1, 2)), form_simplex(F, (3, 4, 5))]
        facets = facets_of(simplices)
        assert exact_dtype_of(margin_rows(facets)) == object
        # slack 2 on the segment x + y = 1 inside both; its least point is
        # where the facet on plane 4 (x - big y >= -big) has slack 2 too
        x, e = assert_matches_references(facets)
        assert e == 2 and x == (Fraction(2, big + 1), 1 - Fraction(2, big + 1))
        assert common_interior_point(simplices) == (x, 1)

    def test_touching_triangles_margin_zero(self):
        # two triangles sharing the edge from (1, 0) to (0, 1): every point of
        # it has slack 0, and the witness is its least point (0, 1)
        F = Instance(2, [
            Hyperplane((1, 0), 0), Hyperplane((0, 1), 0), Hyperplane((1, 1), 1),
            Hyperplane((1, 0), 1), Hyperplane((0, 1), 1),
        ])
        simplices = [form_simplex(F, (0, 1, 2)), form_simplex(F, (2, 3, 4))]
        assert common_interior_point(simplices) == ((0, 1), 0)
        assert assert_matches_references(facets_of(simplices)) == ((0, 1), 0)

    def test_deepest_set_is_a_segment(self):
        # triangles over y >= 0 and under y <= 2: slack 1 on y = 1 for
        # -8 <= x <= 8, and the witness is the segment's least point (-8, 1)
        F = Instance(2, [
            Hyperplane((0, 1), 0), Hyperplane((1, 1), 10), Hyperplane((-1, 1), 10),
            Hyperplane((0, 1), 2), Hyperplane((1, -1), 8), Hyperplane((1, 1), -8),
        ])
        simplices = [form_simplex(F, (0, 1, 2)), form_simplex(F, (3, 4, 5))]
        assert common_interior_point(simplices) == ((-8, 1), 1)
        assert assert_matches_references(facets_of(simplices)) == ((-8, 1), 1)
