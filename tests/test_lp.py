"""Exact linear programming: the float-guided certificate and the exact simplex."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from dualdepth import Hyperplane, Instance, gen_instance, lp
from dualdepth.geometry import DegenerateSubfamilyError, dot, exact_int_array, scale_to_int
from dualdepth.tverberg import common_interior_point, form_simplex


def exact(c, A, b):
    """The exact simplex alone, on the same coerced data as ``maximize``."""
    return lp._maximize_exact(
        [Fraction(v) for v in c], [[Fraction(v) for v in row] for row in A], [Fraction(v) for v in b]
    )


def same(res, ref) -> bool:
    return (res.status, res.x, res.value) == (ref.status, ref.x, ref.value)


def margin_lp(simplices, cap=False):
    """The margin LP of ``common_interior_point``: maximize e, with e <= 1 if ``cap``."""
    d = simplices[0].dim
    A, b = [], []
    for s in simplices:
        for normal, offset in s.facets:
            A.append([-v for v in normal] + [Fraction(1)])
            b.append(-offset)
    if cap:
        A.append([Fraction(0)] * d + [Fraction(1)])
        b.append(Fraction(1))
    return [Fraction(0)] * d + [Fraction(1)], A, b


def integer_rows(c, A, b):
    """``maximize``'s integer form: the objective and rows (A_i | -b_i), scaled."""
    c = [Fraction(v) for v in c]
    rows = [scale_to_int([Fraction(v) for v in row] + [-Fraction(bi)]) for row, bi in zip(A, b)]
    return scale_to_int(c), rows


def assert_certificates_sound(c, A, b) -> int:
    """Every basis the certificate accepts gives the exact simplex's optimum.

    Tries all len(c)-subsets of rows and returns how many were accepted.
    """
    ref = exact(c, A, b)
    obj, rows = integer_rows(c, A, b)
    accepted = 0
    for tight in itertools.combinations(range(len(rows)), len(c)):
        x = lp._certify(obj, rows, list(tight))
        if x is not None:
            assert ref.status == lp.OPTIMAL and x == ref.x, tight
            accepted += 1
    return accepted


def triangle_simplex(size):
    """The simplex of x1 = 0, x2 = 0, x1 + x2 = size; its margin is size / 3."""
    F = Instance(2, [
        Hyperplane((1, 0), 0), Hyperplane((0, 1), 0), Hyperplane((1, 1), size),
    ])
    return form_simplex(F, (0, 1, 2))


class TestMaximize:
    def test_simple_optimum(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4
        res = lp.maximize([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
        assert res.status == lp.OPTIMAL
        assert res.value == 4
        assert sum(res.x) == 4

    def test_infeasible(self):
        # x <= -1 and -x <= -2 force x <= -1 and x >= 2
        res = lp.maximize([1], [[1], [-1]], [-1, -2])
        assert res.status == lp.INFEASIBLE
        assert res.x is None and res.value is None

    def test_unbounded(self):
        res = lp.maximize([1], [[-1]], [0])
        assert res.status == lp.UNBOUNDED

    def test_free_variables_negative_optimum(self):
        # max x st x <= -3: optimum at x = -3, needs the free split
        res = lp.maximize([1], [[1]], [-3])
        assert res.status == lp.OPTIMAL
        assert res.x == (-3,) and res.value == -3

    def test_exact_rational_answer(self):
        # max 3x + 2y st 2x + y <= 1, x + 3y <= 1 -> vertex (2/5, 1/5)
        res = lp.maximize([3, 2], [[2, 1], [1, 3]], [1, 1])
        assert res.status == lp.OPTIMAL
        assert res.x == (Fraction(2, 5), Fraction(1, 5))
        assert res.value == Fraction(8, 5)

    def test_degenerate_constraints_terminate(self):
        # redundant and duplicated rows exercise Bland's rule anti-cycling
        res = lp.maximize(
            [1, 1],
            [[1, 0], [1, 0], [0, 1], [1, 1], [2, 2]],
            [1, 1, 1, 2, 4],
        )
        assert res.status == lp.OPTIMAL
        assert res.value == 2

    def test_solution_satisfies_constraints(self):
        import numpy as np

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
            res = lp.maximize(c, A, b)
            assert res.status in (lp.OPTIMAL, lp.INFEASIBLE)
            assert same(res, exact(c, A, b))
            assert_certificates_sound(c, A, b)
            if res.status == lp.OPTIMAL:
                for row, bi in zip(A, b):
                    assert sum(a * x for a, x in zip(row, res.x)) <= bi
                assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.value

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            lp.maximize([1, 2], [[1]], [0])

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
            assert same(lp.maximize(c, A, b), exact(c, A, b))
            assert_certificates_sound(c, A, b)

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
            for cap in (False, True):
                c, A, b = margin_lp(simplices, cap)
                res = lp.maximize(c, A, b)
                assert same(res, exact(c, A, b))
            # res is the capped LP's: its value is min(largest slack, 1)
            kinds.add("deep" if res.value == 1 else "open" if res.value > 0 else "closed")
        assert kinds == {"deep", "open", "closed"}


class TestFloatGuidedPath:
    def test_unique_optimum_needs_no_exact_simplex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact simplex called")

        monkeypatch.setattr(lp, "_maximize_exact", refuse)
        witness, margin = common_interior_point([triangle_simplex(1)])
        assert witness == (Fraction(1, 3), Fraction(1, 3))
        assert margin == Fraction(1, 3)
        res = lp.maximize([3, 2], [[2, 1], [1, 3]], [1, 1])
        assert res.x == (Fraction(2, 5), Fraction(1, 5))

    def test_capped_margin_is_certified(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact simplex called")

        monkeypatch.setattr(lp, "_maximize_exact", refuse)
        simplex = triangle_simplex(10)
        witness, margin = common_interior_point([simplex])
        # the largest slack is 10/3, at the one deepest point; the margin caps it
        assert margin == 1
        assert witness == (Fraction(10, 3), Fraction(10, 3))
        assert min(dot(normal, witness) - offset for normal, offset in simplex.facets) >= 1

    def test_certificate_accepts_only_the_unique_optimal_basis(self, monkeypatch):
        # rows 0 and 1 are tight at the optimum (2/5, 1/5); row 2 is row 0
        # doubled (singular with it), rows 3 and 4 are feasible bounds
        c = [3, 2]
        A = [[2, 1], [1, 3], [4, 2], [-1, 0], [0, -1]]
        b = [1, 1, 2, 5, 5]
        ref = exact(c, A, b)
        obj, rows = integer_rows(c, A, b)
        for tight in ([0, 1], [0, 2], [0, 3], [1, 3], [3, 4], [1, 4]):
            x = lp._certify(obj, rows, tight)
            assert (x is not None) == (tight == [0, 1])
            if x is not None:
                assert x == ref.x
            # a wrong float guess costs only the exact solve
            monkeypatch.setattr(lp, "_float_basis", lambda *args, t=tight: t)
            assert same(lp.maximize(c, A, b), ref)

    @pytest.mark.parametrize("c, A, b", [
        # 400-digit coefficients: float() overflows
        ([1, 1], [[1, 0], [0, 1], [1, 1]], [10**400, 10**400, 3 * 10**400]),
        ([1, 0], [[10**400, 1], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 1]),
        # in float range, but scaling the row to max |a_ij| = 1 overflows b
        ([1], [[Fraction(1, 10**300)], [-1]], [10**300, 0]),
        # coefficients whose float images underflow to 0 or round away
        ([Fraction(1, 10**400), 1], [[1, 0], [0, 1], [-1, -1]], [5, 5, 0]),
        ([1, 1], [[1, 0], [0, 1], [Fraction(1, 10**400), 1]], [1, 1, 5]),
        ([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 2 - Fraction(1, 10**400)]),
        ([1], [[Fraction(1, 10**400)], [-1]], [1, 0]),
        ([1, 1], [[Fraction(1, 10**400), 0], [0, Fraction(-1, 10**400)], [1, -1]],
         [Fraction(1, 10**400), Fraction(1, 10**400), 0]),
    ])
    def test_out_of_float_range_matches_exact_simplex(self, c, A, b):
        assert same(lp.maximize(c, A, b), exact(c, A, b))
        assert_certificates_sound(c, A, b)

    def test_certificate_past_the_int64_bound(self):
        # 400-digit rows put the certificate on Python ints; a strictly
        # positive basis there is accepted and matches the exact simplex
        big = 10**400
        c, A, b = [1, 1], [[big, 1], [1, big], [-1, 0], [0, -1]], [big + 1, big + 1, 0, 0]
        assert exact_int_array(integer_rows(c, A, b)[1], 3).dtype == object
        assert assert_certificates_sound(c, A, b) == 1
