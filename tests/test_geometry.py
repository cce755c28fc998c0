"""Exact primitive operations: sides, intersections, validation."""

import itertools
from fractions import Fraction

import pytest

from dualdepth import (
    DimensionMismatchError,
    Hyperplane,
    Instance,
    ZeroDirectionError,
    check_general_position,
    signature_of,
)
from dualdepth.geometry import (
    as_scalar,
    fraction_nullspace,
    fraction_rank,
    rref,
    scale_to_int,
    solve_underdetermined,
    vertex_blocks,
)

from conftest import cofactor_direction, dot, int_det, solve_int_square

H_X1 = Hyperplane((Fraction(1), Fraction(0)), Fraction(0))  # x1 = 0
H_X2 = Hyperplane((Fraction(0), Fraction(1)), Fraction(0))  # x2 = 0
H_DIAG = Hyperplane((Fraction(1), Fraction(1)), Fraction(1))  # x1 + x2 = 1
H_X1_AT_1 = Hyperplane((Fraction(1), Fraction(0)), Fraction(1))  # x1 = 1


class TestScalars:
    def test_string_and_int_forms(self):
        assert as_scalar("3/4") == Fraction(3, 4)
        assert as_scalar(7) == Fraction(7)
        assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)

    def test_float_is_exact_binary_value(self):
        assert as_scalar(0.5) == Fraction(1, 2)
        assert float(as_scalar(0.1)) == 0.1

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(True)


def side(h: Hyperplane, x) -> int:
    """The side of x against h, read from the integer rows."""
    (sign,) = signature_of(Instance(h.dim, [h]), x)
    return sign


def meet(hs):
    """The one vertex of d hyperplanes in R^d from ``vertex_blocks``, or None
    when they have no unique common point."""
    [(_, nums, den, R)] = vertex_blocks(Instance(len(hs), hs))
    if den[0] == 0:
        return None
    # hyperplane i passes through the vertex exactly when R[0, i] is 0
    assert not R.any()
    return tuple(Fraction(v, int(den[0])) for v in nums[0].tolist())


class TestSideOf:
    def test_positive_side(self):
        assert side(H_X1, (Fraction(3), Fraction(1))) == 1

    def test_containment(self):
        assert side(H_X1, (Fraction(0), Fraction(7))) == 0

    def test_negative_side(self):
        assert side(H_DIAG, (Fraction(0), Fraction(0))) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            side(H_X1, (Fraction(1),))


class TestIntersectSubfamily:
    def test_axes(self):
        assert meet([H_X1, H_X2]) == (0, 0)

    def test_parallel_pair_degenerate(self):
        assert meet([H_X1, H_X1_AT_1]) is None

    def test_three_dimensional(self):
        hs = [
            Hyperplane((1, 0, 0), 0),
            Hyperplane((0, 1, 0), 0),
            Hyperplane((1, 1, 1), 1),
        ]
        assert meet(hs) == (0, 0, 1)

    def test_result_on_every_plane(self):
        hs = [
            Hyperplane((Fraction(2), Fraction(1)), Fraction(3)),
            Hyperplane((Fraction(-1), Fraction(4)), Fraction(2)),
        ]
        p = meet(hs)
        assert p == (Fraction(10, 9), Fraction(7, 9))
        assert all(side(h, p) == 0 for h in hs)


class TestGeneralPosition:
    def test_triangle_ok(self, triangle):
        assert check_general_position(triangle).ok

    def test_concurrent_violation(self):
        F = Instance(
            2,
            [H_X1, H_X2, Hyperplane((Fraction(1), Fraction(1)), Fraction(0))],
        )
        gp = check_general_position(F)
        assert not gp.ok
        assert gp.reason == "concurrent"
        assert gp.violation == (0, 1, 2)

    def test_parallel_violation(self):
        F = Instance(2, [H_X1, H_X1_AT_1, H_X2])
        gp = check_general_position(F)
        assert not gp.ok
        assert gp.reason == "degenerate"
        assert gp.violation == (0, 1)

    def test_permutation_invariant(self, triangle):
        for perm in itertools.permutations(triangle.hyperplanes):
            assert check_general_position(Instance(2, list(perm))).ok
        bad = [H_X1, H_X1_AT_1, H_X2]
        for perm in itertools.permutations(bad):
            assert not check_general_position(Instance(2, list(perm))).ok


class TestHyperplane:
    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroDirectionError):
            Hyperplane((Fraction(0), Fraction(0)), Fraction(1))

    def test_scaled_integer_form(self):
        h = Hyperplane((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 6))
        assert Instance(2, [h]).row_array()[0].tolist() == [[3, 2, 1]]

    def test_instance_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Instance(3, [H_X1])

    def test_color_range_checked(self):
        with pytest.raises(ValueError):
            Instance(2, [H_X1, H_X2], colors=[0, 5])


class TestLinearAlgebraHelpers:
    def test_int_det_known(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_solve_int_square(self):
        nums, den = solve_int_square([[2, 1], [1, -1]], [3, 0])
        assert tuple(Fraction(v, den) for v in nums) == (1, 1)
        assert solve_int_square([[1, 1], [2, 2]], [1, 2]) is None

    def test_cofactor_direction_orthogonal(self):
        rows = [(1, 2, 3), (4, 5, 6)]
        v = cofactor_direction(rows, 3)
        assert all(dot(r, v) == 0 for r in rows)
        assert any(c != 0 for c in v)

    def test_scale_to_int(self):
        assert scale_to_int((Fraction(1, 2), Fraction(2, 3))) == (3, 4)

    def test_fraction_rank_on_int_rows(self):
        assert fraction_rank([(1, 2), (2, 4)]) == 1
        assert fraction_rank([(1, 0), (0, 1)]) == 2
        assert fraction_rank([]) == 0

    def test_fraction_nullspace_orthogonality(self):
        basis = fraction_nullspace([(1, 1, 0)], 3)
        assert len(basis) == 2
        for v in basis:
            assert dot((Fraction(1), Fraction(1), Fraction(0)), v) == 0

    def test_rref_pivots_are_the_greedy_basis(self):
        # columns 0, 1 and 3 are independent in that order; column 2 = 2 * column 0
        rows, pivots = rref([(1, 0, 2, 0), (2, 1, 4, 1), (0, 0, 0, 3)], 4)
        assert pivots == [0, 1, 3]
        assert rows == [[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert rref([], 3) == ([], [])

    def test_solve_underdetermined(self):
        half = Fraction(1, 2)
        assert solve_underdetermined([(2, 0, 1)], [1]) == (half, 0, 0)
        assert solve_underdetermined([(1, 1), (0, 2)], [3, 1]) == (Fraction(5, 2), half)
        # inconsistent: x + y = 1 and 2x + 2y = 3
        assert solve_underdetermined([(1, 1), (2, 2)], [1, 3]) is None
        # zero rows: satisfied only by a zero right-hand side
        assert solve_underdetermined([(0, 0), (1, 0)], [0, 4]) == (4, 0)
        assert solve_underdetermined([(0, 0)], [1]) is None
        assert solve_underdetermined([], []) == ()
