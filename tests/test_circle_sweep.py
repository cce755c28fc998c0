"""The exact sweep of a circle of directions (``measures._circle_sweep``)
against an exact reference, and against the probes it replaces."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from dualdepth import FlatMeasureSpec, verify_dual_cpt_measure  # noqa: E402
from dualdepth import measures  # noqa: E402
from dualdepth.measures import (  # noqa: E402
    _circle_sweep,
    _complement,
    _halfflat_min_fraction,
    _halfflat_sweep,
    _hyperplane_arrays,
    _planar_rays,
    _ray_fractions,
    _sample_arrays,
    sphere_covering,
)

from conftest import planar_min_fraction_reference  # noqa: E402
from test_measures import halfflat_case, stream_specs  # noqa: E402


def sweep_fraction(normals, offsets, x):
    """The sweep's exact minimum fraction of lines met by a ray from x."""
    r = offsets - normals @ x
    toward = normals * np.sign(r)[:, np.newaxis]
    return Fraction(int(np.count_nonzero(r == 0.0)) + _circle_sweep(toward)[0], len(r))


# coordinates that make exact ties: signed zeros, exactly parallel vectors
# with other bits ((0.1, 0.3) and (0.2, 0.6)), and a subnormal
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 0.2, 0.6, 5e-324]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
atoms = st.lists(st.tuples(coords, coords).filter(lambda v: v[0] or v[1]), min_size=1, max_size=4)
# per row: its atom, an exact scale (a negative one is an antiparallel
# copy), whether its first coordinate moves to the next float (a distinct
# direction a few units of rounding away), and whether it passes through x
rows = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1.0, -1.0, 2.0, -0.5]), st.booleans(),
              st.booleans()),
    min_size=1, max_size=40,
)
points = st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-2, 2), st.floats(-2, 2)))


def sample(atoms, rows, x, offsets_seed):
    """Lines (normals, offsets) and the point x of one drawn case."""
    normals = np.array([atoms[i % len(atoms)] for i, *_ in rows]) * [[s] for _, s, _, _ in rows]
    nudge = np.array([n for _, _, n, _ in rows])
    normals[nudge, 0] = np.nextafter(normals[nudge, 0], np.inf)
    x = np.asarray(x, dtype=float)
    offsets = np.random.default_rng(offsets_seed).normal(size=len(rows))
    through = np.array([t for *_, t in rows])
    offsets[through] = (normals @ x)[through]
    return normals, offsets, x


class TestAgainstExactReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(atoms, rows, points, st.integers(0, 2**32 - 1))
    # N = 1; every row through x; one line with its antiparallel copies
    @example([(1.0, 0.0)], [(0, 1.0, False, False)], (0.0, 0.0), 0)
    @example([(0.6, 0.8), (1.0, 0.0)], [(0, 1.0, False, True), (1, -1.0, False, True)],
             (0.5, -0.25), 1)
    @example([(0.1, 0.3)], [(0, 1.0, False, False), (0, -1.0, False, False),
                            (0, 2.0, False, False), (0, -0.5, True, False)], (0.0, 0.0), 2)
    def test_sweep_count_is_exact_minimum(self, atoms, rows, x, seed):
        normals, offsets, x = sample(atoms, rows, x, seed)
        assert sweep_fraction(normals, offsets, x) == planar_min_fraction_reference(
            normals, offsets, x)

    @settings(max_examples=100, deadline=None)
    @given(atoms, rows, points, st.integers(0, 2**32 - 1))
    def test_direction_attains_count(self, atoms, rows, x, seed):
        normals, offsets, x = sample(atoms, rows, x, seed)
        r = offsets - normals @ x
        arcs = normals * np.sign(r)[:, np.newaxis]
        count, v, examined = _circle_sweep(arcs)
        u = (Fraction(v[0]), Fraction(v[1]))
        assert not np.signbit(v[v == 0.0]).any()  # no -0.0
        assert count == sum(Fraction(a) * u[0] + Fraction(b) * u[1] > 0 for a, b in arcs.tolist())
        # two ends and two gaps per line of arc ends
        arcs_left = np.count_nonzero(arcs.any(axis=1))
        assert examined == 1 if not arcs_left else examined % 4 == 0 and examined <= 4 * arcs_left

    def test_no_arc(self):
        count, v, examined = _circle_sweep(np.zeros((3, 2)))
        assert (count, v.tolist(), examined) == (0, [1.0, 0.0], 1)

    @pytest.mark.parametrize("tie", [None, 0.0, 10.0], ids=["default", "none", "whole-circle"])
    def test_float_order_and_exact_order_agree(self, monkeypatch, tie):
        # with no tolerance every pair is settled by its float angles, its
        # float cross product or as the same vector; with one wider than the
        # circle every run holding a pair they cannot settle is re-sorted
        # exactly.  The rows add exactly parallel normals with other bits
        # and a normal one unit of rounding off them to a Gaussian sample.
        normals = np.concatenate([
            np.random.default_rng(5).normal(size=(60, 2)),
            [[0.1, 0.3], [0.2, 0.6], [-0.1, -0.3], [np.nextafter(0.1, 1.0), 0.3], [0.0, 1.0],
             [-0.0, -2.0]],
        ])
        offsets = np.random.default_rng(6).normal(size=len(normals))
        if tie is not None:
            monkeypatch.setattr(measures, "_ANGLE_TIE", tie)
        for x in (np.zeros(2), np.array([0.2, -0.1])):
            assert sweep_fraction(normals, offsets, x) == planar_min_fraction_reference(
                normals, offsets, x)


class TestRealisedEstimate:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_estimate_is_the_count_along_worst_direction(self, seed):
        for spec in stream_specs(2, 1, seed):
            normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, 2000))
            for x in (np.zeros(2), np.array([0.3, -0.2]), np.array([0.0, 1.1])):
                rep = verify_dual_cpt_measure(spec, x, 2000)
                u = rep.details["worst_direction"]
                r = offsets - normals @ x
                t = normals * np.sign(r)[:, np.newaxis]
                hits = np.count_nonzero(r == 0.0) + np.count_nonzero(t[:, 0] * u[0] + t[:, 1] * u[1] > 0)
                assert rep.estimate == hits / 2000
                assert Fraction(hits, 2000) == sweep_fraction(normals, offsets, x)
                assert rep.details["min_hits"] == hits
                # at most the minimum over the 720 probes of the covering
                probes = _ray_fractions(normals, offsets, x, sphere_covering(2, 720)).min()
                assert rep.estimate <= probes


def probe_minimum(bases, points, l0, D, count):
    """The minimum fraction over ``count`` probes of the circle of L."""
    dirs = sphere_covering(2, count) @ _complement(D, bases.shape[2])
    if bases.shape[1] == 1:
        return _ray_fractions(*_hyperplane_arrays(bases, points), l0, dirs).min()
    return _halfflat_min_fraction(bases, points, l0, D, dirs)


def swept_minimum(bases, points, l0, D):
    if bases.shape[1] == 1:
        return _planar_rays(*_hyperplane_arrays(bases, points), l0)[0] / len(bases)
    return _halfflat_sweep(bases, points, l0, D, _complement(D, bases.shape[2]))[0] / len(bases)


class TestTransversalSweep:
    """k = 1: the half-flats of L sweep a circle of directions."""

    @pytest.mark.parametrize("N", [1, 9, 300])
    @pytest.mark.parametrize("d,c", [(2, 1), (3, 2), (4, 3)])
    def test_at_most_the_probes(self, monkeypatch, d, c, N):
        monkeypatch.setattr(measures, "_BLOCK", 256)
        for spec in stream_specs(d, c, N):
            for through_first in (False, True):
                bases, points, l0, D, _ = halfflat_case(spec, N, through_first)
                swept = swept_minimum(bases, points, l0, D)
                assert swept <= probe_minimum(bases, points, l0, D, 360)
                if N == 300:
                    assert swept <= probe_minimum(bases, points, l0, D, 100_000)

    def test_line_through_a_flat_meets_it_off_two_directions(self):
        # L passes through the one flat (num = 0): every half-flat meets it
        # but the two whose direction is perpendicular to h, which no probe
        # meets
        spec = FlatMeasureSpec(3, 2, "gaussian-offset", {"mean": 0.0, "std": 1.0}, seed=2)
        bases, points, l0, D, _ = halfflat_case(spec, 1, True)
        assert swept_minimum(bases, points, l0, D) == 0.0
        assert probe_minimum(bases, points, l0, D, 360) == 1.0

    def test_trials_sum_the_sweeps(self):
        specs = [FlatMeasureSpec(3, 2, "uniform-angle-offset",
                                 {"radius": 1.0, "center": [2.0 * k, 0.0, 0.0]}, seed=k)
                 for k in range(2)]
        rep = measures.verify_dual_ctr(specs, (0.0, 0.0, 0.0), [[1.0, 0.0, 0.0]], 500, 360)
        # 500 distinct lines of arc ends per measure, each with two ends
        # and two gaps
        assert rep.trials == 2 * 4 * 500
        assert rep.passed and math.isclose(rep.bound, 1 / 3)
