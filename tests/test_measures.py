"""Flat-measure samplers and Monte Carlo verification of the depth bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dualdepth import (
    FlatMeasureSpec,
    gen_instance,
    ray_crossings,
    search_center_sampled,
    verify_dual_cpt_measure,
    verify_dual_ctr,
)
from dualdepth import measures
from dualdepth.geometry import DimensionMismatchError
from dualdepth.measures import (
    _halfflat_min_fraction,
    _hyperplane_arrays,
    _polish_center,
    _ray_fractions,
    _sample_arrays,
    sphere_covering,
)

from conftest import (
    halfflat_min_fraction_reference,
    polish_center_reference,
    ray_fractions_reference,
)


def flats_equal(a, b):
    """Equality of two flats given as (basis, point) pairs."""
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSampleFlats:
    """The array sampler ``_sample_arrays``: replay, shapes and the law of each kind."""

    def test_deterministic_replay(self):
        # two equal specs draw apart, and draw the same flats
        specs = [FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=1)
                 for _ in range(2)]
        first, second = (_sample_arrays(spec, 3) for spec in specs)
        assert first[0].shape == (3, 1, 2) and first[1].shape == (3, 2)
        assert first[0] is not second[0] and first[1] is not second[1]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_spec_keeps_its_draw(self, monkeypatch):
        draws = []
        real_draw = measures._draw_arrays

        def counting(spec, N):
            draws.append((spec.seed, N))
            return real_draw(spec, N)

        monkeypatch.setattr(measures, "_draw_arrays", counting)
        spec = FlatMeasureSpec(2, 1, "gaussian-offset", seed=4)
        bases, points = _sample_arrays(spec, 20)
        again = _sample_arrays(spec, 20)
        assert again[0] is bases and again[1] is points and draws == [(4, 20)]
        for arr in (bases, points):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # another N draws again
        assert len(_sample_arrays(spec, 30)[1]) == 30 and draws == [(4, 20), (4, 30)]
        # a replaced spec and an equal one keep their own draws, and equality
        # ignores the draw a spec holds
        twin = FlatMeasureSpec(2, 1, "gaussian-offset", seed=4)
        assert twin == spec and replace(spec, seed=4) == spec
        _sample_arrays(replace(spec, seed=5), 30)
        _sample_arrays(twin, 30)
        _sample_arrays(replace(spec, seed=4), 30)
        assert draws == [(4, 20), (4, 30), (5, 30), (4, 30), (4, 30)]

    def test_smoothed_sigma_zero_copies(self):
        spec = FlatMeasureSpec(
            2, 1, "smoothed-points",
            {"flats": [[[3.0, 4.0], 2.0]], "sigma": 0.0}, seed=7,
        )
        bases, points = _sample_arrays(spec, 5)
        normals, offsets = _hyperplane_arrays(bases, points)
        assert np.allclose(normals[0], [0.6, 0.8]) and abs(offsets[0] - 2.0) < 1e-12
        assert (bases == bases[0]).all() and (points == points[0]).all()

    def test_gaussian_offset_mean(self):
        spec = FlatMeasureSpec(3, 1, "gaussian-offset", {"mean": 2.0, "std": 0.5}, seed=3)
        _, offsets = _hyperplane_arrays(*_sample_arrays(spec, 10_000))
        assert abs(np.mean(offsets) - 2.0) <= 3 * 0.5 / math.sqrt(10_000)

    def test_uniform_support_radius(self):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.5}, seed=2)
        _, points = _sample_arrays(spec, 200)
        assert (np.linalg.norm(points, axis=1) <= 1.5 + 1e-9).all()

    def test_orthonormal_bases(self):
        spec = FlatMeasureSpec(3, 2, "uniform-angle-offset", {"radius": 1.0}, seed=4)
        bases, points = _sample_arrays(spec, 50)
        assert bases.shape == (50, 2, 3) and points.shape == (50, 3)
        for B in bases:
            assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            FlatMeasureSpec(2, 3, "uniform-angle-offset")
        with pytest.raises(ValueError):
            FlatMeasureSpec(2, 1, "no-such-kind")
        with pytest.raises(ValueError):
            FlatMeasureSpec(2, 1, "smoothed-points", {})
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset")
        with pytest.raises(ValueError):
            _sample_arrays(spec, 0)

    @pytest.mark.parametrize("normal", [[0.0, 0.0], [1.0], [1.0, 0.0, 0.0]],
                             ids=["zero", "short", "long"])
    def test_bad_smoothed_normal_rejected(self, normal):
        with pytest.raises(ValueError, match="nonzero vector of length 2"):
            FlatMeasureSpec(2, 1, "smoothed-points",
                            {"flats": [[[1.0, 0.0], 0.0], [normal, 1.0]], "sigma": 0.1})

    @pytest.mark.parametrize("field,value", [
        ("dim", 2.7), ("dim", "2"), ("codim", True), ("seed", 1.5),
    ])
    def test_spec_json_integers_strict(self, field, value):
        obj = FlatMeasureSpec(2, 1, "gaussian-offset", seed=3).to_json()
        obj[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FlatMeasureSpec.from_json(obj)

    def test_spec_json_round_trip(self):
        spec = FlatMeasureSpec(3, 1, "gaussian-offset", {"mean": 1.0}, seed=9)
        assert FlatMeasureSpec.from_json(spec.to_json()) == spec


def per_flat_sample(spec, N):
    """Reference sampler: one flat at a time, one QR per flat.

    Returns (basis, point) pairs; the vectorised sampler must reproduce
    this random stream exactly.
    """
    rng = np.random.default_rng(spec.seed)
    d, c = spec.dim, spec.codim

    def frame():
        q, r = np.linalg.qr(rng.normal(size=(d, c)))
        return (q * np.sign(np.diag(r))[np.newaxis, :]).T

    out = []
    if spec.kind == "uniform-angle-offset":
        radius = float(spec.params.get("radius", 1.0))
        center = np.asarray(spec.params.get("center", [0.0] * d), dtype=float)
        for _ in range(N):
            B = frame()
            u = rng.normal(size=c)
            u /= np.linalg.norm(u)
            rad = radius * rng.random() ** (1.0 / c)
            out.append((B, B.T @ (u * rad) + B.T @ (B @ center)))
    elif spec.kind == "gaussian-offset":
        mean = float(spec.params.get("mean", 0.0))
        std = float(spec.params.get("std", 1.0))
        for _ in range(N):
            B = frame()
            out.append((B, B.T @ (mean + std * rng.normal(size=c))))
    else:
        sigma = float(spec.params.get("sigma", 0.0))
        bases = spec.params["flats"]
        weights = np.asarray(spec.params.get("weights", [1.0] * len(bases)), dtype=float)
        weights = weights / weights.sum()
        for _ in range(N):
            i = int(rng.choice(len(bases), p=weights))
            normal = np.asarray(bases[i][0], dtype=float)
            normal = normal / np.linalg.norm(normal)
            offset = float(bases[i][1])
            if sigma > 0.0:
                normal = normal + sigma * rng.normal(size=d)
                normal = normal / np.linalg.norm(normal)
                offset = offset + sigma * rng.normal()
            out.append((normal[np.newaxis, :], normal * offset))
    return out


def stream_specs(d, c, seed):
    specs = [
        FlatMeasureSpec(d, c, "uniform-angle-offset",
                        {"radius": 1.7, "center": [0.3] * d}, seed=seed),
        FlatMeasureSpec(d, c, "gaussian-offset", {"mean": 0.4, "std": 1.3}, seed=seed),
    ]
    if c == 1:
        lines = [[[1.0] + [0.5] * (d - 1), 0.3], [[0.2] * (d - 1) + [-1.0], -0.7],
                 [[0.0] * (d - 1) + [1.0], 1.1]]
        specs += [
            FlatMeasureSpec(d, 1, "smoothed-points",
                            {"flats": lines, "sigma": 0.3, "weights": [1, 2, 3]}, seed=seed),
            FlatMeasureSpec(d, 1, "smoothed-points", {"flats": lines, "sigma": 0.0}, seed=seed),
        ]
    return specs


class SignedZeroFirst:
    """A generator whose first standard normal is replaced by ``zero``.

    Generator.normal returns 0.0 + 1.0 * z, never -0.0; the sampler's draw
    loop fills its rows with standard_normal, which can return -0.0.
    """

    def __init__(self, rng, zero):
        self.rng = rng
        self.zero = zero

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        if self.zero is not None:
            out[0], self.zero = self.zero, None
        return out

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


class TestSamplerStreamContract:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_codim_one_bit_identical(self, d):
        for seed in (0, 5):
            for spec in stream_specs(d, 1, seed):
                got = zip(*_sample_arrays(spec, 2000))
                ref = per_flat_sample(spec, 2000)
                assert all(flats_equal(a, b) for a, b in zip(got, ref)), spec.kind

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_codim_two_bases_equal(self, d):
        self.check_bases_equal(d, 2)

    @pytest.mark.parametrize("d", [3, 4])
    def test_point_measures_bases_equal(self, d):
        # codimension d: each flat is a point, as in the d=2 transversal
        self.check_bases_equal(d, d)

    @staticmethod
    def check_bases_equal(d, c):
        for spec in stream_specs(d, c, 3):
            bases, points = _sample_arrays(spec, 2000)
            ref = per_flat_sample(spec, 2000)
            assert all(np.array_equal(a, B) for a, (B, _) in zip(bases, ref))
            assert max(np.abs(a - p).max() for a, (_, p) in zip(points, ref)) <= 1e-15

    @pytest.mark.parametrize("spec", [
        # the first normal is the first entry of the first frame, whose sign
        # of zero the QR carries through
        FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.2}, seed=6),
        FlatMeasureSpec(3, 1, "uniform-angle-offset", {"radius": 1.2}, seed=6),
        FlatMeasureSpec(2, 2, "uniform-angle-offset", {"radius": 1.2}, seed=6),
        FlatMeasureSpec(3, 2, "uniform-angle-offset", {"radius": 1.2}, seed=6),
        # the first normal perturbs a normal's -0.0 entry, and -0.0 + -0.0
        # keeps the sign where -0.0 + 0.0 does not
        FlatMeasureSpec(2, 1, "smoothed-points", {"flats": [[[-0.0, 1.0], 0.5]], "sigma": 0.2},
                        seed=6),
    ], ids=["uniform-2-1", "uniform-3-1", "uniform-2-2", "uniform-3-2", "smoothed"])
    def test_negative_zero_normal_reads_as_positive(self, monkeypatch, spec):
        drawn = []
        default_rng = np.random.default_rng
        for zero in (-0.0, 0.0):
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed, zero=zero: SignedZeroFirst(default_rng(seed), zero))
            drawn.append([a.tobytes() for a in _sample_arrays(spec, 50)])
        assert drawn[0] == drawn[1]

    def test_bad_weights_rejected(self):
        spec = FlatMeasureSpec(
            2, 1, "smoothed-points",
            {"flats": [[[1.0, 0.0], 0.0], [[0.0, 1.0], 0.0]], "weights": [1.0, -0.5]},
        )
        with pytest.raises(ValueError):
            _sample_arrays(spec, 10)


def halfflat_reference(bases, points, l0, D, probe_dirs):
    """Per-probe hit fractions from one linear solve per flat and probe."""
    fracs = []
    for w in probe_dirs:
        cols = np.concatenate([D.T, w[:, np.newaxis]], axis=1)
        hits = 0
        for B, p in zip(bases, points):
            A = B @ cols
            if abs(np.linalg.det(A)) > 1e-12:
                hits += np.linalg.solve(A, B @ (p - l0))[-1] >= 0.0
        fracs.append(hits / len(bases))
    return fracs


class TestHalfFlatClosedForm:
    @pytest.mark.parametrize("d,c", [(3, 2), (4, 2), (4, 3)])
    def test_matches_per_flat_solve(self, monkeypatch, d, c):
        rng = np.random.default_rng(d * 10 + c)
        spec = FlatMeasureSpec(d, c, "uniform-angle-offset",
                               {"radius": 1.0, "center": [0.2] * d}, seed=c)
        bases, points = _sample_arrays(spec, 500)
        l0 = rng.uniform(-0.5, 0.5, size=d)
        D = np.linalg.qr(rng.normal(size=(d, c - 1)))[0].T
        W = np.linalg.svd(D)[2][c - 1:]  # orthonormal complement of the rows of D
        probe_dirs = sphere_covering(d - c + 1, 24) @ W
        ref = halfflat_reference(bases, points, l0, D, probe_dirs)
        got = [_halfflat_min_fraction(bases, points, l0, D, w[np.newaxis]) for w in probe_dirs]
        assert got == ref
        assert 0.0 < min(ref) < 1.0
        monkeypatch.setattr(measures, "_BLOCK", 5)
        assert _halfflat_min_fraction(bases, points, l0, D, probe_dirs) == min(ref)


class TestRayFractionBlocking:
    def test_blocked_equals_single_evaluation(self, monkeypatch):
        spec = FlatMeasureSpec(3, 1, "gaussian-offset", {"mean": 0.3}, seed=4)
        normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, 5000))
        x = np.array([0.1, -0.2, 0.05])
        dirs = sphere_covering(3, 720)
        monkeypatch.setattr(measures, "_BLOCK", len(dirs))
        single = _ray_fractions(normals, offsets, x, dirs)
        for block in (1, 7, 64):
            monkeypatch.setattr(measures, "_BLOCK", block)
            assert np.array_equal(_ray_fractions(normals, offsets, x, dirs), single)
        r = offsets - normals @ x
        hits = (normals @ dirs.T) * np.sign(r)[:, np.newaxis] > 0.0
        hits |= (r == 0.0)[:, np.newaxis]
        assert np.array_equal(hits.mean(axis=0), single)

    def test_contained_hyperplanes_count_for_every_ray(self, monkeypatch):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        offsets = np.array([0.0, 1.0, -1.0])
        dirs = sphere_covering(2, 8)
        monkeypatch.setattr(measures, "_BLOCK", 3)
        fr = _ray_fractions(normals, offsets, np.zeros(2), dirs)
        assert fr.min() >= 1 / 3 and fr[0] == 1 / 3  # (1, 0) meets only x1 = 0


def halfflat_case(spec, N, through_first):
    """Flats of ``spec`` and a transversal L (point, directions, probes);
    when ``through_first``, L passes through the first flat (num = 0)."""
    d, c = spec.dim, spec.codim
    bases, points = _sample_arrays(spec, N)
    rng = np.random.default_rng(N * 10 + c)
    l0 = points[0].copy() if through_first else rng.uniform(-0.5, 0.5, size=d)
    D = np.linalg.qr(rng.normal(size=(d, c - 1)))[0].T
    W = np.linalg.svd(D)[2][c - 1:]  # orthonormal complement of the rows of D
    return bases, points, l0, D, sphere_covering(d - c + 1, 150) @ W


class TestKernelsMatchReference:
    """The blocked probe-major counts and the incremental polish against the
    kernels as first written (``conftest``): equal to the last bit."""

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("N", [1, 9, 3000])
    @pytest.mark.parametrize("d", [2, 3])
    def test_ray_fractions(self, monkeypatch, d, N, block):
        monkeypatch.setattr(measures, "_BLOCK", block)
        dirs = sphere_covering(d, 300)
        for spec in stream_specs(d, 1, N):
            normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, N))
            # the last point lies on the line x_d = 1.1 of the smoothed specs
            for x in (np.zeros(d), np.full(d, 0.3), np.array([0.0] * (d - 1) + [1.1])):
                got = _ray_fractions(normals, offsets, x, dirs)
                assert got.tobytes() == ray_fractions_reference(normals, offsets, x, dirs).tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("N", [1, 9, 3000])
    @pytest.mark.parametrize("d,c", [(2, 2), (3, 2), (3, 3)])
    def test_halfflat_min_fraction(self, monkeypatch, d, c, N, block):
        monkeypatch.setattr(measures, "_BLOCK", block)
        for spec in stream_specs(d, c, N):
            for through_first in (False, True):
                case = halfflat_case(spec, N, through_first)
                assert _halfflat_min_fraction(*case) == halfflat_min_fraction_reference(*case)

    @pytest.mark.parametrize("N", [1, 9, 3000])
    @pytest.mark.parametrize("d", [2, 3])
    def test_polish_center(self, d, N):
        for spec in stream_specs(d, 1, N):
            bases, points = _sample_arrays(spec, N)
            normals, offsets = _hyperplane_arrays(bases, points)
            # the second start lies on the line x_d = 1.1 of the smoothed specs
            for starts in ([np.zeros(d), points.mean(axis=0)],
                           [np.array([0.0] * (d - 1) + [1.1]), np.zeros(d)]):
                got = _polish_center(spec, normals, offsets, starts)
                assert got == polish_center_reference(spec, normals, offsets, starts)

    def test_polish_meets_every_kind_of_move(self, monkeypatch):
        # sigma = 0: a third of the lines are x2 = 1.1, where the search
        # starts, so that sides are 0 and moves leave and enter them
        spec = stream_specs(2, 1, 4)[3]
        normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, 9))
        starts = [np.array([0.0, 1.1]), np.array([5.0, 5.0])]
        moves = []

        def spy(hits, side, new_side, ahead, turn):
            moves.append((side.copy(), new_side.copy()))
            return moved_hits(hits, side, new_side, ahead, turn)

        moved_hits = measures._moved_hits
        monkeypatch.setattr(measures, "_moved_hits", spy)
        got = _polish_center(spec, normals, offsets, starts)
        assert got == polish_center_reference(spec, normals, offsets, starts)
        changed = [np.count_nonzero(a != b) for a, b in moves]
        assert 0 in changed and max(changed) > len(normals) / 2
        assert any((a == 0).any() and (a != b).any() for a, b in moves)

    @pytest.mark.parametrize("N", [1, 2, 9, 3000])
    def test_moved_hits_equal_full_count(self, N):
        rng = np.random.default_rng(N)
        normals = rng.normal(size=(N, 3))
        normals[: N // 2, 0] = 0.0  # some projections are exactly 0
        dirs = np.concatenate([sphere_covering(3, 40), np.eye(3)])
        proj = normals @ dirs.T
        ahead = (proj > 0.0).astype(np.float32)
        turn = np.sign(proj).astype(np.float32)
        side = rng.integers(-1, 2, size=N).astype(float)
        hits = measures._side_hits(side, ahead, turn)
        flips = [
            np.zeros(N, bool),  # no side changes
            np.ones(N, bool),  # every side changes
            rng.random(N) < 0.2,  # a few change, some to or from 0
        ]
        for flip in flips:
            # each flipped side moves to one of the two other values of -1, 0, 1
            shift = np.where(flip, rng.integers(1, 3, size=N), 0)
            new_side = (side + 1 + shift) % 3 - 1
            got = measures._moved_hits(hits, side, new_side, ahead, turn)
            want = measures._side_hits(new_side, ahead, turn)
            assert np.array_equal(got, want)
            ahead_of = (new_side > 0) @ (proj > 0).astype(int)
            assert np.array_equal(want, ahead_of + (new_side < 0) @ (proj < 0).astype(int))


class TestFlatIntersectsRay:
    """``_ray_fractions`` on single lines: containment always counts, parallel never."""

    def fraction(self, x, u):
        # the line x1 = 0
        return _ray_fractions(np.array([[1.0, 0.0]]), np.array([0.0]),
                              np.asarray(x, dtype=float), np.array([u], dtype=float))[0]

    def test_ray_into_line(self):
        assert self.fraction((1, 0), (-1, 0)) == 1.0

    def test_parallel_ray(self):
        assert self.fraction((1, 0), (0, 1)) == 0.0

    def test_origin_on_line(self):
        for u in ((0, 1), (1, 0), (-1, -1)):
            assert self.fraction((0, 3), u) == 1.0

    def test_agrees_with_exact_ray_crossings(self):
        rng = np.random.default_rng(11)
        F = gen_instance("random-rational", 6, 2, seed=1)
        bases, points = [], []
        for h in F.hyperplanes:
            n = np.array([float(c) for c in h.normal])
            n_unit = n / np.linalg.norm(n)
            bases.append(n_unit[np.newaxis, :])
            points.append(n_unit * (float(h.offset) / np.linalg.norm(n)))
        normals, offsets = _hyperplane_arrays(np.array(bases), np.array(points))
        for _ in range(40):
            x = tuple(int(v) for v in rng.integers(-4, 5, size=2))
            u = tuple(int(v) for v in rng.integers(-5, 6, size=2))
            if u == (0, 0):
                continue
            fr = _ray_fractions(normals, offsets, np.array(x, dtype=float),
                                np.array([u], dtype=float))
            assert fr[0] == ray_crossings(F, x, u) / F.n


class TestSphereCovering:
    def test_unit_vectors(self):
        for dim, count in ((2, 36), (3, 100), (4, 50)):
            dirs = sphere_covering(dim, count)
            assert dirs.shape == (count, dim)
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_one_dimensional(self):
        assert sphere_covering(1, 10).tolist() == [[1.0], [-1.0]]


class TestVerifyDualCptMeasure:
    def test_center_passes(self):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0)
        rep = verify_dual_cpt_measure(spec, (0.0, 0.0), 4000, 360)
        assert rep.passed
        assert rep.estimate >= rep.bound - rep.tolerance
        assert rep.bound == pytest.approx(1 / 3)

    def test_far_point_fails(self):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0)
        rep = verify_dual_cpt_measure(spec, (10.0, 0.0), 4000, 360)
        assert not rep.passed
        assert rep.estimate < 0.05

    def test_point_on_smoothed_line(self):
        spec = FlatMeasureSpec(
            2, 1, "smoothed-points",
            {"flats": [[[0.0, 1.0], 2.0]], "sigma": 0.0}, seed=1,
        )
        rep = verify_dual_cpt_measure(spec, (0.0, 2.0), 1000, 90)
        assert rep.passed
        assert rep.estimate == 1.0  # containment counts for every ray

    @pytest.mark.parametrize("normal,offsets,x", [
        ((1, 0), (0, 1), (0.56, 0.0)),
        ((1, 3), (0, 2), (0.3, 0.1)),
        ((1, 0, 0), (0, 1), (0.56, 0.0, 0.0)),
        ((1, 2, 2), (0, 3), (0.5, 0.25, 0.25)),
    ], ids=["d2-axis", "d2-oblique", "d3-axis", "d3-oblique"])
    def test_ray_parallel_to_the_atoms_meets_none(self, normal, offsets, x):
        # every sampled hyperplane is one of two parallel atoms with x
        # between them, so a ray parallel to them meets none; a product of
        # an oblique normal with its perpendicular need not round to 0
        d = len(normal)
        flats = [[list(normal), b] for b in offsets]
        spec = FlatMeasureSpec(d, 1, "smoothed-points", {"flats": flats, "sigma": 0}, seed=0)
        rep = verify_dual_cpt_measure(spec, x, 2000, 360)
        assert rep.estimate == 0.0 and not rep.passed
        unit = np.asarray(normal) / np.linalg.norm(normal)
        assert abs(np.dot(rep.details["worst_direction"], unit)) < 1e-12
        # in the plane the sweep examines the one line of arc ends of both
        # atoms, its two ends and the gap after each; in d = 3 the covering,
        # two refinement rounds and one set of parallel probes for the two
        # parallel atoms
        assert rep.trials == (4 if d == 2 else 360 + 2 * 90 + 90)

    def test_parallel_probes_once_per_line_of_normals(self):
        # five planes on two lines of normals, the scaled and negated ones
        # parallel exactly: one set of parallel probes per line
        flats = [[[1, 0, 0], 0], [[2, 0, 0], 1], [[-1, 0, 0], 3], [[1, 1, 0], 0],
                 [[-3, -3, 0], 1]]
        spec = FlatMeasureSpec(3, 1, "smoothed-points", {"flats": flats, "sigma": 0}, seed=0)
        rep = verify_dual_cpt_measure(spec, (0.25, 0.5, 0.0), 1000, 360)
        assert rep.trials == 360 + 2 * 90 + 2 * 90
        assert rep.estimate == 0.0

    def test_sweep_meets_each_line_of_normals_once(self):
        # the same five flats as lines: the unit normals of (1, 1) and
        # (-3, -3) are not negatives of each other bit for bit, but their
        # arc ends are exactly parallel, so the sweep sees two lines of ends
        flats = [[[1, 0], 0], [[2, 0], 1], [[-1, 0], 3], [[1, 1], 0], [[-3, -3], 1]]
        spec = FlatMeasureSpec(2, 1, "smoothed-points", {"flats": flats, "sigma": 0}, seed=0)
        normals, _ = _hyperplane_arrays(*_sample_arrays(spec, 1000))
        assert len(np.unique(normals, axis=0)) == 4
        rep = verify_dual_cpt_measure(spec, (0.25, 0.5), 1000, 360)
        assert rep.trials == 2 * 4 and rep.estimate == 0.0
        assert rep.details["worst_direction"] == [0.0, 1.0]

    def test_smoothed_spec_with_sigma_probes_no_parallels(self):
        spec = FlatMeasureSpec(3, 1, "smoothed-points",
                               {"flats": [[[1, 0, 0], 0], [[1, 0, 0], 1]], "sigma": 0.1}, seed=0)
        rep = verify_dual_cpt_measure(spec, (0.56, 0.0, 0.0), 2000, 360)
        assert rep.trials == 360 + 2 * 90 and rep.estimate > 0.4

    def test_smoothed_spec_with_sigma_sweeps_every_line(self):
        # no two sampled normals are parallel: 2000 lines of arc ends
        spec = FlatMeasureSpec(2, 1, "smoothed-points",
                               {"flats": [[[1, 0], 0], [[1, 0], 1]], "sigma": 0.1}, seed=0)
        rep = verify_dual_cpt_measure(spec, (0.56, 0.0), 2000, 360)
        assert rep.trials == 4 * 2000 and rep.estimate > 0.4

    def test_report_consistency(self):
        spec = FlatMeasureSpec(3, 1, "gaussian-offset", {}, seed=5)
        rep = verify_dual_cpt_measure(spec, (0.0, 0.0, 0.0), 2000, 200)
        assert rep.passed == (rep.estimate >= rep.bound - rep.tolerance)
        assert rep.tolerance >= 3.0 * rep.details["standard_error"] - 1e-12
        assert rep.sample_size == 2000


class TestSearchCenterSampled:
    def test_symmetric_measure_near_origin(self):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=8)
        p = search_center_sampled(spec, 3000)
        assert math.hypot(*[float(c) for c in p]) <= 0.1

    def test_smoothed_line_attracts(self):
        spec = FlatMeasureSpec(
            2, 1, "smoothed-points",
            {"flats": [[[1.0, 0.0], 1.0]], "sigma": 0.05}, seed=2,
        )
        p = search_center_sampled(spec, 2000)
        assert abs(float(p[0]) - 1.0) <= 0.05

    def test_two_line_cluster_pass(self):
        spec = FlatMeasureSpec(
            2, 1, "smoothed-points",
            {"flats": [[[1.0, 0.0], 0.0], [[0.0, 1.0], 0.0]], "sigma": 0.1},
            seed=3,
        )
        p = search_center_sampled(spec, 3000)
        assert math.hypot(*[float(c) for c in p]) <= 0.5
        rep = verify_dual_cpt_measure(spec, [float(c) for c in p], 3000, 360)
        assert rep.passed

    def test_near_parallel_clusters_pass(self):
        # The exact center of the 10-hyperplane subsample lands far from the
        # sampled mass here; the mean of the feet is the better start.
        spec = FlatMeasureSpec(
            3, 1, "smoothed-points",
            {"flats": [
                [[0.9920844575071874, -0.07982212708193637, -0.09693738804395764],
                 0.643155711809579],
                [[0.9539629200315721, -0.13508507965070654, -0.2677811951213134],
                 1.0386997456804319],
            ], "sigma": 0.17492651495309508},
            seed=8859,
        )
        p = search_center_sampled(spec, 10_000)
        rep = verify_dual_cpt_measure(spec, [float(c) for c in p], 10_000, 720)
        assert rep.passed

    @pytest.mark.parametrize("dim,flats", [
        (2, [[[1.0, 0.0], 0.0], [[0.0, 1.0], 0.0], [[1.0, 1.0], 1.0]]),
        (1, [[[1.0], 0.0], [[1.0], 1.0]]),
        (2, [[[1.0, 0.0], 0.0]]),
    ], ids=["three-lines-d2", "two-points-d1", "one-line-d2"])
    def test_atomic_measure_center(self, dim, flats):
        # sigma 0: every sample is one of the few flats, and the subsample
        # keeps each of them once
        spec = FlatMeasureSpec(dim, 1, "smoothed-points", {"flats": flats}, seed=1)
        p = search_center_sampled(spec, 1000)
        assert verify_dual_cpt_measure(spec, [float(c) for c in p], 1000).passed

    def test_codimension_checked(self):
        spec = FlatMeasureSpec(2, 2, "uniform-angle-offset", {"radius": 1.0})
        with pytest.raises(DimensionMismatchError):
            search_center_sampled(spec, 100)


class TestVerifyDualCtr:
    def test_point_case_reduces_to_ray_verifier(self):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0)
        ray_rep = verify_dual_cpt_measure(spec, (0.0, 0.0), 3000, 360)
        ctr_rep = verify_dual_ctr([spec], (0.0, 0.0), [], 3000, 360)
        assert ctr_rep.bound == pytest.approx(ray_rep.bound)
        assert ctr_rep.passed == ray_rep.passed

    def test_two_disks_good_line(self):
        specs = [
            FlatMeasureSpec(2, 2, "uniform-angle-offset",
                            {"radius": 1.0, "center": [-2.0, 0.0]}, seed=0),
            FlatMeasureSpec(2, 2, "uniform-angle-offset",
                            {"radius": 1.0, "center": [2.0, 0.0]}, seed=1),
        ]
        rep = verify_dual_ctr(specs, (0.0, 0.0), [[1.0, 0.0]], 4000, 64)
        assert rep.passed
        assert rep.bound == pytest.approx(0.5)

    def test_two_disks_bad_line(self):
        specs = [
            FlatMeasureSpec(2, 2, "uniform-angle-offset",
                            {"radius": 1.0, "center": [-2.0, 0.0]}, seed=0),
            FlatMeasureSpec(2, 2, "uniform-angle-offset",
                            {"radius": 1.0, "center": [2.0, 0.0]}, seed=1),
        ]
        rep = verify_dual_ctr(specs, (2.0, 0.0), [[0.0, 1.0]], 4000, 64)
        assert not rep.passed
        assert min(rep.details["per_measure_min"]) == 0.0

    def test_point_in_the_plane_misses_atoms_along_their_lines(self):
        # lines x1 = 0, x1 = 1 and x2 = 0.5: the ray from (0.5, 0.2) along
        # (0, -1) meets none of them, a direction that no covering holds
        spec = FlatMeasureSpec(2, 1, "smoothed-points", {
            "flats": [[[1.0, 0.0], 0.0], [[1.0, 0.0], 1.0], [[0.0, 1.0], 0.5]], "sigma": 0.0,
        }, seed=3)
        rep = verify_dual_ctr([spec], (0.5, 0.2), [], 2000, 360)
        assert rep.details["per_measure_min"] == [0.0] and not rep.passed
        # the two lines of arc ends, each with two ends and two gaps
        assert rep.trials == 8

    def test_measure_count_checked(self):
        spec = FlatMeasureSpec(2, 2, "uniform-angle-offset", {"radius": 1.0})
        with pytest.raises(ValueError):
            verify_dual_ctr([spec], (0.0, 0.0), [[1.0, 0.0]], 100, 8)

    def test_zero_direction_refused_in_d3(self):
        specs = [FlatMeasureSpec(3, 2, "uniform-angle-offset", {"radius": 1.0}, seed=k)
                 for k in range(2)]
        with pytest.raises(ValueError, match="linearly independent"):
            verify_dual_ctr(specs, (0.0, 0.0, 0.0), [[0.0, 0.0, 0.0]], 100, 8)

    def test_parallel_directions_refused_in_d5(self):
        # three codim-3 measures: L is a plane, here spanned by two parallel vectors
        specs = [FlatMeasureSpec(5, 3, "uniform-angle-offset", {"radius": 1.0}, seed=k)
                 for k in range(3)]
        dirs = [[1.0, 2.0, 0.0, 0.0, 3.0], [-0.5, -1.0, 0.0, 0.0, -1.5]]
        with pytest.raises(ValueError, match="linearly independent"):
            verify_dual_ctr(specs, (0.0,) * 5, dirs, 100, 8)


class TestEstimatorConsistency:
    def test_standard_error_scales_with_sample_size(self):
        def estimate(seed, N):
            spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=seed)
            normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, N))
            # ray from the origin along (1, 0): r is the offset
            hit = (offsets == 0.0) | (offsets * normals[:, 0] > 0.0)
            return np.count_nonzero(hit) / N

        small = np.std([estimate(s, 200) for s in range(100)])
        large = np.std([estimate(s + 1000, 400) for s in range(100)])
        ratio = large / small
        assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 * (1 / math.sqrt(2))
