"""Samplers for measures on affine flats and Monte Carlo bound verifiers.

N sampled flats of codimension c in R^d are stored as arrays (bases,
points): ``bases[i]`` is an orthonormal c x d row basis of the linear
subspace orthogonal to flat i, and ``points[i]`` is the unique point of the
flat inside that subspace.  For c = 1 this is the familiar (unit normal,
foot of perpendicular) form of a hyperplane; for c = d the flat is a single
point.

Measures are specified generatively: a kind, its parameters, and a seed.
Verification is Monte Carlo against the theoretical lower bounds (1/(d+1)
for rays against hyperplane measures, 1/(k+2) for half-flats against k-flat
measures), with tolerances tied to the binomial standard error and raw
counts reported so stricter post-hoc analysis stays possible.

Sampling keeps the random stream of drawing one flat at a time: a flat's
draws are taken in order by a per-flat loop, and all that is computed from
them is computed for every flat at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

import numpy as np

from .depth import max_depth_point
from .geometry import (
    DegenerateInstanceError,
    DimensionMismatchError,
    Hyperplane,
    Instance,
    Point,
    fraction_rank,
    rref,
)

KINDS = ("uniform-angle-offset", "gaussian-offset", "smoothed-points")


# the numeric parameters of each measure kind; a center is a point of R^dim
_NUMERIC_PARAMS = {
    "uniform-angle-offset": ("radius", "center"),
    "gaussian-offset": ("mean", "std"),
    "smoothed-points": ("sigma",),
}


def _finite_array(value, shape: tuple = ()) -> Optional[np.ndarray]:
    """``value`` as a float array of ``shape`` with finite entries, else None."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.shape == shape and np.isfinite(arr).all() else None


@dataclass(frozen=True)
class FlatMeasureSpec:
    dim: int
    codim: int
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    # the last draw of ``_sample_arrays``: (N, bases, points)
    _draw: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.codim <= self.dim:
            raise ValueError(f"codimension {self.codim} out of range for d={self.dim}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        # the numbers that sampling reads are checked here, the weights of
        # smoothed-points when sampling
        p = self.params
        for name in _NUMERIC_PARAMS[self.kind]:
            shape = (self.dim,) if name == "center" else ()
            if name in p and _finite_array(p[name], shape) is None:
                what = f"{self.dim} finite numbers" if shape else "a finite number"
                raise ValueError(f"{self.kind} {name} must be {what}, got {p[name]!r}")
            if name in p and name in ("radius", "std", "sigma") and _finite_array(p[name]) < 0:
                raise ValueError(f"{self.kind} {name} must not be negative, got {p[name]!r}")
        if self.kind == "smoothed-points":
            flats = p.get("flats")
            if not flats:
                raise ValueError("smoothed-points requires a 'flats' parameter")
            for normal, offset in flats:
                arr = _finite_array(normal, (self.dim,))
                if arr is None or not 0.0 < np.linalg.norm(arr) < np.inf:
                    raise ValueError(f"smoothed-points flat normal {normal!r} must be a nonzero "
                                     f"vector of length {self.dim} with a finite norm")
                if _finite_array(offset) is None:
                    raise ValueError(f"smoothed-points flat offset {offset!r} must be finite")

    def support_radius(self) -> float:
        if self.kind == "uniform-angle-offset":
            return float(self.params.get("radius", 1.0))
        if self.kind == "gaussian-offset":
            # not compactly supported in the strict sense; report 6 sigma
            return abs(float(self.params.get("mean", 0.0))) + 6.0 * float(
                self.params.get("std", 1.0)
            )
        sigma = float(self.params.get("sigma", 0.0))
        offs = [abs(float(f[1])) for f in self.params["flats"]]
        return max(offs) + 6.0 * sigma + 1.0

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "codim": self.codim,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "FlatMeasureSpec":
        return FlatMeasureSpec(
            dim=_json_int(obj["dim"], "dim"),
            codim=_json_int(obj["codim"], "codim"),
            kind=str(obj["kind"]),
            params=dict(obj.get("params", {})),
            seed=_json_int(obj.get("seed", 0), "seed"),
        )


def _json_int(raw, name: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    return raw


@dataclass(frozen=True)
class VerificationReport:
    estimate: float
    bound: float
    trials: int
    sample_size: int
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "estimate": self.estimate,
            "bound": self.bound,
            "trials": self.trials,
            "sample_size": self.sample_size,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        out.update({f"detail_{k}": v for k, v in self.details.items()})
        return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _frames(g: np.ndarray) -> np.ndarray:
    """Orthonormal (c, d) frames from a stack of (d, c) Gaussians, rotation
    invariant (QR with the signs fixed so that diag(R) > 0)."""
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, np.newaxis, :]
    return q.transpose(0, 2, 1)


def _row_norms(v: np.ndarray) -> np.ndarray:
    # one dot product per row, the same as np.linalg.norm of each row alone
    return np.sqrt((v[:, np.newaxis, :] @ v[:, :, np.newaxis])[:, 0, 0])


def _sample_arrays(spec: FlatMeasureSpec, N: int) -> tuple[np.ndarray, np.ndarray]:
    """N flats of the spec, read-only: bases (N, c, d) and points (N, d).

    Bit-exact replayable for a fixed spec and seed.  The random stream is
    that of drawing the flats one at a time: each flat's raw draws are taken
    in order (in a single call for gaussian-offset, whose draws are all
    normals), and everything derived from them is computed for all flats at
    once, with one stacked QR for the frames.  The spec keeps its last draw
    for the next call with the same N.  Raises ``OverflowError`` when a
    sampled flat leaves float range.
    """
    if spec._draw is None or spec._draw[0] != N:
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            bases, points = _draw_arrays(spec, N)
        if not (np.isfinite(bases).all() and np.isfinite(points).all()):
            raise OverflowError("the measure's sampled flats are not finite")
        bases.flags.writeable = points.flags.writeable = False
        object.__setattr__(spec, "_draw", (N, bases, points))
    return spec._draw[1:]


def _draw_arrays(spec: FlatMeasureSpec, N: int) -> tuple[np.ndarray, np.ndarray]:
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(spec.seed)
    d, c = spec.dim, spec.codim
    if spec.kind == "uniform-angle-offset":
        radius = float(spec.params.get("radius", 1.0))
        center = np.asarray(spec.params.get("center", [0.0] * d), dtype=float)
        raw = np.empty((N, d * c + c))
        normal, uniform = rng.standard_normal, rng.random
        draws = []
        for row in raw:
            normal(out=row)
            draws.append(uniform())
        raw += 0.0  # Generator.normal returns 0.0 + z, which has no -0.0
        # C pow per draw, as each flat alone would compute it
        rad = np.array([radius * u ** (1.0 / c) for u in draws])
        B = _frames(raw[:, : d * c].reshape(N, d, c))
        # uniform point in the c-ball of the normal space, shifted so the
        # support surrounds the declared center
        u = raw[:, d * c:]
        u = u / _row_norms(u)[:, np.newaxis]
        shift = (B @ center)[:, :, np.newaxis]
        BT = B.transpose(0, 2, 1)
        points = (BT @ (u * rad[:, np.newaxis])[:, :, np.newaxis]
                  + BT @ shift)[:, :, 0]
        return B, points
    if spec.kind == "gaussian-offset":
        mean = float(spec.params.get("mean", 0.0))
        std = float(spec.params.get("std", 1.0))
        raw = rng.normal(size=(N, d * c + c))
        B = _frames(raw[:, : d * c].reshape(N, d, c))
        offsets = mean + std * raw[:, d * c:]
        return B, (B.transpose(0, 2, 1) @ offsets[:, :, np.newaxis])[:, :, 0]
    # smoothed-points
    sigma = float(spec.params.get("sigma", 0.0))
    bases = spec.params["flats"]  # list of (normal, offset), codim 1 only
    if c != 1:
        raise ValueError("smoothed-points is defined for codimension 1")
    weights = _finite_array(spec.params.get("weights", [1.0] * len(bases)), (len(bases),))
    if weights is None or (weights < 0.0).any() or not 0.0 < weights.sum() < np.inf:
        raise ValueError("weights must be one nonnegative number per flat, with a finite sum > 0")
    weights = weights / weights.sum()
    # the inverse-CDF draw of Generator.choice(len(bases), p=weights)
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    units = []
    for normal, _ in bases:
        normal = np.asarray(normal, dtype=float)
        units.append(normal / np.linalg.norm(normal))
    units = np.array(units)
    offs = np.array([float(b[1]) for b in bases])
    if sigma > 0.0:
        noise = np.empty((N, d + 1))
        normal, uniform = rng.standard_normal, rng.random
        draws = []
        for row in noise:
            draws.append(uniform())
            normal(out=row)
        noise += 0.0  # as for uniform-angle-offset
        pick = np.array(draws)
    else:
        pick = rng.random(N)
    idx = cdf.searchsorted(pick, side="right")
    normals = units[idx]
    offsets = offs[idx]
    if sigma > 0.0:
        normals = normals + sigma * noise[:, :d]
        normals = normals / _row_norms(normals)[:, np.newaxis]
        offsets = offsets + sigma * noise[:, d]
    return normals[:, np.newaxis, :], normals * offsets[:, np.newaxis]


def _hyperplane_arrays(bases: np.ndarray, points: np.ndarray):
    """Unit normals (N, d) and offsets (N,) of sampled codimension-1 flats."""
    normals = np.ascontiguousarray(bases[:, 0, :])
    offsets = np.einsum("ij,ij->i", normals, points)
    return normals, offsets


# ---------------------------------------------------------------------------
# Probe direction coverings
# ---------------------------------------------------------------------------

def sphere_covering(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy covering of the unit sphere in R^dim."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        # Fibonacci spiral
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + 5.0**0.5) * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    rng = np.random.default_rng(count)  # deterministic in count
    g = rng.normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# probe directions per block: bounds the (block, N) temporaries of the counts
_BLOCK = 16


def _probe_counts(dirs, x_t, hit) -> np.ndarray:
    """Per row w of ``dirs``, how many entries of ``w @ x_t`` satisfy ``hit``.

    The products are probe-major, one row per direction, so that each count
    runs along contiguous memory; they are taken ``_BLOCK`` rows at a time
    into one buffer reused from block to block.
    """
    counts = np.empty(len(dirs), dtype=np.int64)
    proj = np.empty((min(_BLOCK, len(dirs)), x_t.shape[1]))
    for lo in range(0, len(dirs), _BLOCK):
        block = dirs[lo:lo + _BLOCK]
        hits = hit(np.matmul(block, x_t, out=proj[:len(block)]))
        counts[lo:lo + len(block)] = np.count_nonzero(hits, axis=1)
    return counts


def _ray_fractions(normals, offsets, x, dirs, parallel=None) -> np.ndarray:
    """Fraction of sampled hyperplanes met by the ray from x, per direction.

    A hyperplane containing x is met by every ray.  Any other is met when
    the direction has a positive projection on its normal flipped to point
    from x towards it, except the rows that the mask ``parallel`` marks as
    parallel to every direction: those are met by no ray that starts off
    them.
    """
    r = offsets - normals @ x
    contained = np.count_nonzero(r == 0.0)
    side = np.sign(r) if parallel is None else np.where(parallel, 0.0, np.sign(r))
    # zero columns for contained (and parallel) hyperplanes
    toward_t = np.ascontiguousarray((normals * side[:, np.newaxis]).T)
    hits = _probe_counts(dirs, toward_t, lambda proj: proj > 0.0)
    return (hits + contained) / len(r)


# ---------------------------------------------------------------------------
# Exact sweep of a circle of directions
# ---------------------------------------------------------------------------

# float angles further apart than this are in exact order; closer ones are
# ordered by exact cross products where their float cross product cannot
_ANGLE_TIE = 1e-9


def _circle_sweep(arcs: np.ndarray) -> tuple[int, np.ndarray, int]:
    """Exact minimum over the directions v of the plane of how many of the
    open half-circles ``{v : a . v > 0}``, one per nonzero row a of
    ``arcs``, hold v.

    Returns that count, a direction attaining it and the number of
    directions examined: every distinct arc end and the gap after it.  Each
    half-circle runs counterclockwise from its start (a1, -a0) to its end
    (-a1, a0).  An end holds no arc that ends or starts there, so its count
    is at most that of the gaps beside it, and the minimum is attained at an
    end; the direction returned is that end, exactly (with no arc it is
    (1, 0)).  The ends are sorted once, as one representative p per line of
    ends in the upper half-plane, angle [0, pi): an arc ends at its p or
    starts there, and leaves or enters at -p.  The count at p_k then follows
    from prefix sums, and every arc off p_k's line holds exactly one of p_k
    and -p_k.  The order and the ties of the representatives are exact on
    their float values (``_exact_order``); a direction is given by its first
    row in ``arcs``, so that no order among ties shows.
    """
    a0, a1 = arcs[:, 0], arcs[:, 1]
    keep = (a0 != 0.0) | (a1 != 0.0)
    a0, a1 = a0[keep], a1[keep]
    m = len(a0)
    if not m:
        return 0, np.array([1.0, 0.0]), 1
    # where the end (-a1, a0) is in the lower half-plane, p is the start
    starts_up = (a0 < 0.0) | ((a0 == 0.0) & (a1 > 0.0))
    flip = np.where(starts_up, -1.0, 1.0)
    px, py = -a1 * flip, a0 * flip
    order, new = _exact_order(px, py)
    first = np.flatnonzero(new)  # the first position of each line of ends
    n_in = np.add.reduceat(starts_up[order].astype(np.int64), first)
    n_out = np.diff(np.append(first, m)) - n_in
    # the gap below p_0 is held by the arcs that end in the upper half
    before = n_out.sum() + np.concatenate([[0], np.cumsum(n_in - n_out)[:-1]])
    at_p = before - n_out
    counts = np.concatenate([at_p, m - n_in - n_out - at_p])  # at each p_k, then each -p_k
    k = int(counts.argmin())
    K = len(first)
    i = np.minimum.reduceat(order, first)[k % K]
    sign = 1.0 if k < K else -1.0
    direction = np.array([px[i] * sign, py[i] * sign]) + 0.0  # + 0.0: no -0.0 entries
    return int(counts[k]), direction, 4 * K


def _exact_order(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order of the nonzero upper-half-plane vectors (px, py) by exact
    angle, and per position of it whether that vector's direction differs
    from the one before (``True`` at position 0).

    The float angles order every pair that is more than ``_ANGLE_TIE``
    apart.  A closer neighbour follows exactly when both are the same
    vector (a tie) or when the float cross product exceeds its rounding
    bound (it comes strictly after).  Each run of close angles holding any
    other pair is sorted again by exact cross products of its distinct
    vectors.
    """
    angle = np.arctan2(py, px)
    order = np.argsort(angle)
    qx, qy, a = px[order], py[order], angle[order]
    x0, y0, x1, y1 = qx[:-1], qy[:-1], qx[1:], qy[1:]
    same = (x0 == x1) & (y0 == y1)
    far = np.diff(a) > _ANGLE_TIE
    # four units in the last place of the terms bound the rounding error
    xy, yx = x0 * y1, y0 * x1
    after = far | (xy - yx > 2.0**-50 * (np.abs(xy) + np.abs(yx)) + 1e-300)
    new = np.concatenate([[True], ~same])
    breaks = np.flatnonzero(far)  # a run of close angles ends at each
    end = 0
    for i in np.flatnonzero(~(same | after)).tolist():
        if i < end:
            continue
        j = int(np.searchsorted(breaks, i))
        lo = int(breaks[j - 1]) + 1 if j else 0
        end = int(breaks[j]) if j < len(breaks) else len(far)
        run = np.stack([qx[lo:end + 1], qy[lo:end + 1]], axis=1)
        rows, inverse = np.unique(run, axis=0, return_inverse=True)
        exact = [(Fraction(u), Fraction(v)) for u, v in rows.tolist()]

        def cross(s, t):  # positive when row t lies counterclockwise of row s
            return exact[s][0] * exact[t][1] - exact[s][1] * exact[t][0]

        ranked = sorted(range(len(rows)), key=cmp_to_key(lambda s, t: cross(t, s)))
        rank = np.empty(len(rows), dtype=np.int64)
        k = 0
        for prev, cur in zip(ranked[:1] + ranked, ranked):
            k += cross(prev, cur) > 0
            rank[cur] = k
        ranks = rank[inverse.ravel()]
        by_rank = np.argsort(ranks, kind="stable")
        order[lo:end + 1] = order[lo:end + 1][by_rank]
        ranks = ranks[by_rank]
        new[lo + 1:end + 1] = ranks[1:] != ranks[:-1]
    return order, new


def _planar_rays(normals, offsets, x) -> tuple[int, np.ndarray, int]:
    """The fewest sampled lines met by a ray from x in the plane.

    Returns (hits, direction, examined).  A line through x is met by every
    ray; any other by the open half-circle of directions with a positive
    projection on its normal flipped towards it (``_circle_sweep``).  The
    hits are counted along the direction that the sweep returns with
    elementwise products, no BLAS, so that the flipped copies of a line's
    own normal give exact zeros against its perpendicular.
    """
    r = offsets - normals @ x
    toward = normals * np.sign(r)[:, np.newaxis]  # zero rows for contained lines
    _, u, examined = _circle_sweep(toward)
    ahead = toward[:, 0] * u[0] + toward[:, 1] * u[1] > 0.0
    return int(np.count_nonzero(r == 0.0) + np.count_nonzero(ahead)), u, examined


# ---------------------------------------------------------------------------
# Verifiers and searcher
# ---------------------------------------------------------------------------

# rounds of seeded probes around the running minimum in verify_dual_cpt_measure
_REFINE_ROUNDS = 2


def _tolerance(bound: float, N: int) -> tuple[float, float]:
    """The binomial standard error of a fraction ``bound`` of N samples, and
    the verifiers' tolerance below the bound: three of them."""
    se = math.sqrt(bound * (1.0 - bound) / N)
    return se, 3.0 * se


def verify_dual_cpt_measure(
    spec: FlatMeasureSpec,
    x: Sequence[float],
    N: int,
    ray_probes: int = 720,
) -> VerificationReport:
    """Monte Carlo check of the ray-measure lower bound 1/(d+1) at x.

    In the plane every direction is swept exactly (``_planar_rays``): the
    estimate is the sampled minimum over all rays, counted along the
    reported ``worst_direction``, and ``trials`` counts the directions the
    sweep examined.  In d >= 3 it probes ``ray_probes`` directions of a
    deterministic sphere covering, the directions parallel to the atoms of
    an atomic spec (``_parallel_probes``), and then two rounds of seeded
    random directions near the running minimum (the adversarial quantifier
    over rays needs density where the estimate dips); ``trials`` counts
    those probes.  It reads the spec's own sample, as
    ``search_center_sampled(spec, N)`` does.
    """
    if spec.codim != 1:
        raise DimensionMismatchError("dual central point verification needs codim 1")
    if N < 1 or ray_probes < 1:
        raise ValueError("N and ray_probes must be >= 1")
    d = spec.dim
    if len(x) != d:
        raise DimensionMismatchError(f"point must have {d} coordinates, got {len(x)}")
    normals, offsets = _hyperplane_arrays(*_sample_arrays(spec, N))
    xv = np.asarray([float(c) for c in x], dtype=float)

    if d == 2:
        hits, worst, total_probes = _planar_rays(normals, offsets, xv)
        estimate = hits / N
    else:
        dirs = sphere_covering(d, ray_probes)
        fracs = _ray_fractions(normals, offsets, xv, dirs)
        j = int(fracs.argmin())
        estimate = float(fracs[j])
        worst = dirs[j]
        total_probes = len(dirs)
        # an atom of the measure is missed by every ray parallel to it, a
        # set of directions that no covering meets exactly
        for cand, parallel in _parallel_probes(spec, normals, max(1, ray_probes // 4)):
            fr = _ray_fractions(normals, offsets, xv, cand, parallel)
            total_probes += len(cand)
            jj = int(fr.argmin())
            if fr[jj] < estimate:
                estimate = float(fr[jj])
                worst = cand[jj]
        rng = np.random.default_rng((spec.seed, 0x5EED))
        for _ in range(_REFINE_ROUNDS):
            cand = worst[np.newaxis, :] + 0.2 * rng.normal(size=(max(1, ray_probes // 4), d))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            fr = _ray_fractions(normals, offsets, xv, cand)
            total_probes += len(cand)
            jj = int(fr.argmin())
            if fr[jj] < estimate:
                estimate = float(fr[jj])
                worst = cand[jj]

    bound = 1.0 / (d + 1)
    se, tolerance = _tolerance(bound, N)
    return VerificationReport(
        estimate=estimate,
        bound=bound,
        trials=total_probes,
        sample_size=N,
        tolerance=tolerance,
        passed=estimate >= bound - tolerance,
        details={
            "worst_direction": [float(v) for v in worst],
            "min_hits": int(round(estimate * N)),
            "standard_error": se,
        },
    )


def _complement(D: np.ndarray, d: int) -> np.ndarray:
    """An orthonormal basis (rows) of the complement of the orthonormal rows of D in R^d."""
    comp = np.eye(d) - D.T @ D if D.shape[0] else np.eye(d)
    eigval, eigvec = np.linalg.eigh(comp)
    return eigvec[:, eigval > 0.5].T


def _parallel_probes(spec: FlatMeasureSpec, normals: np.ndarray, count: int):
    """Directions parallel to the atoms of a sigma-0 ``smoothed-points`` spec
    in d >= 3 (in the plane the sweep meets them as arc ends).

    Groups the listed flats by the line of their normal, found exactly (the
    reduced row echelon form of the normal), and yields per group
    ``(dirs, parallel)``: ``sphere_covering(d-1, count)`` mapped onto the
    complement of its first normal, and the mask of the sampled ``normals``
    that are copies of the group's flats.  The samples of a sigma-0 spec are
    exact copies of their flat's unit normal, so no rounding of a product
    with a probe decides whether the ray meets them.  Other specs yield
    nothing.
    """
    d = spec.dim
    if spec.kind != "smoothed-points" or float(spec.params.get("sigma", 0.0)) > 0.0 or d < 3:
        return
    groups: dict[tuple, list[np.ndarray]] = {}
    for normal, _ in spec.params["flats"]:
        normal = np.asarray(normal, dtype=float)
        line = tuple(rref([[Fraction(c) for c in normal.tolist()]], d)[0][0])
        # the unit normal exactly as the sampler computes it
        groups.setdefault(line, []).append(normal / np.linalg.norm(normal))
    for units in groups.values():
        dirs = sphere_covering(d - 1, count) @ _complement(units[0][np.newaxis, :], d)
        parallel = np.zeros(len(normals), dtype=bool)
        for other in units:
            parallel |= (normals == other).all(axis=1)
        yield dirs, parallel


# hyperplanes in the exact stage of the center search
_EXACT_SUBSAMPLE = 10


def search_center_sampled(spec: FlatMeasureSpec, N: int) -> Point:
    """Candidate central point for a sampled hyperplane measure.

    Two starts: the exact depth maximizer of 10 evenly spread sampled
    hyperplanes (floats lifted to exact rationals, redrawn until they are in
    general position), and the mean of the sampled feet of perpendiculars
    from the origin.  Both are scored by the sampled min-ray fraction and
    the better one is polished by pattern search.  The result is a
    candidate only; certify it with verify_dual_cpt_measure.  The first
    draw is the spec's own sample; the others redraw with seeds
    spec.seed + 1000 + attempt.  When all 9 miss general position, as for
    hyperplanes through one point, the polish starts from the mean of the
    spec's own sample alone.
    """
    if spec.codim != 1:
        raise DimensionMismatchError("center search needs codim 1")
    bases, points = _sample_arrays(spec, N)
    starts = (points.mean(axis=0),)  # when no draw is in general position
    for attempt in range(9):
        drawn = (bases, points) if not attempt else _sample_arrays(
            replace(spec, seed=spec.seed + 1000 + attempt), N)
        try:  # the vertex pass checks general position
            center = max_depth_point(_exact_instance(*drawn, min(_EXACT_SUBSAMPLE, N)))
        except DegenerateInstanceError:
            continue
        bases, points = drawn
        starts = (center.point, points.mean(axis=0))
        break
    return _polish_center(spec, *_hyperplane_arrays(bases, points), starts)


# probe directions and pattern-search rounds of the center polish
_POLISH_PROBES = 180
_POLISH_ROUNDS = 40


def _polish_center(spec, normals, offsets, starts):
    """Pattern-search ascent of the sampled min-ray-fraction objective.

    Climbs from the best-scoring of ``starts`` (the first wins a tie): the
    exact subsample center can land far from the sampled mass when the
    measure is strongly clustered, and the pattern search stalls where the
    score is flat.  Steps shrink over a deterministic move pattern.  The
    current point keeps the side of every hyperplane and its hit count per
    probe; a trial point recounts only the hyperplanes whose side it
    changes (``_moved_hits``), and an accepted move adopts its sides and
    counts.
    """
    d = spec.dim
    N = len(normals)
    dirs = sphere_covering(d, _POLISH_PROBES)
    moves = sphere_covering(d, 4 * d)
    # The probe directions stay fixed while the point moves, so the sign of
    # every projection normal . u is taken once.  Where r = offset - normal . p
    # is positive, the ray along u meets the hyperplane when normal . u > 0
    # (``ahead``); where r < 0, when normal . u < 0, which is ``ahead - turn``
    # with ``turn`` the sign of normal . u.  The tables are filled 1024 rows
    # at a time, so that the float64 projections stay small.  The hit counts
    # are integers below 2**24, exact in float32.
    dtype = np.float32 if N < 2**24 else np.float64
    ahead = np.empty((N, len(dirs)), dtype)
    turn = np.empty_like(ahead)
    for lo in range(0, N, 1024):
        proj = normals[lo:lo + 1024] @ dirs.T
        ahead[lo:lo + 1024] = proj > 0.0
        turn[lo:lo + 1024] = np.sign(proj)

    def sides(p):
        return np.sign(offsets - normals @ p)

    def score(side, hits):
        return (int(hits.min()) + int(np.count_nonzero(side == 0.0))) / N

    def start(x):
        p = np.asarray([float(c) for c in x], dtype=float)
        side = sides(p)
        hits = _side_hits(side, ahead, turn)
        return p, side, hits, score(side, hits)

    p, side, hits, best = max(map(start, starts), key=lambda state: state[3])
    step = spec.support_radius() / 4.0
    floor = spec.support_radius() * 1e-3
    for _ in range(_POLISH_ROUNDS):
        moved = False
        for mv in moves:
            q = p + step * mv
            side_q = sides(q)
            hits_q = _moved_hits(hits, side, side_q, ahead, turn)
            s = score(side_q, hits_q)
            if s > best:
                p, side, hits, best, moved = q, side_q, hits_q, s, True
                break
        if not moved:
            step *= 0.5
            if step < floor:
                break
    return tuple(Fraction(float(v)).limit_denominator(10**6) for v in p)


def _side_hits(side, ahead, turn) -> np.ndarray:
    """Per probe, the hyperplanes not containing the point that its ray
    meets, for a point whose sides ``sign(r)`` are ``side``."""
    return (side != 0.0).astype(ahead.dtype) @ ahead - (side < 0.0).astype(ahead.dtype) @ turn


def _moved_hits(hits, side, new_side, ahead, turn) -> np.ndarray:
    """``_side_hits(new_side, ...)`` from the counts ``hits`` at ``side``.

    Only the hyperplanes whose side changed enter a product: one that the
    point crosses adds or takes off its row of ``turn``, and one that the
    point enters or leaves also its row of ``ahead``.  The change is summed
    before it meets ``hits``, so that no partial sum leaves [-N, N], where
    the float32 counts are exact.  When most sides changed, the full
    product is the smaller one.
    """
    changed = np.flatnonzero(new_side != side)
    if 2 * len(changed) > len(side):
        return _side_hits(new_side, ahead, turn)
    old, new = side[changed], new_side[changed]
    down = (new < 0.0).astype(ahead.dtype) - (old < 0.0)
    change = down @ turn[changed]
    on = np.flatnonzero((old == 0.0) | (new == 0.0))
    if len(on):
        change -= ((new[on] != 0.0).astype(ahead.dtype) - (old[on] != 0.0)) @ ahead[changed[on]]
    return hits - change


def _exact_instance(bases: np.ndarray, points: np.ndarray, count: int) -> Instance:
    idx = np.linspace(0, len(bases) - 1, count).round().astype(int)
    # an atomic measure repeats its few flats: each distinct lifted
    # hyperplane is kept once
    hps = dict.fromkeys(
        Hyperplane(
            tuple(Fraction(float(v)).limit_denominator(1000) for v in bases[i, 0]),
            Fraction(float(bases[i, 0] @ points[i])).limit_denominator(1000),
        )
        for i in sorted(set(int(v) for v in idx))
    )
    return Instance(bases.shape[2], list(hps), metadata={"source": "sampled"})


def verify_dual_ctr(
    specs: Sequence[FlatMeasureSpec],
    L_point: Sequence[float],
    L_directions: Sequence[Sequence[float]],
    N: int,
    probes: int = 360,
) -> VerificationReport:
    """Monte Carlo check of the half-flat bound 1/(k+2) at a candidate flat L.

    L has dimension d-k-1 and is given by a point and spanning directions;
    the d-k measures live on k-flats (codimension d-k).  Half-flats bounded
    by L are L + nonnegative multiples of a unit vector w orthogonal to L.
    For k = 1 the directions w form a circle, swept exactly for each measure
    (``_planar_rays`` for lines in the plane, ``_halfflat_sweep`` in d >= 3),
    and ``trials`` counts the directions the sweeps examined, summed over
    the measures.  Otherwise w runs over ``probes`` directions of a
    deterministic covering of the sphere in that complement (the two
    directions +-w for k = 0), and ``trials`` counts them.
    """
    if not specs:
        raise ValueError("need at least one measure spec")
    if N < 1 or probes < 1:
        raise ValueError("N and probes must be >= 1")
    d = specs[0].dim
    c = specs[0].codim
    k = d - c
    if any(s.dim != d or s.codim != c for s in specs):
        raise DimensionMismatchError("all measures must share dim and codim")
    if len(specs) != c:
        raise ValueError(f"need d-k = {c} measures, got {len(specs)}")
    if len(L_point) != d or any(len(row) != d for row in L_directions):
        raise DimensionMismatchError(f"L's point and directions must have {d} coordinates each")
    L_dirs = np.asarray(L_directions, dtype=float).reshape(-1, d)
    if L_dirs.shape[0] != d - k - 1:
        raise DimensionMismatchError(
            f"L must have dimension d-k-1 = {d - k - 1}, got {L_dirs.shape[0]}"
        )
    if fraction_rank([[Fraction(c) for c in row] for row in L_dirs.tolist()]) < L_dirs.shape[0]:
        raise ValueError("L's directions must be linearly independent")
    l0 = np.asarray(L_point, dtype=float)

    # orthonormalize L's directions and take the (k+1)-dim complement
    if L_dirs.shape[0]:
        Q, _ = np.linalg.qr(L_dirs.T)
        D = Q.T
    else:
        D = np.zeros((0, d))
    W = _complement(D, d)  # (k+1, d)

    # for k = 1 the directions form a circle and are swept exactly
    probe_dirs = None if k == 1 else sphere_covering(k + 1, probes) @ W  # (P, d)

    bound = 1.0 / (k + 2)
    se, tolerance = _tolerance(bound, N)

    per_measure = []
    examined = 0
    for spec in specs:
        bases, points = _sample_arrays(spec, N)
        if k == 1:
            if c == 1:
                hits, _, swept = _planar_rays(*_hyperplane_arrays(bases, points), l0)
            else:
                hits, swept = _halfflat_sweep(bases, points, l0, D, W)
            m, examined = hits / N, examined + swept
        elif c == 1:
            normals, offsets = _hyperplane_arrays(bases, points)
            m = float(_ray_fractions(normals, offsets, l0, probe_dirs).min())
        else:
            m = _halfflat_min_fraction(bases, points, l0, D, probe_dirs)
        per_measure.append(m)

    return VerificationReport(
        estimate=min(per_measure),
        bound=bound,
        trials=examined if k == 1 else len(probe_dirs),
        sample_size=N,
        tolerance=tolerance,
        passed=all(m >= bound - tolerance for m in per_measure),
        details={"per_measure_min": per_measure, "standard_error": se},
    )


def _halfflat_terms(bases, points, l0, D) -> tuple[np.ndarray, np.ndarray]:
    """h (N, d) and num (N,) of the half-flat test of ``_halfflat_min_fraction``."""
    c = bases.shape[1]
    rhs = np.einsum("ncd,nd->nc", bases, points - l0[np.newaxis, :])  # (N, c)
    BD = bases @ D.T  # (N, c, c-1)
    cof = np.stack(
        [(-1) ** (j + c - 1) * np.linalg.det(np.delete(BD, j, axis=1)) for j in range(c)],
        axis=1,
    )
    return np.einsum("nc,ncd->nd", cof, bases), np.einsum("nc,nc->n", cof, rhs)


def _halfflat_min_fraction(bases, points, l0, D, probe_dirs) -> float:
    """Minimum over probes of the fraction of flats meeting the half-flat.

    A sampled flat G (codim c, basis B, point p) meets the half-flat
    M = {l0 + D^T s + t w : t >= 0} exactly when B (D^T s + t w) = B (p - l0)
    is solvable with t >= 0.  Expanding det[B D^T | B w] along its last
    column gives h . w with h = B^T cof, cof being that column's cofactors,
    and Cramer's rule gives t = num / (h . w) with num = cof . B (p - l0).
    So G meets M exactly when |h . w| > 1e-12 and num * (h . w) >= 0: one
    matrix product per block of probes, with no solve per flat and probe.
    When no |num| is below 1e-300 that product cannot round to zero, and
    the test is (sign(num) h) . w > 1e-12, one comparison per entry.
    """
    h, num = _halfflat_terms(bases, points, l0, D)
    if (np.abs(num) >= 1e-300).all():
        # flipping the sign of h flips that of h . w exactly
        toward_t = np.ascontiguousarray((h * np.sign(num)[:, np.newaxis]).T)
        hits = _probe_counts(probe_dirs, toward_t, lambda hw: hw > 1e-12)
    else:
        hits = _probe_counts(probe_dirs, np.ascontiguousarray(h.T),
                             lambda hw: (np.abs(hw) > 1e-12) & (num * hw >= 0.0))
    return int(hits.min()) / len(h)


def _halfflat_sweep(bases, points, l0, D, W) -> tuple[int, int]:
    """The fewest sampled flats meeting a half-flat of L when its directions
    w = W^T v, for v on the unit circle, form a circle (W has 2 rows).

    Returns (hits, examined).  With g = W h the test of
    ``_halfflat_min_fraction`` reads |g . v| > 1e-12 and num * (g . v) >= 0:
    the open half-circle about sign(num) g less a sliver of 1e-12 / |g| at
    each end, or, when num = 0, the circle less the two directions
    perpendicular to g.  ``_circle_sweep`` finds the exact minimum of the
    half-circles, and the hits are counted along its direction with that
    test and elementwise products.
    """
    h, num = _halfflat_terms(bases, points, l0, D)
    g = h @ W.T
    through = num == 0.0
    _, v, examined = _circle_sweep(np.concatenate(
        [g * np.sign(num)[:, np.newaxis], g[through], -g[through]]))
    gv = g[:, 0] * v[0] + g[:, 1] * v[1]
    return int(np.count_nonzero((np.abs(gv) > 1e-12) & (num * gv >= 0.0))), examined
