"""Ray-crossing depth of points against hyperplane families, exactly.

The depth of x against a family F is the minimum over directions u of the
number of hyperplanes met by the ray x + t*u (t >= 0).  A hyperplane through
x is met by every ray (the crossing at t = 0 counts); a hyperplane parallel
to the ray and not through x is never met.  This makes the depth a function
of the arrangement face containing x alone.

Two exact combinatorial searches do the heavy lifting:

* ``hemisphere_depth`` minimizes the number of strictly-positive inner
  products over all directions.  The count can only drop when a direction
  moves to a lower-dimensional face of the central arrangement
  {u : w_i . u = 0}, so the minimum is attained on a minimal face: either
  the common null space (count 0) or an edge spanned by the null space of
  d-1 of the vectors.  Enumerating those edges is exact and complete.

* ``_max_strict`` maximizes the same count (used for Tukey depth, where the
  complement is wanted).  Maxima live on full-dimensional cells; each cell
  hangs off one of its extreme rays, so we enumerate edge directions and
  resolve the vectors vanishing there by exact perturbation, recursing in
  one dimension lower.

Depth maximization enumerates only arrangement vertices: moving from any
face into an incident face with a larger containment set gains one crossing
per new containment and loses at most one from the hemisphere term, so for
a general-position family with n >= d the maximum is attained at a vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    DimensionMismatchError,
    Direction,
    Instance,
    Point,
    ZeroDirectionError,
    as_point,
    cofactor_direction,
    dot,
    ensure_general_position,
    fraction_nullspace,
    fraction_rank,
    scale_to_int,
    solve_int_square,
    solve_underdetermined,
)

_NUMPY_SAFE = 1 << 62


def _unit(dim: int, axis: int = 0, sign: int = 1) -> Direction:
    return tuple(Fraction(sign if i == axis else 0) for i in range(dim))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Direction-space searches
# ---------------------------------------------------------------------------

def hemisphere_depth(vectors: Sequence[Sequence], dim: Optional[int] = None):
    """Exact min over directions u != 0 of #{w : w . u > 0}, with a witness.

    Vectors must be nonzero.  Empty input returns (0, e_1); ``dim`` is then
    required.
    """
    vecs = [as_point(v) for v in vectors]
    if vecs:
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise DimensionMismatchError("mixed vector dimensions")
        if any(all(c == 0 for c in v) for v in vecs):
            raise ZeroDirectionError("hemisphere_depth requires nonzero vectors")
    elif dim is None:
        raise DimensionMismatchError("dim required for empty vector list")
    if not vecs:
        return 0, _unit(dim)

    ints = [scale_to_int(v) for v in vecs]
    if dim == 1:
        pos = sum(1 for w in ints if w[0] > 0)
        neg = len(ints) - pos
        return (pos, _unit(1)) if pos <= neg else (neg, _unit(1, sign=-1))

    if fraction_rank(vecs) < dim:
        null = fraction_nullspace(vecs, dim)[0]
        return 0, null

    best = None
    witness = None
    for sub in itertools.combinations(range(len(ints)), dim - 1):
        v = cofactor_direction([ints[i] for i in sub], dim)
        if all(c == 0 for c in v):
            continue  # subset rank-deficient; its edge shows up elsewhere
        dots = [sum(a * b for a, b in zip(w, v)) for w in ints]
        pos = sum(1 for t in dots if t > 0)
        neg = sum(1 for t in dots if t < 0)
        for count, u in ((pos, v), (neg, tuple(-c for c in v))):
            if best is None or count < best:
                best = count
                witness = u
        if best == 0:
            break
    return best, tuple(Fraction(c) for c in witness)


def _max_strict(vecs: list[tuple[Fraction, ...]], dim: int):
    """Exact max over u != 0 of #{v : v . u > 0}; zero vectors are ignored.

    Signs of v . u are invariant under positive scaling of each v, so the
    vectors are integer-scaled once and all arithmetic below runs on ints.
    """
    ints = [scale_to_int(v) for v in vecs if any(c != 0 for c in v)]
    if not ints:
        return 0, _unit(dim)
    # reduce to the span of the vectors: u only matters through v . u
    basis_idx: list[int] = []
    for i, v in enumerate(ints):
        if fraction_rank([ints[j] for j in basis_idx] + [v]) > len(basis_idx):
            basis_idx.append(i)
        if len(basis_idx) == dim:
            break
    r = len(basis_idx)
    if r < dim:
        B = [ints[i] for i in basis_idx]
        reduced = [tuple(dot(v, b) for b in B) for v in ints]
        count, w = _max_strict_fullrank(reduced, r)
        witness = tuple(
            sum(w[j] * B[j][k] for j in range(r)) for k in range(dim)
        )
        return count, witness
    return _max_strict_fullrank(ints, dim)


def _max_strict_fullrank(ints: list[tuple[int, ...]], dim: int):
    if dim == 1:
        pos = sum(1 for v in ints if v[0] > 0)
        neg = sum(1 for v in ints if v[0] < 0)
        return (pos, (Fraction(1),)) if pos >= neg else (neg, (Fraction(-1),))
    best = -1
    witness = None
    m = len(ints)
    for sub in itertools.combinations(range(m), dim - 1):
        edge = cofactor_direction([ints[i] for i in sub], dim)
        if all(c == 0 for c in edge):
            continue
        for u0 in (edge, tuple(-c for c in edge)):
            vals = [sum(a * b for a, b in zip(v, u0)) for v in ints]
            base = sum(1 for t in vals if t > 0)
            zero_idx = [i for i, t in enumerate(vals) if t == 0]
            if not zero_idx:
                if base > best:
                    best = base
                    witness = tuple(Fraction(c) for c in u0)
                continue
            if base + len(zero_idx) <= best:
                continue
            # vectors vanishing at u0 are orthogonal to it; resolve them
            # one dimension down and perturb the edge into the best cell
            extra, z = _max_strict([ints[i] for i in zero_idx], dim)
            total = base + extra
            if total <= best:
                continue
            u0f = tuple(Fraction(c) for c in u0)
            if extra == 0:
                best, witness = total, u0f
                continue
            # perturb along z, small enough to keep every strict sign
            delta = None
            for i, t in enumerate(vals):
                if t == 0:
                    continue
                vz = dot(ints[i], z)
                if vz != 0:
                    cap = Fraction(abs(t)) / abs(vz)
                    delta = cap if delta is None else min(delta, cap)
            delta = (delta / 2) if delta is not None else Fraction(1)
            u = tuple(a + delta * b for a, b in zip(u0f, z))
            best, witness = total, u
        if best == m:
            break
    return best, witness


# ---------------------------------------------------------------------------
# Depth of a point
# ---------------------------------------------------------------------------

def ray_crossings(F: Instance, x: Point, u: Direction) -> int:
    """Number of hyperplanes of F met by the ray from x in direction u."""
    x = as_point(x)
    u = as_point(u)
    if len(x) != F.dim or len(u) != F.dim:
        raise DimensionMismatchError("point/direction dimension mismatch")
    if all(c == 0 for c in u):
        raise ZeroDirectionError("ray direction must be nonzero")
    count = 0
    for h in F.hyperplanes:
        r = h.offset - dot(h.normal, x)
        if r == 0:
            count += 1  # crossing at t = 0
        elif r * dot(h.normal, u) > 0:
            count += 1
    return count


@dataclass(frozen=True)
class CellSignature:
    """Side signs of a point against every hyperplane of an instance."""

    signs: tuple[int, ...]


def signature_of(F: Instance, x: Point) -> CellSignature:
    x = as_point(x)
    if len(x) != F.dim:
        raise DimensionMismatchError("point dimension mismatch")
    signs = []
    for h in F.hyperplanes:
        v = dot(h.normal, x) - h.offset
        signs.append(_sign(v))
    return CellSignature(tuple(signs))


def depth_from_signature(F: Instance, sig: CellSignature):
    """Depth and witness direction for any point with the given signature."""
    contained = sum(1 for s in sig.signs if s == 0)
    w = [
        tuple(-s * c for c in h.normal)
        for s, h in zip(sig.signs, F.hyperplanes)
        if s != 0
    ]
    hemi, witness = hemisphere_depth(w, dim=F.dim)
    return contained + hemi, witness


def dual_depth(F: Instance, x: Point):
    """Minimum ray crossings over all directions, with a witness direction."""
    return depth_from_signature(F, signature_of(F, x))


# ---------------------------------------------------------------------------
# Depth maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthCertificate:
    point: Point
    depth: int
    witness_direction: Direction
    bound: int
    meets_bound: bool


def _candidate_directions(normals: list[tuple[int, ...]], dim: int):
    """Edge directions of the central arrangement of all instance normals."""
    if dim == 1:
        return [(1,)]
    dirs = []
    for sub in itertools.combinations(range(len(normals)), dim - 1):
        v = cofactor_direction([normals[i] for i in sub], dim)
        if any(c != 0 for c in v):
            dirs.append(v)
    return dirs


def _sign_table(normals: list[tuple[int, ...]], dirs: list[tuple[int, ...]]) -> np.ndarray:
    """S[j, i] = sign(normal_i . dir_j) as an int8 array, computed exactly."""
    max_a = max((abs(c) for a in normals for c in a), default=0)
    max_v = max((abs(c) for v in dirs for c in v), default=0)
    d = len(normals[0])
    if max_a and max_v and max_a * max_v * d < _NUMPY_SAFE:
        A = np.array(normals, dtype=np.int64)
        V = np.array(dirs, dtype=np.int64)
        return np.sign(V @ A.T).astype(np.int8)
    S = np.zeros((len(dirs), len(normals)), dtype=np.int8)
    for j, v in enumerate(dirs):
        for i, a in enumerate(normals):
            S[j, i] = _sign(sum(x * y for x, y in zip(a, v)))
    return S


def max_depth_point(F: Instance) -> DepthCertificate:
    """Exact global maximizer of dual_depth over R^d.

    Requires general position.  Ties between maximizing vertices break to
    the lexicographically smallest exact point.
    """
    ensure_general_position(F)
    n, d = F.n, F.dim
    bound = (n + d) // (d + 1)

    if n < d:
        # all hyperplanes pass through a common flat; depth there is n,
        # and no face can beat containment of the whole family
        rows = [h.normal for h in F.hyperplanes]
        rhs = [h.offset for h in F.hyperplanes]
        point = solve_underdetermined(rows, rhs)
        return DepthCertificate(point, n, _unit(d), bound, n >= bound)

    normals, offsets = F.scaled()
    dirs = _candidate_directions(normals, d)
    S = _sign_table(normals, dirs)

    best_depth = -1
    best_point: Optional[Point] = None
    best_witness: Optional[Direction] = None
    for sub in itertools.combinations(range(n), d):
        nums, den = F.vertex(sub)
        signs = np.zeros(n, dtype=np.int8)
        for i in range(n):
            if i in sub:
                continue
            r = offsets[i] * den - sum(a * v for a, v in zip(normals[i], nums))
            signs[i] = _sign(r)
        M = S * signs[np.newaxis, :]
        pos = (M > 0).sum(axis=1)
        neg = (M < 0).sum(axis=1)
        jp = int(pos.argmin())
        jn = int(neg.argmin())
        if pos[jp] <= neg[jn]:
            hemi, j, flip = int(pos[jp]), jp, 1
        else:
            hemi, j, flip = int(neg[jn]), jn, -1
        depth = d + hemi
        if depth < best_depth:
            continue
        point = tuple(Fraction(v, den) for v in nums)
        if depth == best_depth and not point < best_point:
            continue
        best_depth = depth
        best_point = point
        best_witness = tuple(Fraction(flip * c) for c in dirs[j])
    return DepthCertificate(best_point, best_depth, best_witness, bound, best_depth >= bound)


# ---------------------------------------------------------------------------
# Tukey depth and discrete centerpoints
# ---------------------------------------------------------------------------

def tukey_depth(P: Sequence[Point], x: Point) -> int:
    """Min over closed halfspaces with x on the boundary of #(P in H), exact."""
    if not P:
        return 0
    pts = [as_point(p) for p in P]
    x = as_point(x)
    d = len(x)
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError("mixed point dimensions")
    diffs = [tuple(xc - pc for xc, pc in zip(x, p)) for p in pts]
    worst, _ = _max_strict(diffs, d)
    return len(pts) - worst


def _spanned_hyperplanes(pts: list[Point], d: int):
    """Distinct hyperplanes through d affinely independent points of pts."""
    seen = {}
    for sub in itertools.combinations(range(len(pts)), d):
        base = pts[sub[0]]
        rows = [
            scale_to_int(tuple(pc - bc for pc, bc in zip(pts[i], base)))
            for i in sub[1:]
        ]
        normal = cofactor_direction(rows, d)
        if all(c == 0 for c in normal):
            continue
        offset = dot(tuple(Fraction(c) for c in normal), base)
        key_vec = scale_to_int(tuple(Fraction(c) for c in normal) + (offset,))
        g = 0
        for v in key_vec:
            g = math.gcd(g, abs(v))
        key_vec = tuple(v // (g or 1) for v in key_vec)
        lead = next(v for v in key_vec if v != 0)
        if lead < 0:
            key_vec = tuple(-v for v in key_vec)
        seen[key_vec] = (key_vec[:-1], key_vec[-1])
    return list(seen.values())


def discrete_centerpoint(P: Sequence[Point], candidate_limit: int = 200_000) -> Point:
    """A Tukey-depth-maximizing point of a finite point set.

    Exact for desk-scale inputs: the maximizing region is bounded by
    hyperplanes through d points of P, so its vertices are intersections of
    d such hyperplanes and the maximum is attained among those candidates
    (plus the points themselves).  When the candidate count would exceed
    ``candidate_limit`` the search runs on a deterministic subsample, which
    makes the result heuristic; callers certify downstream.

    Ties break by least squared norm, then lexicographically.
    """
    pts = [as_point(p) for p in P]
    if not pts:
        raise ValueError("centerpoint of an empty set")
    d = len(pts[0])
    n = len(pts)
    if n == 1:
        return pts[0]
    if d == 1:
        vals = sorted(p[0] for p in pts)
        return (vals[(n - 1) // 2],)

    hps = _spanned_hyperplanes(pts, d)
    n_candidates = 1
    for k in range(d):
        n_candidates = n_candidates * max(len(hps) - k, 1) // (k + 1)
    target = max(d + 1, (2 * n) // 3)
    if n_candidates > candidate_limit and target < n:
        ordered = sorted(pts)
        keep = sorted({round(i * (n - 1) / (target - 1)) for i in range(target)})
        return discrete_centerpoint([ordered[i] for i in keep], candidate_limit)

    candidates = set(pts)
    for sub in itertools.combinations(range(len(hps)), d):
        sol = solve_int_square([hps[i][0] for i in sub], [hps[i][1] for i in sub])
        if sol is None:
            continue
        nums, den = sol
        candidates.add(tuple(Fraction(v, den) for v in nums))

    ordered = [(c, None) for c in sorted(candidates)]
    if len(ordered) > 400:
        ordered = _screen_candidates([c for c, _ in ordered], pts, hps)

    best = None
    for c, upper in ordered:
        if best is not None and upper is not None and upper < -best[0][0]:
            break  # upper bounds only decrease from here on
        depth = tukey_depth(pts, c)
        norm2 = dot(c, c)
        key = (-depth, norm2, c)
        if best is None or key < best[0]:
            best = (key, c)
    return best[1]


def _screen_candidates(candidates, pts, hps, cap: int = 600):
    """Float upper-bound screen on Tukey depth to cut exact evaluations.

    For each candidate c the depth is at most the side count along any
    spanned-hyperplane normal (both signs); a small tolerance makes the
    float count an over-estimate.  Candidates come back ordered by
    decreasing bound (ties in input order) so the exact loop can stop as
    soon as the bound falls below the best exact depth seen.  The cap can
    in principle truncate a long run of ties, which is heuristic territory
    the callers already accept.
    """
    tol = 1e-9
    cand = np.array([[float(v) for v in p] for p in candidates])
    pa = np.array([[float(v) for v in p] for p in pts])
    vs = np.array([[float(v) for v in h[0]] for h in hps])
    norms = np.linalg.norm(vs, axis=1, keepdims=True)
    vs = vs / np.where(norms == 0.0, 1.0, norms)
    pv = pa @ vs.T  # (n, m)
    upper = np.empty(len(candidates))
    block = 4096
    for s in range(0, len(candidates), block):
        cv = cand[s : s + block] @ vs.T  # (B, m)
        diff = pv[np.newaxis, :, :] - cv[:, np.newaxis, :]  # (B, n, m)
        plus = (diff >= -tol).sum(axis=1)
        minus = (diff <= tol).sum(axis=1)
        upper[s : s + block] = np.minimum(plus, minus).min(axis=1)
    order = np.argsort(-upper, kind="stable")[:cap]
    return [(candidates[i], int(upper[i])) for i in order.tolist()]
