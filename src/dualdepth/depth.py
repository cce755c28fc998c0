"""Ray-crossing depth of points against hyperplane families, exactly.

The depth of x against a family F is the minimum over directions u of the
number of hyperplanes met by the ray x + t*u (t >= 0).  A hyperplane through
x is met by every ray (the crossing at t = 0 counts); a hyperplane parallel
to the ray and not through x is never met.  This makes the depth a function
of the arrangement face containing x alone.

Two exact combinatorial searches do the heavy lifting, both over the edge
directions of ``_edge_blocks``:

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
    dot,
    ensure_general_position,
    exact_int_array,
    fraction_nullspace,
    primitive,
    rref,
    scale_to_int,
    solve_underdetermined,
    stacked_cofactors,
    subset_blocks,
    vertex_blocks,
)


def _unit(dim: int) -> Direction:
    return tuple(Fraction(int(i == 0)) for i in range(dim))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Direction-space searches
# ---------------------------------------------------------------------------

def _edge_blocks(ints: list[tuple[int, ...]], dim: int):
    """Edge directions of the central arrangement {u : v . u = 0, v in ints}.

    Yields ``(dirs, D)`` over the (dim-1)-subsets of ``ints`` in
    combinations order, in blocks: ``dirs`` holds the nonzero cofactor
    directions (a rank-deficient subset's edge shows up elsewhere) and
    ``D = dirs @ A.T`` their exact products with every vector.
    """
    A = exact_int_array(ints, dim)
    for subsets in subset_blocks(len(ints), dim - 1):
        dirs = stacked_cofactors(A[subsets])
        dirs = dirs[(dirs != 0).any(axis=1)]
        yield dirs, dirs @ A.T


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

    best = None
    witness = None
    for dirs, D in _edge_blocks([scale_to_int(v) for v in vecs], dim):
        if not len(dirs):
            continue
        if best is None and not (D[0] != 0).any():
            # an edge orthogonal to every vector: they span less than R^dim,
            # and a full-rank family has no such edge
            break
        # counts in (pos_0, neg_0, pos_1, ...) order; the first minimum wins
        counts = np.stack([(D > 0).sum(axis=1), (D < 0).sum(axis=1)], axis=1).ravel()
        k = int(counts.argmin())
        if best is None or counts[k] < best:
            best = int(counts[k])
            witness = [c if k % 2 == 0 else -c for c in dirs[k // 2].tolist()]
        if best == 0:
            break
    if best is None:
        return 0, fraction_nullspace(vecs, dim)[0]
    return best, tuple(Fraction(c) for c in witness)


def _max_strict(vecs: list[tuple[Fraction, ...]], dim: int):
    """Exact max over u != 0 of #{v : v . u > 0}; zero vectors are ignored.

    Signs of v . u are invariant under positive scaling of each v, so the
    vectors are integer-scaled once and all arithmetic below runs on ints.
    """
    ints = [scale_to_int(v) for v in vecs if any(c != 0 for c in v)]
    if not ints:
        return 0, _unit(dim)
    # reduce to the span of the vectors: u only matters through v . u; the
    # pivot columns of the transposed vectors are the first basis among them
    _, basis_idx = rref(list(zip(*ints)), len(ints))
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
    best = -1
    witness = None
    m = len(ints)
    for dirs, D in _edge_blocks(ints, dim):
        pos = (D > 0).sum(axis=1).tolist()
        neg = (D < 0).sum(axis=1).tolist()
        zeros = (D == 0).sum(axis=1).tolist()
        for j, edge in enumerate(dirs.tolist()):
            for sgn, base in ((1, pos[j]), (-1, neg[j])):
                u0 = edge if sgn == 1 else [-c for c in edge]
                if not zeros[j]:
                    if base > best:
                        best = base
                        witness = tuple(Fraction(c) for c in u0)
                    continue
                if base + zeros[j] <= best:
                    continue
                # vectors vanishing at u0 are orthogonal to it; resolve them
                # one dimension down and perturb the edge into the best cell
                vals = [sgn * t for t in D[j].tolist()]
                extra, z = _max_strict([v for v, t in zip(ints, vals) if t == 0], dim)
                total = base + extra
                if total <= best:
                    continue
                u0f = tuple(Fraction(c) for c in u0)
                if extra == 0:
                    best, witness = total, u0f
                    continue
                # perturb along z, small enough to keep every strict sign
                delta = None
                for v, t in zip(ints, vals):
                    if t == 0:
                        continue
                    vz = dot(v, z)
                    if vz != 0:
                        cap = Fraction(abs(t)) / abs(vz)
                        delta = cap if delta is None else min(delta, cap)
                delta = (delta / 2) if delta is not None else Fraction(1)
                u = tuple(a + delta * b for a, b in zip(u0f, z))
                best, witness = total, u
            if best == m:
                return best, witness
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


def _first_min(counts: np.ndarray):
    """Column of the first least entry of each row, and that entry."""
    j = counts.argmin(axis=1)
    return j, counts[np.arange(len(j)), j]


def max_depth_point(F: Instance) -> DepthCertificate:
    """Exact global maximizer of dual_depth over R^d.

    Requires general position.  Ties between maximizing vertices break to
    the lexicographically smallest exact point; a vertex's witness is the
    first direction of least count on the side (pos or neg) whose least
    count is smaller, pos on a tie.
    """
    ensure_general_position(F)
    n, d = F.n, F.dim
    bound = (n + d) // (d + 1)

    if n < d:
        # all hyperplanes pass through a common flat; depth there is n,
        # and no face can beat containment of the whole family.  With no
        # hyperplanes at all that flat is R^d; take its origin.
        rows = [h.normal for h in F.hyperplanes]
        rhs = [h.offset for h in F.hyperplanes]
        point = solve_underdetermined(rows, rhs) if rows else (Fraction(0),) * d
        return DepthCertificate(point, n, _unit(d), bound, n >= bound)

    normals, offsets = F.scaled()
    blocks = list(_edge_blocks(normals, d))
    dirs = np.concatenate([b[0] for b in blocks])
    S = np.concatenate([b[1] for b in blocks])
    # hyperplane i counts for direction j from a vertex on side s_i when
    # s_i * S[j, i] > 0: pos = P.Sp^T + N.Sn^T, neg = P.Sn^T + N.Sp^T,
    # as 0/1 products in float32 (exact: every count is at most n)
    same = np.concatenate([S > 0, S < 0], axis=1).astype(np.float32).T
    opposite = np.concatenate([S < 0, S > 0], axis=1).astype(np.float32).T

    best_depth = -1
    best_point: Optional[Point] = None
    best_witness: Optional[Direction] = None
    for _, nums, den, R in vertex_blocks(normals, offsets):
        sides = np.concatenate([R > 0, R < 0], axis=1).astype(np.float32)
        jp, least_pos = _first_min(sides @ same)
        jn, least_neg = _first_min(sides @ opposite)
        use_pos = least_pos <= least_neg
        depth = d + np.where(use_pos, least_pos, least_neg).astype(np.int64)
        top = int(depth.max())
        if top < best_depth:
            continue
        points = {
            int(v): tuple(Fraction(c, int(den[v])) for c in nums[v].tolist())
            for v in np.flatnonzero(depth == top)
        }
        v = min(points, key=points.__getitem__)
        if top == best_depth and not points[v] < best_point:
            continue
        best_depth = top
        best_point = points[v]
        flip, j = (1, jp[v]) if use_pos[v] else (-1, jn[v])
        best_witness = tuple(Fraction(flip * c) for c in dirs[j].tolist())
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
    """Distinct hyperplanes through d affinely independent points of pts.

    The hyperplane through d points is the cofactor vector c of their rows
    (L*p, L), L the lcm of every coordinate denominator: c[:d] . p = -c[d]
    on each of them, and c = 0 exactly when they are affinely dependent.
    Each comes back as a primitive integer pair (normal, offset), in the
    order of its first d-subset.
    """
    L = math.lcm(*(c.denominator for p in pts for c in p))
    rows = exact_int_array([tuple(int(c * L) for c in p) + (L,) for p in pts], d + 1)
    seen = {}
    for subsets in subset_blocks(len(pts), d):
        for cof in stacked_cofactors(rows[subsets]).tolist():
            if any(cof):
                seen.setdefault(primitive(cof[:d] + [-cof[d]]), None)
    return [(key[:-1], key[-1]) for key in seen]


def _candidates(pts: list[Point], hps) -> set[Point]:
    """The points and every common point of d spanned hyperplanes."""
    candidates = set(pts)
    if len(hps) >= len(pts[0]):
        for _, nums, den, _ in vertex_blocks(*zip(*hps)):
            for row, q in zip(nums.tolist(), den.tolist()):
                if q:
                    candidates.add(tuple(Fraction(v, q) for v in row))
    return candidates


# spanned-hyperplane d-subsets past which the centerpoint search subsamples
_CANDIDATE_LIMIT = 200_000
# candidates kept by the float screen
_SCREEN_CAP = 600


def discrete_centerpoint(P: Sequence[Point]) -> Point:
    """A Tukey-depth-maximizing point of a finite point set.

    Exact for desk-scale inputs: the maximizing region is bounded by
    hyperplanes through d points of P, so its vertices are intersections of
    d such hyperplanes and the maximum is attained among those candidates
    (plus the points themselves).  When the candidate count would exceed
    ``_CANDIDATE_LIMIT`` the search runs on a deterministic subsample, which
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
    n_candidates = math.comb(len(hps), d)
    target = max(d + 1, (2 * n) // 3)
    if n_candidates > _CANDIDATE_LIMIT and target < n:
        ordered = sorted(pts)
        keep = sorted({round(i * (n - 1) / (target - 1)) for i in range(target)})
        return discrete_centerpoint([ordered[i] for i in keep])

    ordered = [(c, None) for c in sorted(_candidates(pts, hps))]
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


def _screen_candidates(candidates, pts, hps):
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
    # side counts are invariant under one positive scale of all points and
    # under a positive scale of each normal: scale exactly to entries of at
    # most 1 before going to floats, so nothing overflows and the tolerance
    # is relative to the data
    scale = max(abs(v) for p in itertools.chain(pts, candidates) for v in p) or 1
    cand = np.array([[float(v / scale) for v in p] for p in candidates])
    pa = np.array([[float(v / scale) for v in p] for p in pts])
    vs = np.array([
        [float(Fraction(c, max(abs(x) for x in normal))) for c in normal]
        for normal, _ in hps
    ])
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    pv = pa @ vs.T  # (n, m)
    upper = np.empty(len(candidates))
    block = 4096
    for s in range(0, len(candidates), block):
        cv = cand[s : s + block] @ vs.T  # (B, m)
        diff = pv[np.newaxis, :, :] - cv[:, np.newaxis, :]  # (B, n, m)
        plus = (diff >= -tol).sum(axis=1)
        minus = (diff <= tol).sum(axis=1)
        upper[s : s + block] = np.minimum(plus, minus).min(axis=1)
    order = np.argsort(-upper, kind="stable")[:_SCREEN_CAP]
    return [(candidates[i], int(upper[i])) for i in order.tolist()]
