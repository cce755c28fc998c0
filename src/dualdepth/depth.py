"""Ray-crossing depth of points against hyperplane families, exactly.

The depth of x against a family F is the minimum over directions u of the
number of hyperplanes met by the ray x + t*u (t >= 0).  A hyperplane through
x is met by every ray (the crossing at t = 0 counts); a hyperplane parallel
to the ray and not through x is never met.  This makes the depth a function
of the arrangement face containing x alone.

One exact combinatorial search does the heavy lifting, over the edge
directions of ``_edge_blocks``: ``_hemisphere_ints`` minimizes the number of
strictly-positive inner products over all directions.  The count can only
drop when a direction moves to a lower-dimensional face of the central
arrangement {u : w_i . u = 0}, so the minimum is attained on a minimal face:
either the common null space (count 0) or an edge spanned by the null space
of d-1 of the vectors.  Enumerating those edges is exact and complete.

A depth query runs in integers, on the instance's row array.  The point is
written x = X / L with X integer and L > 0 the lcm of its denominators, and
each hyperplane in its integer form a . y = b (``Instance.row_array``), a
positive multiple of the rational one, so sign(a . X - b L) is the side of
x, one product of the rows with (X, -L); ``signature_of`` returns those
signs as a tuple.  ``dual_depth`` counts the zeros, the hyperplanes through
x, and adds the hemisphere count of the integer normals
(``Instance.normal_ints``) of the others, negated by side.  The edge
directions' products with those normals are float64 where their bound
proves them exact (``_edge_blocks``), and the counts are float32 0/1
products, exact because a count is at most n.

Depth maximization enumerates only arrangement vertices: moving from any
face into an incident face with a larger containment set gains one crossing
per new containment and loses at most one from the hemisphere term, so for
a general-position family with n >= d the maximum is attained at a vertex.
The count along any one edge direction is the number of hyperplanes met by
one ray from the vertex, so it bounds the vertex's depth (the minimum over
all rays) from above, and so does the minimum over a few probe directions.
``max_depth_point`` takes that bound for every vertex and runs the full
count over all edge directions and their negations, one product with one
± table, only where the bound reaches the best exact depth found so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry
from .geometry import (
    DimensionMismatchError,
    Direction,
    Instance,
    Point,
    ZeroDirectionError,
    as_point,
    checked_vertex_blocks,
    cofactor_blocks,
    ensure_general_position,
    fraction_nullspace,
    scale_to_int,
    solve_underdetermined,
)


# Edge directions whose counts bound each vertex's depth in ``max_depth_point``.
_PROBES = 64


def _unit(dim: int) -> Direction:
    return tuple(Fraction(int(i == 0)) for i in range(dim))


# ---------------------------------------------------------------------------
# Direction-space searches
# ---------------------------------------------------------------------------

def _edge_blocks(A: np.ndarray, max_abs: int):
    """Edge directions of the central arrangement {u : v . u = 0, v a row of A}.

    ``A`` is an (m, dim) integer array whose entries are at most
    ``max_abs`` in absolute value.  Yields ``(dirs, D)`` over the
    (dim-1)-subsets of its rows in combinations order, in the blocks of
    ``cofactor_blocks``: ``dirs`` holds the nonzero cofactor directions (a
    rank-deficient subset's edge shows up elsewhere) and ``D = dirs @ A.T``
    their exact products with every row.  D is at most dim! * max_abs^dim,
    and below ``_FLOAT_SAFE`` it is a float64 product holding the same
    integers.
    """
    dim = A.shape[1]
    A = A.astype(geometry._exact_dtype(max_abs, dim), copy=False)
    exact_float = geometry._stage_bound(max_abs, dim) < geometry._FLOAT_SAFE
    At = A.T.astype(np.float64) if exact_float else A.T
    for _, dirs in cofactor_blocks(A):
        nonzero = (dirs != 0).any(axis=1)
        if not nonzero.all():
            dirs = dirs[nonzero]
        yield dirs, (dirs.astype(np.float64) if exact_float else dirs) @ At


def _hemisphere_ints(W: np.ndarray, max_abs: int):
    """Exact min over directions u != 0 of #{w : w . u > 0}, with a witness.

    Takes an (m, dim) array of nonzero integer vectors, each entry at most
    ``max_abs`` in absolute value, and does not check them.  No vectors
    give (0, e_1).
    """
    m, dim = W.shape
    ones = np.ones(m, dtype=np.float32)
    best = None
    witness = None
    for dirs, D in _edge_blocks(W, max_abs):
        if not len(dirs):
            continue
        if best is None and not (D[0] != 0).any():
            # an edge orthogonal to every vector: they span less than R^dim,
            # and a full-rank family has no such edge
            break
        # counts in (pos_0, neg_0, pos_1, ...) order, as 0/1 products in
        # float32 (exact: counts are <= m); the first minimum wins
        signs = np.empty((len(D), 2, m), dtype=np.float32)
        np.greater(D, 0, out=signs[:, 0])
        np.less(D, 0, out=signs[:, 1])
        counts = signs.reshape(-1, m) @ ones
        k = int(counts.argmin())
        if best is None or counts[k] < best:
            best = int(counts[k])
            witness = [c if k % 2 == 0 else -c for c in dirs[k // 2].tolist()]
        if best == 0:
            break
    if best is None:
        # positive row scalings leave the reduced row echelon form, and so
        # this basis, as it is for the rational vectors
        return 0, fraction_nullspace(W.tolist(), dim)[0]
    return best, tuple(Fraction(c) for c in witness)


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
    # a hyperplane through x is crossed at t = 0; any other one when u
    # points from x's side s towards it, that is when s * (a . u) < 0
    U = scale_to_int(u)
    return sum(
        1 for s, a in zip(signature_of(F, x), F.scaled()[0])
        if s == 0 or s * sum(p * q for p, q in zip(a, U)) < 0
    )


def _sides(F: Instance, x: Point) -> np.ndarray:
    """The side of x, sign(a . x - b), of every hyperplane a . y = b of F, as an int64 array."""
    if len(x) != F.dim:
        raise DimensionMismatchError("point dimension mismatch")
    # x = X / L with X integer and L > 0; each integer hyperplane a . y = b
    # is a positive multiple of the rational one, so sign(a . X - b L) is
    # the side of x, one product of the rows with (X, -L)
    L = math.lcm(*(c.denominator for c in x))
    v = [c.numerator * (L // c.denominator) for c in x] + [-L]
    A, max_abs = F.row_array()
    dtype = np.int64 if max(max_abs, 1) * sum(map(abs, v)) < geometry._NUMPY_SAFE else object
    P = A.astype(dtype, copy=False) @ np.array(v, dtype=dtype)
    return (P > 0).astype(np.int64) - (P < 0)


def signature_of(F: Instance, x: Point) -> tuple[int, ...]:
    return tuple(_sides(F, as_point(x)).tolist())


def dual_depth(F: Instance, x: Point):
    """Minimum ray crossings over all directions, with a witness direction."""
    s = _sides(F, as_point(x))
    off = s != 0
    # the normals of the hyperplanes off x, each turned away from x's side
    N, max_abs = F.normal_ints()
    W = N[off] * -s[off, np.newaxis]
    hemi, witness = _hemisphere_ints(W, max_abs)
    return len(s) - len(W) + hemi, witness


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


def max_depth_point(F: Instance) -> DepthCertificate:
    """Exact global maximizer of dual_depth over R^d.

    Requires general position.  Ties between maximizing vertices break to
    the lexicographically smallest exact point; a vertex's witness is the
    first direction of least count on the side (pos or neg) whose least
    count is smaller, pos on a tie.

    One pass over the vertex table both checks general position and
    searches.  Every count is a product with one ± table, whose columns
    are the rays along each edge direction and then along its negation, so
    the first least column is the witness.  The counts along ``_PROBES``
    evenly spread edge directions bound each vertex's depth from above, and
    only vertices whose bound reaches the best exact depth known so far get
    the full count product, in chunks of vertices that keep the product
    within the kernels' entry budget.  A pruned vertex is strictly
    shallower than a vertex already found, so neither the winner nor its
    witness can change.
    """
    n, d = F.n, F.dim
    bound = (n + d) // (d + 1)

    if n < d:
        ensure_general_position(F)
        # all hyperplanes pass through a common flat; depth there is n,
        # and no face can beat containment of the whole family.  With no
        # hyperplanes at all that flat is R^d; take its origin.
        # scaling a row of the system by a positive integer leaves its
        # reduced row echelon form, and so the point, as it is
        rows, rhs = F.scaled()
        point = solve_underdetermined(rows, rhs) if rows else (Fraction(0),) * d
        return DepthCertificate(point, n, _unit(d), bound, n >= bound)

    normals = F.row_array()[0][:, :d]
    blocks = list(_edge_blocks(normals, int(np.abs(normals).max())))
    dirs = np.concatenate([b[0] for b in blocks])
    S = np.concatenate([b[1] for b in blocks])
    E = len(dirs)
    # hyperplane i counts for the ray along u from a vertex on side s_i when
    # s_i * (a_i . u) > 0; column j counts the ray along dirs[j] and E + j
    # along -dirs[j], as 0/1 products in float32 (exact: counts are <= n)
    table = np.block([[S > 0, S < 0], [S < 0, S > 0]]).astype(np.float32).T
    probes = np.arange(_PROBES) * E // _PROBES if E > _PROBES else np.arange(E)
    probed = table[:, np.concatenate([probes, E + probes])]

    best_depth = -1
    best_point: Optional[Point] = None
    best_witness: Optional[Direction] = None
    # vertices per full count product, within the kernels' entry budget
    chunk = max(1, geometry._BUDGET // max(1, 2 * E))
    for _, nums, den, R in checked_vertex_blocks(F):
        sides = np.empty((len(R), 2 * n), dtype=np.float32)
        np.greater(R, 0, out=sides[:, :n])
        np.less(R, 0, out=sides[:, n:])
        # least count over the probes, an upper bound on the depth
        reach = d + (sides @ probed).min(axis=1).astype(np.int64)
        r = int(reach.argmax())
        if reach[r] < best_depth:
            continue
        # the vertex of largest bound attains its full count, so anything
        # bounded below that goes too
        kept = np.flatnonzero(reach >= max(best_depth, d + int((sides[r] @ table).min())))
        for lo in range(0, len(kept), chunk):
            keep = kept[lo:lo + chunk]
            counts = sides[keep] @ table
            depth = d + counts.min(axis=1).astype(np.int64)
            top = int(depth.max())
            if top < best_depth:
                continue
            points = {
                int(v): tuple(Fraction(c, int(den[keep[v]])) for c in nums[keep[v]].tolist())
                for v in np.flatnonzero(depth == top)
            }
            v = min(points, key=points.__getitem__)
            if top == best_depth and not points[v] < best_point:
                continue
            best_depth = top
            best_point = points[v]
            # the first least column: a pos count wins a tie with a neg one
            j = int(counts[v].argmin())
            best_witness = tuple(Fraction(c if j < E else -c) for c in dirs[j % E].tolist())
    return DepthCertificate(best_point, best_depth, best_witness, bound, best_depth >= bound)
