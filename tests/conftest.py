"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own search code paths:
depth is re-derived from mass direction sampling in integer arithmetic,
partitions are enumerated by a second, separately written generator, and LP
infeasibility is re-proved by exhaustive constraint-vertex enumeration.  The
margin LP is re-solved by a Fraction simplex and by a Fraction vertex
enumeration.  Instance files are re-read by a parse that builds a Fraction
per scalar and a Hyperplane per row.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

# The count products and the center polish are small matrix products that
# slow down many times over when BLAS threads contend with a parallel test
# process; pin one thread before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dualdepth import (  # noqa: E402
    DepthCertificate,
    GeneralPositionResult,
    Hyperplane,
    Instance,
    PartitionResult,
    common_interior_point,
    ensure_general_position,
    form_simplex,
    max_depth_point,
)
from dualdepth.depth import _edge_blocks  # noqa: E402
from dualdepth.geometry import (  # noqa: E402
    DegenerateSubfamilyError,
    DimensionMismatchError,
    _exact_dtype,
    check_general_position,
    fraction_nullspace,
    fraction_rank,
    scale_to_int,
    vertex_blocks,
)
from dualdepth.io import FORMAT_VERSION, _KNOWN_FIELDS, ParseError, _exponent_digits  # noqa: E402
from dualdepth.measures import FlatMeasureSpec, sphere_covering  # noqa: E402
from dualdepth.tverberg import _angle_cmp, _is_prime_power  # noqa: E402


# ---------------------------------------------------------------------------
# Rational predicates on the Hyperplane view, independent of the integer rows
# ---------------------------------------------------------------------------

def dot(a, b):
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def side_of(h: Hyperplane, x) -> int:
    """Sign of normal . x - offset: which side of h the point lies on."""
    return _sign(dot(h.normal, x) - h.offset)


# ---------------------------------------------------------------------------
# Single-system integer solves (Bareiss determinants, Cramer's rule): the
# references the batched cofactor kernels are checked against.
# ---------------------------------------------------------------------------

def int_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_int_square(rows, rhs):
    """Solve an integer d x d system exactly.

    Returns ``(numerators, denominator)`` with denominator > 0, or ``None``
    when the matrix is singular.  Solution coordinates are numerators[i]/den.
    """
    d = len(rows)
    det = int_det(rows)
    if det == 0:
        return None
    nums = []
    for j in range(d):
        col = [list(r) for r in rows]
        for i in range(d):
            col[i][j] = rhs[i]
        nums.append(int_det(col))
    if det < 0:
        det = -det
        nums = [-x for x in nums]
    return tuple(nums), det


def cofactor_direction(rows, dim: int) -> tuple[int, ...]:
    """Vector orthogonal to d-1 integer row vectors (generalized cross product).

    Component j is the signed maximal minor omitting column j.  The result is
    the zero vector exactly when the rows have rank < d-1.
    """
    if len(rows) != dim - 1:
        raise DimensionMismatchError("cofactor_direction needs d-1 rows")
    out = []
    for j in range(dim):
        minor = [[r[c] for c in range(dim) if c != j] for r in rows]
        out.append((-1) ** j * int_det(minor))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact LP references for max c.x subject to A x <= b: a two-phase simplex
# on Fraction arithmetic with Bland's rule, and an enumeration of every
# basic solution by Cramer's rule.
# ---------------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]


def _run(rows, rhs, obj, basis, allowed) -> str:
    """Pivot until optimal or unbounded.  Bland's rule on column and row."""
    while True:
        enter = next((j for j in allowed if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best_ratio = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = rhs[i] / row[enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(rows, rhs, obj, basis, leave, enter)


def _pivot(rows, rhs, obj, basis, r, c):
    pv = rows[r][c]
    rows[r] = [v / pv for v in rows[r]]
    rhs[r] = rhs[r] / pv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - f * rhs[r]
    f = obj[c]
    if f != 0:
        for j in range(len(rows[r])):
            obj[j] = obj[j] - f * rows[r][j]
        obj[-1] = obj[-1] - f * rhs[r]
    basis[r] = c


def _solve_standard(c, A, b) -> LPResult:
    """Maximize c.y subject to A y <= b, y >= 0."""
    m, n = len(A), len(c)
    n_slack = m
    art_cols: list[int] = []
    rows, rhs, basis = [], [], []
    for i in range(m):
        row = list(A[i]) + [Fraction(0)] * n_slack
        bi = b[i]
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
            row[n + i] = Fraction(-1)
            art_cols.append(n + n_slack + len(art_cols))
            basis.append(art_cols[-1])
        else:
            row[n + i] = Fraction(1)
            basis.append(n + i)
        rows.append(row)
        rhs.append(bi)
    n_art = len(art_cols)
    total = n + n_slack + n_art
    for i in range(m):
        rows[i] = rows[i] + [Fraction(0)] * n_art
        if basis[i] >= n + n_slack:
            rows[i][basis[i]] = Fraction(1)

    if n_art:
        obj = [Fraction(0)] * total + [Fraction(0)]
        for j in art_cols:
            obj[j] = Fraction(1)
        for i in range(m):
            if basis[i] in art_cols:
                obj = [a - p for a, p in zip(obj, rows[i] + [rhs[i]])]
        status = _run(rows, rhs, obj, basis, range(total))
        if status != OPTIMAL:
            raise RuntimeError(f"phase 1 ended {status}, but it is bounded below by 0")
        if obj[-1] != 0:
            return LPResult(INFEASIBLE, None, None)
        # drive leftover artificials out of the basis
        keep = []
        for i in range(m):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(n + n_slack) if rows[i][j] != 0), None
                )
                if col is None:
                    continue  # redundant row
                _pivot(rows, rhs, obj, basis, i, col)
            keep.append(i)
        rows = [rows[i][: n + n_slack] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
        total = n + n_slack

    obj = [Fraction(0)] * total + [Fraction(0)]
    for j in range(n):
        obj[j] = -c[j]
    for i in range(len(rows)):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * p for a, p in zip(obj, rows[i] + [rhs[i]])]
    status = _run(rows, rhs, obj, basis, range(total))
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = rhs[i]
    return LPResult(OPTIMAL, tuple(x), obj[-1])


def simplex_reference(c, A, b) -> LPResult:
    """Maximize c.x subject to A x <= b with x free, split as x = u - v."""
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    n = len(c)
    res = _solve_standard(c + [-v for v in c], [row + [-v for v in row] for row in A],
                          [Fraction(v) for v in b])
    if res.status != OPTIMAL:
        return res
    return LPResult(OPTIMAL, tuple(res.x[j] - res.x[n + j] for j in range(n)), res.value)


def vertex_reference(c, A, b):
    """(optimum, lexicographically least optimal vertex) of max c.x st A x <= b.

    Solves every len(c)-subset of rows by Cramer's rule and keeps the
    feasible points; None when no basic solution is feasible.  Exact for a
    bounded LP whose matrix has full column rank.
    """
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    ints = [scale_to_int(row + [bi]) for row, bi in zip(A, b)]
    best = None
    for sub in itertools.combinations(range(len(A)), len(c)):
        sol = solve_int_square([ints[i][:-1] for i in sub], [ints[i][-1] for i in sub])
        if sol is None:
            continue
        x = tuple(Fraction(v, sol[1]) for v in sol[0])
        if all(sum(a * v for a, v in zip(row, x)) <= bi for row, bi in zip(A, b)):
            key = (-sum(a * v for a, v in zip(c, x)), x)
            best = key if best is None or key < best else best
    return None if best is None else (-best[0], best[1])


def margin_rows(facets):
    """The integer rows of the max-slack LP that ``_max_slack`` takes: each
    inward facet's (-normal, 1, offset) scaled to integers."""
    return [scale_to_int([-v for v in normal] + [Fraction(1), offset]) for normal, offset in facets]


def exact_dtype_of(rows) -> np.dtype:
    """The dtype the batched kernels run integer ``rows`` in.

    ``_exact_dtype`` of their largest |entry|, as ``_max_slack`` picks it.
    """
    return np.dtype(_exact_dtype(max(abs(c) for r in rows for c in r), len(rows[0])))


def margin_lp(facets):
    """The max-slack LP of inward facets: maximize e st normal . x >= offset + e."""
    d = len(facets[0][0])
    A = [[-v for v in normal] + [Fraction(1)] for normal, _ in facets]
    return [Fraction(0)] * d + [Fraction(1)], A, [-offset for _, offset in facets]


def int_rows(F: Instance):
    """F's integer rows as Python ints: the normals as tuples, and the offsets."""
    rows = F.row_array()[0].tolist()
    return [tuple(r[:-1]) for r in rows], [r[-1] for r in rows]


@pytest.fixture
def triangle() -> Instance:
    """The lines x1 = 0, x2 = 0, x1 + x2 = 1 bounding the standard triangle."""
    return Instance(
        2,
        [
            Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
            Hyperplane((Fraction(0), Fraction(1)), Fraction(0)),
            Hyperplane((Fraction(1), Fraction(1)), Fraction(1)),
        ],
    )


def sampled_depth_oracle(F: Instance, x, n_dirs: int, seed: int) -> int:
    """Minimum ray-crossing count over many random directions, exactly.

    Directions are random nonzero integer vectors and the point is cleared
    of denominators, so every sign below is computed exactly: in int64
    (bounds small enough that no overflow is possible), and the projections
    in float64 where no partial sum can reach 2**53.  The
    result is an upper bound on the true depth; equality against the exact
    algorithm is what the calling tests assert.
    """
    d = F.dim
    normals, offsets = int_rows(F)
    N = np.array(normals, dtype=np.int64)
    off = np.array(offsets, dtype=np.int64)

    den = 1
    for c in x:
        c = Fraction(c)
        den = den * c.denominator // math.gcd(den, c.denominator)
    xnum = np.array([int(Fraction(c) * den) for c in x], dtype=np.int64)

    r = off * den - N @ xnum
    contained = int((r == 0).sum())
    s = np.sign(r)

    rng = np.random.default_rng(seed)
    U = rng.integers(-999, 1000, size=(n_dirs, d), dtype=np.int64)
    U = U[np.any(U != 0, axis=1)]
    # One row per hyperplane, one column per direction.  Every partial sum
    # of a projection is at most max|U| * max_i sum_j |N_ij| in magnitude;
    # below 2**53 the float64 product is exact, and BLAS computes it.
    toward = N * s[:, np.newaxis]  # zero rows for contained hyperplanes
    bound = 999 * int(np.abs(N).sum(axis=1).max(initial=0))
    if bound < 2**53:
        proj = toward.astype(float) @ U.T.astype(float)
    else:
        assert bound < 2**63, "the int64 product could overflow"
        proj = toward @ U.T
    return int(np.count_nonzero(proj > 0, axis=0).min()) + contained


def enumerate_partitions_oracle(indices, group_size):
    """Unordered partitions into equal groups, written independently.

    Iterative worklist formulation (the library uses a recursive generator):
    each state is (remaining sorted indices, groups so far); the smallest
    remaining index always leads the next group, which yields each unordered
    partition exactly once in lexicographic order of the group lists.
    """
    stack = [(tuple(sorted(indices)), ())]
    out = []
    while stack:
        remaining, groups = stack.pop()
        if not remaining:
            out.append(groups)
            continue
        head, rest = remaining[0], remaining[1:]
        for tail in itertools.combinations(rest, group_size - 1):
            group = (head,) + tail
            left = tuple(i for i in rest if i not in tail)
            stack.append((left, groups + (group,)))
    return sorted(out)


def strict_partitions_oracle(F: Instance, n: int):
    """All partitions admitting a strict common interior point, in lex order."""
    from dualdepth import form_simplex

    d = F.dim
    found = []
    for part in enumerate_partitions_oracle(range(F.n), d + 1):
        res = common_interior_point([form_simplex(F, g) for g in part])
        if res is not None and res[1] > 0:
            found.append(part)
    return found


def closed_feasible_by_vertex_enumeration(simplices) -> bool:
    """Does the intersection of the simplices contain any point at all?

    Exhaustive oracle: the intersection is bounded (each simplex is), so if
    nonempty it has an extreme point lying on d of the facet hyperplanes.
    Every d-subset of facets is solved exactly and the solution tested
    against all constraints.
    """
    d = simplices[0].dim
    cons = [(normal, offset) for s in simplices for normal, offset in s.facets]

    def satisfies(p):
        return all(
            sum(a * b for a, b in zip(normal, p)) >= offset
            for normal, offset in cons
        )

    for sub in itertools.combinations(range(len(cons)), d):
        rows, rhs = [], []
        for i in sub:
            normal, offset = cons[i]
            den = 1
            for v in tuple(normal) + (offset,):
                den = den * v.denominator // math.gcd(den, v.denominator)
            rows.append([int(v * den) for v in normal])
            rhs.append(int(offset * den))
        sol = solve_int_square(rows, rhs)
        if sol is None:
            continue
        nums, den = sol
        p = tuple(Fraction(v, den) for v in nums)
        if satisfies(p):
            return True
    return False


# ---------------------------------------------------------------------------
# Reference loops for the batched exact kernels: one exact solve per vertex
# and one Python dot loop per edge direction, with the kernels' tie rules.
# ---------------------------------------------------------------------------

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _edge_directions(ints, dim):
    dirs = []
    for sub in itertools.combinations(range(len(ints)), dim - 1):
        v = cofactor_direction([ints[i] for i in sub], dim)
        if any(c != 0 for c in v):
            dirs.append(v)
    return dirs


def hemisphere_depth_reference(vectors, dim):
    """min over u of #{w : w . u > 0}; first strict minimum in (pos, neg) order."""
    vecs = [tuple(Fraction(c) for c in v) for v in vectors]
    if not vecs:
        return 0, tuple(Fraction(int(i == 0)) for i in range(dim))
    if fraction_rank(vecs) < dim:
        return 0, fraction_nullspace(vecs, dim)[0]
    ints = [scale_to_int(v) for v in vecs]
    best = witness = None
    for v in _edge_directions(ints, dim):
        dots = [sum(a * b for a, b in zip(w, v)) for w in ints]
        pos = sum(1 for t in dots if t > 0)
        neg = sum(1 for t in dots if t < 0)
        for count, u in ((pos, v), (neg, tuple(-c for c in v))):
            if best is None or count < best:
                best, witness = count, u
    return best, tuple(Fraction(c) for c in witness)


def dual_depth_reference(F: Instance, x):
    x = tuple(Fraction(c) for c in x)
    contained = 0
    w = []
    for h in F.hyperplanes:
        s = _sign(sum(a * b for a, b in zip(h.normal, x)) - h.offset)
        if s == 0:
            contained += 1
        else:
            w.append(tuple(-s * c for c in h.normal))
    hemi, witness = hemisphere_depth_reference(w, F.dim)
    return contained + hemi, witness


def max_depth_point_reference(F: Instance) -> DepthCertificate:
    """Depth of every vertex from its own solve and sign loop (n >= d only).

    Keeps the lexicographically least vertex of maximal depth; a vertex's
    witness is the first least pos count unless the least neg count is
    smaller, then the first least neg count.
    """
    ensure_general_position(F)
    n, d = F.n, F.dim
    normals, offsets = int_rows(F)
    dirs = _edge_directions(normals, d)
    S = [[_sign(sum(a * v for a, v in zip(normal, u))) for normal in normals] for u in dirs]
    best = None
    for sub in itertools.combinations(range(n), d):
        nums, den = solve_int_square([normals[i] for i in sub], [offsets[i] for i in sub])
        signs = [
            _sign(offsets[i] * den - sum(a * v for a, v in zip(normals[i], nums)))
            for i in range(n)
        ]
        pos = [sum(1 for s, t in zip(row, signs) if s * t > 0) for row in S]
        neg = [sum(1 for s, t in zip(row, signs) if s * t < 0) for row in S]
        jp = pos.index(min(pos))
        jn = neg.index(min(neg))
        hemi, j, flip = (pos[jp], jp, 1) if pos[jp] <= neg[jn] else (neg[jn], jn, -1)
        point = tuple(Fraction(v, den) for v in nums)
        key = (-(d + hemi), point)
        if best is None or key < best[0]:
            best = (key, tuple(Fraction(flip * c) for c in dirs[j]))
    (neg_depth, point), witness = best
    bound = (n + d) // (d + 1)
    return DepthCertificate(point, -neg_depth, witness, bound, -neg_depth >= bound)


def _first_min(counts: np.ndarray):
    """Column of the first least entry of each row, and that entry."""
    j = counts.argmin(axis=1)
    return j, counts[np.arange(len(j)), j]


def max_depth_point_unpruned(F: Instance) -> DepthCertificate:
    """``max_depth_point`` without the probe bound (n >= d only).

    The library's batched vertex and edge tables with the full count
    product on every vertex, after a separate general-position pass, and
    the same tie and witness rules.  Its counts are two products, one per
    side, independent of the library's one ± table.  It checks the pruned search at sizes
    where ``max_depth_point_reference`` takes seconds.
    """
    ensure_general_position(F)
    n, d = F.n, F.dim
    A, max_abs = F.row_array()
    blocks = list(_edge_blocks(A[:, :d], max_abs))
    dirs = np.concatenate([b[0] for b in blocks])
    S = np.concatenate([b[1] for b in blocks])
    same = np.concatenate([S > 0, S < 0], axis=1).astype(np.float32).T
    opposite = np.concatenate([S < 0, S > 0], axis=1).astype(np.float32).T
    best_depth = -1
    best_point = best_witness = None
    for _, nums, den, R in vertex_blocks(F):
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
    bound = (n + d) // (d + 1)
    return DepthCertificate(best_point, best_depth, best_witness, bound, best_depth >= bound)


def form_simplex_reference(F: Instance, idx):
    """The simplex of a (d+1)-subset from one Cramer solve per vertex.

    Raises DegenerateSubfamilyError for the first singular d-subset in
    vertex order, then for a vertex lying on its opposite facet.
    """
    from dualdepth import SimplexSpec

    d = F.dim
    idx = tuple(sorted(idx))
    normals, offsets = int_rows(F)
    vertices = []
    for i in idx:
        others = tuple(j for j in idx if j != i)
        sol = solve_int_square([normals[j] for j in others], [offsets[j] for j in others])
        if sol is None:
            raise DegenerateSubfamilyError(others, f"subfamily {idx} is degenerate")
        nums, den = sol
        vertices.append(tuple(Fraction(v, den) for v in nums))
    facets = []
    for i, opposite in zip(idx, vertices):
        h = F.hyperplanes[i]
        s = sum(a * b for a, b in zip(h.normal, opposite)) - h.offset
        if s == 0:
            raise DegenerateSubfamilyError(idx, "flat simplex (vertex on its facet)")
        sign = 1 if s > 0 else -1
        facets.append((tuple(sign * c for c in h.normal), sign * h.offset))
    return SimplexSpec(idx, tuple(vertices), tuple(facets))


def check_general_position_reference(F: Instance) -> GeneralPositionResult:
    """First singular d-subset, else first concurrent (d+1)-subset (n >= d only)."""
    d, n = F.dim, F.n
    normals, offsets = int_rows(F)
    for sub in itertools.combinations(range(n), d):
        if solve_int_square([normals[i] for i in sub], [offsets[i] for i in sub]) is None:
            return GeneralPositionResult(False, sub, "degenerate")
    for sub in itertools.combinations(range(n), d + 1):
        nums, den = solve_int_square(
            [normals[i] for i in sub[:d]], [offsets[i] for i in sub[:d]]
        )
        j = sub[d]
        if sum(a * v for a, v in zip(normals[j], nums)) == offsets[j] * den:
            return GeneralPositionResult(False, sub, "concurrent")
    return GeneralPositionResult(True)


def dual_tverberg_plane_reference(F: Instance) -> PartitionResult:
    """The planar construction with every candidate order built up front.

    A separate general-position pass, then every line sorted by the
    direction from the center x to it (its stored normal when it passes
    through x), and branches for zero, one and two lines through x; each
    candidate's triangles come from ``form_simplex`` directly.
    """
    ensure_general_position(F)
    n = F.n // 3
    cert = max_depth_point(F)
    x = cert.point

    off_dirs, on_idx = [], []
    for i, h in enumerate(F.hyperplanes):
        r = h.offset - sum(a * b for a, b in zip(h.normal, x))
        if r == 0:
            on_idx.append(i)
        else:
            sign = 1 if r > 0 else -1
            off_dirs.append((tuple(sign * c for c in h.normal), i))

    def groups_from(order):
        gs = [tuple(sorted((order[k], order[k + n], order[k + 2 * n]))) for k in range(n)]
        gs.sort()
        return tuple(gs)

    by_angle = cmp_to_key(lambda p, q: _angle_cmp(p[0], q[0]) or (p[1] - q[1]))
    base = [i for _, i in sorted(off_dirs, key=by_angle)]
    candidates = []
    if on_idx:
        naive = sorted(off_dirs + [(tuple(F.hyperplanes[i].normal), i) for i in on_idx],
                       key=by_angle)
        candidates.append([i for _, i in naive])
        m = len(base)
        if len(on_idx) == 1:
            for s in range(m):
                candidates.append(base[:s] + [on_idx[0]] + base[s:])
        else:
            a, b = on_idx
            for s in range(m):
                trial = base[:s] + [a] + base[s:]
                for t in range(m + 1):
                    candidates.append(trial[:t] + [b] + trial[t:])
    else:
        candidates.append(base)

    best = None
    for order in candidates:
        groups = groups_from(order)
        margin = min(
            sum(p * q for p, q in zip(normal, x)) - offset
            for g in groups for normal, offset in form_simplex(F, g).facets
        )
        if best is None or margin > best[1]:
            best = (groups, margin)
        if margin >= 0:
            break
    groups, margin = best
    return PartitionResult(groups, x, margin, margin > 0, {"depth": cert.depth, "bound": cert.bound})


def dual_tverberg_search_reference(F: Instance, n: int):
    """The exhaustive search with its former center stage.

    Computes the depth-maximizing center x* and, before each partition's
    box test and margin LP, accepts the partition when every simplex holds
    x* strictly.  Partitions come from ``enumerate_partitions_oracle``.  In
    general position x* lies on d hyperplanes, each a facet hyperplane of
    some group, so that stage never accepts and the answers equal the
    search without it.
    """
    d = F.dim
    if n < 1:
        raise ValueError(f"need at least one group, got {n}")
    if F.n != (d + 1) * n:
        raise ValueError(f"need (d+1)*n = {(d + 1) * n} hyperplanes, got {F.n}")
    x_star = max_depth_point(F).point
    simplex = functools.cache(lambda g: form_simplex(F, g))

    @functools.cache
    def star_margin(g):
        return min(
            sum(a * b for a, b in zip(normal, x_star)) - offset
            for normal, offset in simplex(g).facets
        )

    @functools.cache
    def box(g):
        vs = simplex(g).vertices
        return [(min(v[k] for v in vs), max(v[k] for v in vs)) for k in range(d)]

    checked = 0
    for groups in enumerate_partitions_oracle(range(F.n), d + 1):
        checked += 1
        if all(star_margin(g) > 0 for g in groups):
            margin = min(star_margin(g) for g in groups)
            return PartitionResult(groups, x_star, margin, True, {"candidates_checked": checked})
        if not all(
            all(glo < hhi and hlo < ghi for (glo, ghi), (hlo, hhi) in zip(box(g), box(h)))
            for g, h in itertools.combinations(groups, 2)
        ):
            continue
        res = common_interior_point([simplex(g) for g in groups])
        if res is not None and res[1] > 0:
            return PartitionResult(groups, res[0], res[1], True, {"candidates_checked": checked})
    return None


def colorful_dual_tverberg_search_reference(F: Instance, r: int):
    """The colorful search that runs the margin LP on every disjoint candidate.

    No box test; ``candidates_checked`` counts the disjoint candidates.
    """
    d = F.dim
    classes = F.color_classes()
    t = len(classes[0])
    ensure_general_position(F)
    if r > t:
        return None
    preconditions = {
        "t": t,
        "r": r,
        "t_ge_2r_minus_1": t >= 2 * r - 1,
        "r_prime_power": _is_prime_power(r),
    }
    colorful = sorted(
        tuple(sorted(pick)) for pick in itertools.product(*(classes[c] for c in range(d + 1)))
    )
    checked = 0
    for combo in itertools.combinations(colorful, r):
        flat = [i for g in combo for i in g]
        if len(set(flat)) != len(flat):
            continue
        checked += 1
        res = common_interior_point([form_simplex(F, g) for g in combo])
        if res is not None and res[1] > 0:
            return PartitionResult(
                combo, res[0], res[1], True,
                {"candidates_checked": checked, "preconditions": preconditions},
            )
    return None


# ---------------------------------------------------------------------------
# Instance files: the Fraction parse that ``parse_instance`` replaced, one
# Fraction per scalar and one Hyperplane per row, with its rules for a
# metadata.general_position declaration and for JSON that json.loads refuses
# with other errors than JSONDecodeError.
# ---------------------------------------------------------------------------

def parse_scalar_reference(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ParseError("bad-scalar", f"boolean is not a scalar: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        limit = sys.get_int_max_str_digits()
        try:
            num, slash, den = raw.partition("/")
            if (
                raw.isascii()
                and (num[1:] if num[:1] == "-" else num).isdigit()
                and (not slash or den.isdigit() and den.strip("0"))
            ):
                return Fraction(int(num), int(den) if slash else 1)
            if limit and _exponent_digits(raw) > limit:
                raise ParseError("bad-scalar", f"scalar {raw!r} has more than {limit} digits")
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad-scalar", f"cannot parse scalar {raw!r}") from exc
    if isinstance(raw, float):
        try:
            return Fraction(repr(raw))
        except ValueError as exc:
            raise ParseError("bad-scalar", f"non-finite scalar {raw!r}") from exc
    raise ParseError("bad-scalar", f"unsupported scalar type {type(raw).__name__}")


def parse_instance_reference(data, strict: bool = False) -> Instance:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("malformed-json", "file is not UTF-8") from exc
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ParseError("malformed-json", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("malformed-json", "nesting is too deep") from exc
    if not isinstance(obj, dict):
        raise ParseError("malformed-json", "top level must be an object")
    version = obj.get("format_version", FORMAT_VERSION)
    # true and 1.0 compare equal to 1, but only the integer is the version
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError("bad-version", f"unsupported format_version {version}")
    unknown = set(obj) - _KNOWN_FIELDS
    if unknown and strict:
        raise ParseError("unknown-field", f"unknown fields {sorted(unknown)}")
    try:
        dim = obj["dim"]
        raw_planes = obj["hyperplanes"]
    except KeyError as exc:
        raise ParseError("malformed-json", f"missing field {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("bad-type", f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ParseError("dimension-mismatch", f"dim must be positive, got {dim}")
    if not isinstance(raw_planes, list):
        raise ParseError("bad-type", "hyperplanes must be a list")

    hyperplanes = []
    for i, hp in enumerate(raw_planes):
        if not isinstance(hp, dict):
            raise ParseError("bad-type", f"hyperplane {i} must be an object")
        missing = sorted({"normal", "offset"} - set(hp))
        if missing:
            raise ParseError("malformed-json", f"hyperplane {i} is missing {missing}")
        if not isinstance(hp["normal"], list):
            raise ParseError("bad-type", f"hyperplane {i} normal must be a list")
        normal = [parse_scalar_reference(v) for v in hp["normal"]]
        if len(normal) != dim:
            raise ParseError(
                "dimension-mismatch",
                f"hyperplane {i} normal has length {len(normal)}, expected {dim}",
            )
        if all(v == 0 for v in normal):
            raise ParseError("zero-normal", f"hyperplane {i} has zero normal")
        offset = parse_scalar_reference(hp["offset"])
        hyperplanes.append(Hyperplane(tuple(normal), offset))

    colors = obj.get("colors")
    if colors is not None:
        if not isinstance(colors, list):
            raise ParseError("bad-color", "colors must be a list")
        if len(colors) != len(hyperplanes):
            raise ParseError("bad-color", "colors length differs from hyperplane count")
        for c in colors:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= dim:
                raise ParseError("bad-color", f"color {c!r} out of range [0, {dim}]")

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("bad-type", "metadata must be an object")
    reserved = sorted(k for k in metadata if k.startswith("_"))
    if reserved:
        raise ParseError("reserved-field", f"metadata keys {reserved} are reserved")
    metadata = dict(metadata)
    if unknown:
        metadata["_extra_fields"] = {k: obj[k] for k in sorted(unknown)}
    if "measure" in obj and obj["measure"] is not None:
        try:
            measure = FlatMeasureSpec.from_json(obj["measure"])
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ParseError("malformed-json", f"bad measure stanza: {exc}") from exc
        if measure.dim != dim:
            raise ParseError(
                "dimension-mismatch", f"measure dim must be the instance dim {dim}, got {measure.dim}"
            )
        metadata["_measure"] = measure

    inst = Instance(dim, hyperplanes, colors=colors, metadata=metadata)
    if obj.get("general_position") or metadata.get("general_position"):
        gp = check_general_position(inst)
        if not gp.ok:
            raise ParseError("general-position-violation", f"{gp.reason} subset {gp.violation}")
        metadata["general_position"] = True
    return inst


def assert_parses_like_reference(data, strict: bool = False):
    """``parse_instance`` and ``parse_instance_reference`` agree on one input.

    Both refuse it with one ParseError code and message, or both return
    instances with equal rows, hyperplanes, colors and metadata (compared by
    repr, so that a NaN in the metadata compares equal to itself) and equal
    ``write_instance`` bytes.  Returns the parsed instance, or None.
    """
    from dualdepth.io import parse_instance, write_instance

    try:
        want = parse_instance_reference(data, strict=strict)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_instance(data, strict=strict)
        assert (got.value.code, str(got.value)) == (exc.code, str(exc))
        return None
    inst = parse_instance(data, strict=strict)
    assert (inst.dim, inst.n) == (want.dim, want.n)
    assert inst.dens() == want.dens()
    assert inst.normal_ints()[0].tolist() == want.normal_ints()[0].tolist()
    assert inst.normal_ints()[1] == want.normal_ints()[1]
    # the row array holds the rows: the same entries, dtype and largest |entry|
    rows, max_abs = inst.row_array()
    assert (rows.tolist(), rows.dtype, max_abs) == (
        want.row_array()[0].tolist(), want.row_array()[0].dtype, want.row_array()[1])
    assert inst.hyperplanes == want.hyperplanes
    assert inst.colors == want.colors
    assert repr(inst.metadata) == repr(want.metadata)
    if want == want:  # a NaN in the metadata makes == irreflexive
        assert inst == want
    assert write_instance(inst) == write_instance(want)
    return inst


# ---------------------------------------------------------------------------
# Monte Carlo kernels of the measure verifiers, as first written: one
# (flats x probes) product per block of 64 probes, and a center polish that
# recounts every hyperplane at every trial point
# ---------------------------------------------------------------------------

def ray_fractions_reference(normals, offsets, x, dirs) -> np.ndarray:
    """Fraction of sampled hyperplanes met by the ray from x, per direction."""
    r = offsets - normals @ x
    contained = np.count_nonzero(r == 0.0)
    toward = normals * np.sign(r)[:, np.newaxis]  # zero rows for contained
    hits = np.empty(len(dirs))
    for lo in range(0, len(dirs), 64):
        proj = toward @ dirs[lo:lo + 64].T
        hits[lo:lo + 64] = np.count_nonzero(proj > 0.0, axis=0)
    return (hits + contained) / len(r)


def planar_min_fraction_reference(normals, offsets, x) -> Fraction:
    """Exact minimum over all directions u of the plane of the fraction of
    sampled lines met by the ray from x along u.

    Works in Fraction arithmetic on ``Fraction(float)`` of the sample.  Each
    line's side of x is the float sign of ``offsets - normals @ x``, as in
    the kernels: a line through x (side 0) is met by every ray, and any
    other by the directions u with t . u > 0, t its normal flipped towards
    it.  The count changes only at the perpendiculars of the t, so the
    candidates are +-perp(t) and the sum of each pair of angularly adjacent
    candidates, a direction inside the gap between them, ordered exactly
    as ``tverberg._angle_cmp`` orders them.
    """
    r = offsets - normals @ x
    contained = int(np.count_nonzero(r == 0.0))
    toward = [(Fraction(s * a), Fraction(s * b))
              for (a, b), s in zip(normals.tolist(), np.sign(r).tolist()) if s and (a or b)]
    cands = sorted((v for a, b in toward for v in ((-b, a), (b, -a))), key=cmp_to_key(_angle_cmp))
    gaps = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(cands, cands[1:] + cands[:1])]
    dirs = cands + [g for g in gaps if g != (0, 0)] or [(Fraction(1), Fraction(0))]
    fewest = min(sum(a * u + b * v > 0 for a, b in toward) for u, v in dirs)
    return Fraction(contained + fewest, len(r))


def halfflat_min_fraction_reference(bases, points, l0, D, probe_dirs) -> float:
    """Minimum over probes of the fraction of flats meeting the half-flat,
    by the closed form |h . w| > 1e-12 and num * (h . w) >= 0."""
    c = bases.shape[1]
    rhs = np.einsum("ncd,nd->nc", bases, points - l0[np.newaxis, :])  # (N, c)
    BD = bases @ D.T  # (N, c, c-1)
    cof = np.stack(
        [(-1) ** (j + c - 1) * np.linalg.det(np.delete(BD, j, axis=1)) for j in range(c)],
        axis=1,
    )
    h = np.einsum("nc,ncd->nd", cof, bases)
    num = np.einsum("nc,nc->n", cof, rhs)
    best = 1.0
    for lo in range(0, len(probe_dirs), 64):
        hw = h @ probe_dirs[lo:lo + 64].T
        hits = (np.abs(hw) > 1e-12) & (num[:, np.newaxis] * hw >= 0.0)
        best = min(best, float(hits.mean(axis=0).min()))
    return best


def polish_center_reference(spec, normals, offsets, starts, probes=180, rounds=40):
    """Pattern-search ascent of the sampled min-ray fraction, scoring every
    trial point with the full (N x probes) count products."""
    d = spec.dim
    N = len(normals)
    dirs = sphere_covering(d, probes)
    moves = sphere_covering(d, 4 * d)
    proj = normals @ dirs.T
    dtype = np.float32 if N < 2**24 else np.float64
    ahead = (proj > 0.0).astype(dtype)
    behind = (proj < 0.0).astype(dtype)

    def score(p):
        r = offsets - normals @ p
        hits = (r > 0.0).astype(dtype) @ ahead + (r < 0.0).astype(dtype) @ behind
        return (int(hits.min()) + int(np.count_nonzero(r == 0.0))) / N

    p = max((np.asarray([float(c) for c in x], dtype=float) for x in starts), key=score)
    best = score(p)
    step = spec.support_radius() / 4.0
    floor = spec.support_radius() * 1e-3
    for _ in range(rounds):
        moved = False
        for mv in moves:
            q = p + step * mv
            s = score(q)
            if s > best:
                p, best, moved = q, s, True
                break
        if not moved:
            step *= 0.5
            if step < floor:
                break
    return tuple(Fraction(float(v)).limit_denominator(10**6) for v in p)
