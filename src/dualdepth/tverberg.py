"""Simplices formed by hyperplane subfamilies and dual Tverberg partitions.

d+1 hyperplanes in general position in R^d form a simplex whose vertex i is
the common point of all chosen hyperplanes except the i-th.  A collection of
such simplices has a common strict interior point exactly when the margin LP
(the largest minimum inward slack over every facet) has a positive optimum;
the optimum point doubles as an exact certificate checkable by substitution.

Three partitioners are provided: the constructive planar one (circular order
of projection directions around a depth-maximizing point, triples n apart),
an exhaustive certified search over partitions into (d+1)-groups, and the
colorful variant that picks disjoint one-per-color groups.

They run on integer simplices: a simplex is its d+1 vertices as integer
tuples (nums..., den) and one margin-LP row per facet, (-f a, D, f b) for the
facet's integer row a . y = b, its multiplier D and its inward sign f
(``_facet_rows``).  The two searches read every vertex off the vertex pass
that checks general position; the planar partition builds a group's
vertices when an order first reaches it.  ``form_simplex`` is the rational
view of the same construction.  The margin LP reads its bases from
``cofactor_blocks``, the kernel of the vertex table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

import numpy as np

from .depth import max_depth_point, signature_of
from .geometry import (
    DegenerateSubfamilyError,
    DimensionMismatchError,
    Instance,
    Point,
    checked_vertex_blocks,
    cofactor_blocks,
    exact_int_array,
    scale_to_int,
    stacked_cofactors,
)


@dataclass(frozen=True)
class SimplexSpec:
    """Simplex formed by d+1 hyperplanes.

    ``vertices[i]`` is the intersection of every chosen hyperplane except
    ``indices[i]``; ``facets[i]`` is the inward halfspace form
    (normal, offset) with the inside satisfying normal . x >= offset, its
    boundary lying on hyperplane ``indices[i]``.
    """

    indices: tuple[int, ...]
    vertices: tuple[Point, ...]
    facets: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True)
class PartitionResult:
    groups: tuple[tuple[int, ...], ...]
    witness: Point
    margin: Fraction
    strict: bool
    metadata: dict = field(default_factory=dict)


def form_simplex(F: Instance, idx: Sequence[int]) -> SimplexSpec:
    """Build the simplex of a (d+1)-subset of hyperplane indices."""
    d = F.dim
    idx = tuple(sorted(idx))
    if len(idx) != d + 1 or len(set(idx)) != d + 1:
        raise DimensionMismatchError(f"need d+1 distinct indices, got {idx}")
    if not 0 <= idx[0] <= idx[-1] < F.n:
        raise IndexError(f"hyperplane indices {idx} out of range for n={F.n}")
    (vertices,) = _simplex_vertices(F, [idx])
    rows = _facet_rows(F, idx, vertices)
    # a facet row is (-normal, 1, offset) times its last-but-one entry
    return SimplexSpec(
        idx,
        tuple(tuple(Fraction(c, v[d]) for c in v[:d]) for v in vertices),
        tuple((tuple(Fraction(-c, r[d]) for c in r[:d]), Fraction(r[d + 1], r[d])) for r in rows),
    )


def _simplex_vertices(F: Instance, groups: Sequence[tuple[int, ...]]) -> list[list[tuple]]:
    """The vertices of the simplex of each sorted (d+1)-group as (nums..., den), den >= 0.

    Vertex i of group g is nums / den, the common point of every hyperplane
    of g but g[i]; den is 0 when those hyperplanes have no unique common
    point.  One ``stacked_cofactors`` call serves all the groups.
    """
    d = F.dim
    normals, offsets = F.scaled()
    rows = exact_int_array([normals[i] + (-offsets[i],) for g in groups for i in g], d + 1)
    omit = [[k for k in range(d + 1) if k != i] for i in range(d + 1)]
    # the cofactor vector of the rows through vertex i is proportional to (vertex, 1)
    cof = stacked_cofactors(rows.reshape(len(groups), d + 1, d + 1)[:, omit].reshape(-1, d, d + 1))
    vertices = [tuple(v) if v[d] >= 0 else tuple(-c for c in v) for v in cof.tolist()]
    return [vertices[k:k + d + 1] for k in range(0, len(vertices), d + 1)]


def _facet_rows(F: Instance, idx: tuple[int, ...], vertices) -> list[tuple[int, ...]]:
    """The margin-LP rows of the simplex of sorted ``idx``, one per facet.

    ``vertices[i]`` is the vertex opposite hyperplane idx[i] as (nums...,
    den), den >= 0.  Facet i lies on that hyperplane, the integer row
    a . y = b equal to the rational one times D = ``F.dens()[idx[i]]``;
    with f the sign of a . x - b at vertex i, its inward form is
    f a . y >= f b, and its row (-f a, D, f b) is ``scale_to_int`` of the
    rational (-normal, 1, offset) that ``_max_slack`` poses.  Raises
    ``DegenerateSubfamilyError`` for the first vertex with den 0, then for
    the first vertex on its own facet.
    """
    for i, v in enumerate(vertices):
        if v[-1] == 0:
            raise DegenerateSubfamilyError(idx[:i] + idx[i + 1:], f"subfamily {idx} is degenerate")
    normals, offsets = F.scaled()
    dens = F.dens()
    rows = []
    for i, v in zip(idx, vertices):
        a, b = normals[i], offsets[i]
        s = sum(c * x for c, x in zip(a, v)) - b * v[-1]  # (a . x - b) * den
        if s == 0:
            raise DegenerateSubfamilyError(idx, "flat simplex (vertex on its facet)")
        rows.append((*(-c for c in a), dens[i], b) if s > 0 else (*a, dens[i], -b))
    return rows


def _table_simplices(F: Instance, blocks):
    """The simplex of each group, as (vertices, facet rows), from a vertex table.

    The table keeps each d-subset's vertex from ``blocks`` (as
    ``vertex_blocks`` yields them) as d+1 integers (nums..., den) and drops
    the residuals; a group's simplex is then d+1 lookups and
    ``_facet_rows``, memoized on the group.
    """
    table = {}
    for subsets, nums, den, _ in blocks:
        vertices = np.column_stack([nums, den]).tolist()
        table.update(zip(map(tuple, subsets.tolist()), map(tuple, vertices)))

    @functools.cache
    def simplex(g):
        vertices = [table[g[:i] + g[i + 1:]] for i in range(len(g))]
        return vertices, _facet_rows(F, g, vertices)

    return simplex


def _deeper(u: list, v: list) -> int:
    """Positive when (x, e, den) u has the larger slack, or the same slack and the smaller x."""
    du, dv = u[-1], v[-1]
    if u[-2] * dv != v[-2] * du:
        return u[-2] * dv - v[-2] * du
    for a, b in zip(u[:-2], v[:-2]):
        if a * dv != b * du:
            return b * du - a * dv
    return 0


def _max_slack(rows) -> tuple[Point, Fraction]:
    """The largest slack e* over inward facets and the least point of slack e*.

    The LP max e subject to normal . x >= offset + e has the d+1 variables
    (x, e).  It is feasible, and bounded whenever the facets cut out a
    bounded set, as those of simplices do; its matrix then has full column
    rank, so every vertex of its feasible set is a basic solution: d+1
    linearly independent rows tight.  ``rows`` holds each facet's row
    (-normal, 1, offset) scaled to integers (a positive multiple of it), as
    ``_facet_rows`` builds them and ``common_interior_point`` scales them,
    and ``cofactor_blocks`` gives for each (d+1)-subset of rows a vector
    proportional to (x, e, 1), nonzero in its last entry exactly when the
    subset is nonsingular.  The feasible ones are checked with one matmul
    per block in the dtype ``exact_int_array`` picks, and compared by
    cross-multiplied Python ints: the largest e wins, ties go to the
    lexicographically smaller x.  The blocks' winners compete by the same
    rule.  The lexicographically least point of the optimal face is one of
    its vertices, so the witness depends on neither the enumeration order,
    the blocks nor a pivoting rule.

    The enumeration costs C(rows, d+1) bases, a few hundred at the sizes
    the searches pose.
    LPs with many rows in fixed dimension are linear-time problems (Megiddo
    1984; Seidel 1991), which this module does not implement.
    """
    d = len(rows[0]) - 2
    M = exact_int_array(rows, d + 2)
    winners = []
    for _, cof in cofactor_blocks(M):
        cof = cof[cof[:, d + 1] != 0]
        cof *= np.sign(cof[:, d + 1])[:, np.newaxis]
        # with the last entry (the denominator) positive, row . cof <= 0 on every row
        feasible = cof[(M @ cof.T <= 0).all(axis=0)].tolist()
        if feasible:
            winners.append(max(feasible, key=cmp_to_key(_deeper)))
    best = max(winners, key=cmp_to_key(_deeper))
    return tuple(Fraction(num, best[-1]) for num in best[:d]), Fraction(best[d], best[-1])


def common_interior_point(simplices: Sequence[SimplexSpec]):
    """Exact LP certificate for a common interior point of simplices.

    Maximizes the slack e subject to inward_normal . x >= inward_offset + e
    over every facet (``_max_slack``).  There is no cap on e: an
    intersection of simplices is bounded, so the largest slack e* is
    attained.  Returns (witness, margin) with margin = min(e*, 1):
    margin > 0 for a strict interior point, margin == 0 when the
    intersection is nonempty but has empty interior, and None when even the
    closed intersection is empty.

    Witness rule: the witness is the lexicographically least point of slack
    e*, so its slack is at least the margin.  When the max-slack LP has a
    unique optimum that is the deepest common point.
    """
    if not simplices:
        raise ValueError("need at least one simplex")
    d = simplices[0].dim
    if any(s.dim != d for s in simplices):
        raise DimensionMismatchError("mixed simplex dimensions")
    x, e = _max_slack([
        scale_to_int([-c for c in normal] + [Fraction(1), offset])
        for s in simplices for normal, offset in s.facets
    ])
    if e < 0:
        return None
    return x, min(e, Fraction(1))


def _containment_margin(rows, point: tuple[int, ...]) -> Fraction:
    """Minimum inward slack over facet rows at x = X / L, point = (X..., L), L > 0.

    Facet row (c, D, b), from ``_facet_rows``, has slack -(c . x + b) / D
    at x, that is -(c . X + b L) / (D L); the least one is found by
    cross-multiplying and is negative when x lies outside.
    """
    d = len(point) - 1
    num, den = None, 1
    for r in rows:
        p = -sum(c * v for c, v in zip(r[:d] + r[d + 1:], point))
        if num is None or p * den < num * r[d]:
            num, den = p, r[d]
    return Fraction(num, den * point[d])


def _angle_cmp(a: tuple, b: tuple) -> int:
    """Exact circular comparison of nonzero plane vectors from angle 0."""
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def dual_tverberg_plane(F: Instance) -> PartitionResult:
    """Constructive planar partition of 3n lines into n witness-sharing triples.

    Orders the lines circularly by the direction from a depth-maximizing
    point x to its projection on each line and groups positions k, k+n,
    k+2n.  In general position x is a vertex of the arrangement, so exactly
    two lines a < b pass through it.  They are first ordered by their
    stored normals; if that grouping leaves x outside a triangle, a is put
    at each slot of the other lines' order in turn and, for each, b at each
    slot of the result, until x lies in every triangle.  With no such order
    the grouping of the best margin is returned.
    """
    if F.dim != 2:
        raise DimensionMismatchError("dual_tverberg_plane requires d = 2")
    if F.n == 0 or F.n % 3 != 0:
        raise ValueError(f"line count {F.n} is not a positive multiple of 3")
    n = F.n // 3
    cert = max_depth_point(F)  # raises DegenerateInstanceError off general position
    x = cert.point

    # the direction from x to its projection on line i is its row normal,
    # turned towards the line: negated where x lies on the positive side.
    # A row is a positive multiple of the rational line, so the angles agree.
    signs = signature_of(F, x)
    dirs = [tuple(-c for c in a) if s > 0 else a for s, a in zip(signs, F.scaled()[0])]
    # sorted() is stable, so lines of one angle keep their index order
    naive = sorted(range(F.n), key=cmp_to_key(lambda i, j: _angle_cmp(dirs[i], dirs[j])))
    a, b = (i for i, s in enumerate(signs) if s == 0)
    base = [i for i in naive if i not in (a, b)]

    def orders():
        yield naive
        for s in range(len(base)):
            trial = base[:s] + [a] + base[s:]
            for t in range(len(base) + 1):
                yield trial[:t] + [b] + trial[t:]

    # each group's facet rows are built when an order first reaches it,
    # one vertex construction for the new groups of each order
    rows = {}
    point = scale_to_int(x + (Fraction(1),))
    best = None
    for order in orders():
        groups = tuple(sorted(tuple(sorted(order[k::n])) for k in range(n)))
        new = [g for g in groups if g not in rows]
        if new:
            for g, vertices in zip(new, _simplex_vertices(F, new)):
                rows[g] = _facet_rows(F, g, vertices)
        margin = _containment_margin([r for g in groups for r in rows[g]], point)
        if best is None or margin > best[1]:
            best = (groups, margin)
        if margin >= 0:
            break

    groups, margin = best
    return PartitionResult(
        groups, x, margin, margin > 0, {"depth": cert.depth, "bound": cert.bound}
    )


def _partitions(indices: list[int], size: int):
    """Unordered partitions into groups of the given size, lexicographic.

    Each group is emitted sorted; groups are ordered by their smallest
    element, which is the canonical (and enumeration) order.
    """
    if not indices:
        yield []
        return
    head = indices[0]
    rest = indices[1:]
    for tail in itertools.combinations(rest, size - 1):
        group = (head,) + tail
        remaining = [i for i in rest if i not in tail]
        for sub in _partitions(remaining, size):
            yield [group] + sub


def _first_strict(F: Instance, simplex, candidates, metadata: dict) -> Optional[PartitionResult]:
    """First candidate group tuple whose simplices share a strict interior point.

    Exhaustive and certified: a candidate is accepted exactly when the
    margin LP on its groups' facet rows (``simplex``, from
    ``_table_simplices``) is strictly positive.  Candidates whose vertex
    boxes fail to overlap openly skip the LP; the result's metadata is the
    number of candidates checked followed by ``metadata``.
    """
    d = F.dim

    def extreme(vs, k, sign):
        """(num, den) of the least (sign -1) or greatest (sign 1) coordinate k."""
        best = vs[0]
        for v in vs[1:]:
            if sign * (v[k] * best[d] - best[k] * v[d]) > 0:
                best = v
        return best[k], best[d]

    @functools.cache
    def box(g):
        vs = simplex(g)[0]
        return [(extreme(vs, k, -1), extreme(vs, k, 1)) for k in range(d)]

    @functools.cache
    def pair_overlap(g, h) -> bool:
        # p/q < r/s exactly when p s < r q, the denominators being positive
        return all(
            glo[0] * hhi[1] < hhi[0] * glo[1] and hlo[0] * ghi[1] < ghi[0] * hlo[1]
            for (glo, ghi), (hlo, hhi) in zip(box(g), box(h))
        )

    checked = 0
    for groups in candidates:
        checked += 1
        # open overlap of the vertex bounding boxes is necessary for a
        # strict common point, so a degenerate overlap rules the LP out;
        # open intervals share a point when every two of them do (1-D Helly)
        if not all(pair_overlap(g, h) for g, h in itertools.combinations(groups, 2)):
            continue
        x, e = _max_slack([r for g in groups for r in simplex(g)[1]])
        if e > 0:
            return PartitionResult(
                groups, x, min(e, Fraction(1)), True, {"candidates_checked": checked, **metadata}
            )
    return None


def dual_tverberg_search(F: Instance, n: int) -> Optional[PartitionResult]:
    """First (lexicographic) partition into n simplices with a strict common point.

    Returns None (NotFound) when no partition qualifies; for prime-power n
    in general position that signals a bug rather than a legitimate outcome.
    """
    d = F.dim
    if n < 1:
        raise ValueError(f"need at least one group, got {n}")
    if F.n != (d + 1) * n:
        raise ValueError(f"need (d+1)*n = {(d + 1) * n} hyperplanes, got {F.n}")
    simplex = _table_simplices(F, checked_vertex_blocks(F))
    return _first_strict(F, simplex, map(tuple, _partitions(list(range(F.n)), d + 1)), {})


def colorful_dual_tverberg_search(F: Instance, r: int) -> Optional[PartitionResult]:
    """First r disjoint colorful (d+1)-groups with a strict common point.

    Preconditions of the colorful guarantee (t >= 2r-1, r a prime power) are
    recorded in the result metadata but not enforced; the search runs
    regardless and reports what it finds.
    """
    d = F.dim
    if r < 1:
        raise ValueError(f"need at least one group, got {r}")
    if F.colors is None:
        raise ValueError("instance has no colors")
    classes = F.color_classes()
    if sorted(classes) != list(range(d + 1)):
        raise ValueError(f"need exactly colors 0..{d}, got {sorted(classes)}")
    sizes = {len(v) for v in classes.values()}
    if len(sizes) != 1:
        raise ValueError("color classes must have equal size")
    t = sizes.pop()
    simplex = _table_simplices(F, checked_vertex_blocks(F))
    if r > t:
        return None  # r disjoint groups take r hyperplanes of each colour
    preconditions = {
        "t": t,
        "r": r,
        "t_ge_2r_minus_1": t >= 2 * r - 1,
        "r_prime_power": _is_prime_power(r),
    }

    colorful = sorted(
        tuple(sorted(pick))
        for pick in itertools.product(*(classes[c] for c in range(d + 1)))
    )
    disjoint = (
        combo
        for combo in itertools.combinations(colorful, r)
        if len({i for g in combo for i in g}) == r * (d + 1)
    )
    return _first_strict(F, simplex, disjoint, {"preconditions": preconditions})


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return n == 1  # the r = 1 search is trivially fine
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False
