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
    dot,
    ensure_general_position,
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
    normals, offsets = F.scaled()
    rows = exact_int_array([normals[i] + (-offsets[i],) for i in idx], d + 1)
    # vertex i lies on every row but row i; their cofactor vector is
    # proportional to (vertex, 1), and its dot product with row i is the
    # residual of hyperplane i at the vertex, times the last entry
    cof = stacked_cofactors(rows[[[k for k in range(d + 1) if k != i] for i in range(d + 1)]])
    vertices = []
    for i, v in enumerate(cof):
        den = int(v[d])
        if den == 0:
            raise DegenerateSubfamilyError(idx[:i] + idx[i + 1:], f"subfamily {idx} is degenerate")
        vertices.append(tuple(Fraction(int(num), den) for num in v[:d]))
    facets = []
    for i, s in enumerate((rows * cof).sum(axis=1) * np.sign(cof[:, d])):
        if s == 0:
            raise DegenerateSubfamilyError(idx, "flat simplex (vertex on its facet)")
        h = F.hyperplanes[idx[i]]
        facets.append((h.normal, h.offset) if s > 0 else (tuple(-c for c in h.normal), -h.offset))
    return SimplexSpec(idx, tuple(vertices), tuple(facets))


def _simplex_cache(F: Instance):
    """``form_simplex(F, g)`` memoized on the group g."""
    return functools.cache(lambda g: form_simplex(F, g))


# Bases per ``stacked_cofactors`` call of ``_max_slack``; bounds its working memory.
_SLICE = 4096


@functools.cache
def _bases(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) in combinations order, as one (C(m, k), k) index table."""
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp).reshape(-1, k)
    table.setflags(write=False)  # shared by every caller
    return table


def _deeper(u: list, v: list) -> int:
    """Positive when (x, e, den) u has the larger slack, or the same slack and the smaller x."""
    du, dv = u[-1], v[-1]
    if u[-2] * dv != v[-2] * du:
        return u[-2] * dv - v[-2] * du
    for a, b in zip(u[:-2], v[:-2]):
        if a * dv != b * du:
            return b * du - a * dv
    return 0


def _max_slack(facets) -> tuple[Point, Fraction]:
    """The largest slack e* over inward facets and the least point of slack e*.

    The LP max e subject to normal . x >= offset + e has the d+1 variables
    (x, e).  It is feasible, and bounded whenever the facets cut out a
    bounded set, as those of simplices do; its matrix then has full column
    rank, so every vertex of its feasible set is a basic solution: d+1
    linearly independent rows tight.  Each row (-normal, 1, offset) is
    scaled to integers once, and ``stacked_cofactors`` on the (d+1)-subsets
    of rows, ``_SLICE`` subsets per call, gives for each a vector
    proportional to (x, e, 1), nonzero in its last entry exactly when the
    subset is nonsingular.  The feasible ones are checked with one matmul
    per slice in the dtype ``exact_int_array`` picks, and compared by
    cross-multiplied Python ints: the largest e wins, ties go to the
    lexicographically smaller x.  The slices' winners compete by the same
    rule.  The lexicographically least point of the optimal face is one of
    its vertices, so the witness depends on neither the enumeration order,
    the slicing nor a pivoting rule.

    The enumeration costs C(rows, d+1) bases, a few hundred at the sizes
    the searches pose.
    LPs with many rows in fixed dimension are linear-time problems (Megiddo
    1984; Seidel 1991), which this module does not implement.
    """
    d = len(facets[0][0])
    M = exact_int_array(
        [scale_to_int([-c for c in normal] + [Fraction(1), offset]) for normal, offset in facets],
        d + 2,
    )
    bases = _bases(len(M), d + 1)
    winners = []
    for start in range(0, len(bases), _SLICE):
        cof = stacked_cofactors(M[bases[start:start + _SLICE]])
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
    x, e = _max_slack([f for s in simplices for f in s.facets])
    if e < 0:
        return None
    return x, min(e, Fraction(1))


def _containment_margin(simplices: Sequence[SimplexSpec], x: Point) -> Fraction:
    """Minimum inward slack of x over all facets (negative when outside)."""
    return min(
        dot(normal, x) - offset for s in simplices for normal, offset in s.facets
    )


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
    signs = signature_of(F, x).signs
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

    simplex = _simplex_cache(F)
    best = None
    for order in orders():
        groups = tuple(sorted(tuple(sorted(order[k::n])) for k in range(n)))
        margin = _containment_margin([simplex(g) for g in groups], x)
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


def _first_strict(F: Instance, candidates, metadata: dict) -> Optional[PartitionResult]:
    """First candidate group tuple whose simplices share a strict interior point.

    Exhaustive and certified: a candidate is accepted exactly when the
    margin LP is strictly positive.  Candidates whose vertex boxes fail to
    overlap openly skip the LP; the result's metadata is the number of
    candidates checked followed by ``metadata``.
    """
    d = F.dim
    simplex = _simplex_cache(F)

    @functools.cache
    def box(g):
        vs = simplex(g).vertices
        return (
            tuple(min(v[k] for v in vs) for k in range(d)),
            tuple(max(v[k] for v in vs) for k in range(d)),
        )

    @functools.cache
    def pair_overlap(g, h) -> bool:
        (glo, ghi), (hlo, hhi) = box(g), box(h)
        return all(glo[k] < hhi[k] and hlo[k] < ghi[k] for k in range(d))

    checked = 0
    for groups in candidates:
        checked += 1
        # open overlap of the vertex bounding boxes is necessary for a
        # strict common point, so a degenerate overlap rules the LP out;
        # open intervals share a point when every two of them do (1-D Helly)
        if not all(pair_overlap(g, h) for g, h in itertools.combinations(groups, 2)):
            continue
        res = common_interior_point([simplex(g) for g in groups])
        if res is not None and res[1] > 0:
            return PartitionResult(
                groups, res[0], res[1], True, {"candidates_checked": checked, **metadata}
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
    ensure_general_position(F)
    return _first_strict(F, map(tuple, _partitions(list(range(F.n)), d + 1)), {})


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
    ensure_general_position(F)
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
    return _first_strict(F, disjoint, {"preconditions": preconditions})


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return n == 1  # the r = 1 search is trivially fine
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False
