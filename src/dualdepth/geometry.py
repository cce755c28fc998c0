"""Exact vector/hyperplane primitives and general-position validation.

All predicates and linear solves in this module are exact: a sign is zero
if and only if the underlying quantity is zero.  The kernels run on integer
rows; ``fractions.Fraction`` holds the rational ``Hyperplane`` view, the
reported points and the RREF.  Floating point appears here only as a
carrier of integers: a product whose bound proves every term and partial
sum below 2^53 (``_FLOAT_SAFE``) runs as a float64 matrix product, which
holds exactly those integers whatever order BLAS adds them in (a static
filter in the sense of Fortune & Van Wyk, 1996).  The heuristic and Monte
Carlo layers live in other modules and re-certify their answers through
these primitives.

An ``Instance`` is its integer rows (each hyperplane multiplied by the lcm
of its denominators), which preserve every sign and every intersection
point while keeping arithmetic in plain ints: one (n, d+1) ``int_array``
with its largest entry (``Instance.row_array``), which every kernel reads.
The batched kernels run the same integer arithmetic on numpy arrays: int64
when a bound computed from that entry proves that nothing overflows, Python
ints (``dtype=object``) otherwise, and the products with every row take
float64 below 2^53.  ``cofactor_blocks`` gives the cofactor
vector of every (k-1)-subset of k-wide rows from one minor table shared by
all subsets with the same prefix, in blocks sized by an entry budget; every
d-subset's vertex (``vertex_blocks``), every edge direction of ``depth``
and every basis of the margin LP in ``tverberg`` come from it.
``stacked_cofactors`` serves stacks of unrelated matrices, the simplex
vertices of ``tverberg._simplex_vertices``.

``checked_vertex_blocks`` is the one general-position scan: it checks each
block of the vertex table as a caller reads it, and ``check_general_position``
runs it to the end.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

Point = tuple[Fraction, ...]
Direction = tuple[Fraction, ...]

# Magnitude below which every product and partial sum of the int64 kernels
# stays exact.
_NUMPY_SAFE = 1 << 62
# The same for a float64 product of integers: every integer below 2^53 is a
# float64, so a product whose terms and partial sums all stay below it comes
# out of BLAS exactly, whatever its summation order.
_FLOAT_SAFE = 1 << 53
# Entries of a block's product with every row (subsets x rows) in the
# batched kernels; bounds their working memory.  An entry of an object
# array, a pointer to a Python int of three or more words, counts as
# ``_OBJECT_ENTRY``.
_BUDGET = 1 << 15
_OBJECT_ENTRY = 4


class GeometryError(Exception):
    """Base class for errors raised by the exact-geometry layer."""


class DimensionMismatchError(GeometryError):
    pass


class ZeroDirectionError(GeometryError):
    pass


class DegenerateSubfamilyError(GeometryError):
    """A d-subset of hyperplanes has no unique common point."""

    def __init__(self, indices: Sequence[int], message: str = ""):
        self.indices = tuple(indices)
        super().__init__(message or f"degenerate subfamily {self.indices}")


class DegenerateInstanceError(GeometryError):
    """The instance violates general position where it is required."""


def as_scalar(value) -> Fraction:
    """Convert ints, strings ("p/q" or decimal) and floats to an exact Fraction.

    Floats convert via their exact binary value, matching the approximate-view
    contract (round trip within one ulp is in fact exact here).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a scalar")


def as_point(coords: Iterable) -> Point:
    return tuple(as_scalar(c) for c in coords)


# ---------------------------------------------------------------------------
# Integer linear algebra (stacked cofactors, exact elimination)
# ---------------------------------------------------------------------------

def int_array(values, width: int) -> tuple[np.ndarray, int]:
    """Integers as the rows of a read-only (m, width) array, with their largest |entry|.

    ``values`` lists the entries row by row, as Python ints or as an int64
    array with no entry -2^63.  The array is int64 when every entry fits and
    holds Python ints (dtype=object) otherwise; a kernel picks its working
    dtype from the largest entry (``_exact_dtype``), a Python int, so that
    the bounds computed from it cannot overflow.
    """
    if isinstance(values, np.ndarray):
        max_abs = int(np.abs(values).max(initial=0))
    else:
        max_abs = max(map(abs, values), default=0)
    arr = np.array(values, dtype=np.int64 if max_abs < 1 << 63 else object).reshape(-1, width)
    arr.setflags(write=False)
    return arr, max_abs


def _stage_bound(max_abs: int, width: int) -> int:
    """width! * max_abs^width, the bound of a product of a cofactor with a row.

    With every entry at most max_abs in absolute value, a cofactor of
    width-1 rows is at most (width-1)! * max_abs^(width-1), and its dot
    product with one more row at most width! * max_abs^width; every partial
    sum of the expansions and of the product obeys the same bound.
    """
    return math.factorial(width) * max_abs**width


def _exact_dtype(max_abs: int, width: int):
    """int64 when ``_stage_bound`` is below ``_NUMPY_SAFE``, else Python ints (object)."""
    return np.int64 if _stage_bound(max_abs, width) < _NUMPY_SAFE else object


@functools.cache
def _expansion_plan(m: int, k: int):
    """Index tables for the column-subset expansion of m x k matrices.

    Level r lists the (r+1)-subsets of the k columns in combinations order:
    ``cols[s, p]`` is the p-th column of subset s and ``sub[s, p]`` the
    index, one level down, of subset s without that column.  ``last[j]``
    indexes the m-subset that omits column j.
    """
    levels = []
    prev = {(): 0}
    for r in range(m):
        subsets = list(itertools.combinations(range(k), r + 1))
        cols = np.array(subsets, dtype=np.intp).reshape(len(subsets), r + 1)
        sub = np.array(
            [[prev[c[:p] + c[p + 1:]] for p in range(r + 1)] for c in subsets], dtype=np.intp
        ).reshape(len(subsets), r + 1)
        levels.append((cols, sub))
        prev = {c: i for i, c in enumerate(subsets)}
    full = tuple(range(k))
    last = np.array([prev[full[:j] + full[j + 1:]] for j in range(k)], dtype=np.intp)
    return levels, last


@functools.cache
def _last_level(m: int, k: int):
    """The last level of the expansion on m x k matrices (m >= 1), as flat tables.

    Component j of the cofactor vector is the minor without column j: the
    sum over positions p of sign[i] * row[row_cols[i]] * minor[minor_cols[i]],
    i = p*k + j, with the row the matrix's last and the minors those of its
    leading m-1 rows (level m-2 of ``_expansion_plan``).
    """
    levels, last = _expansion_plan(m, k)
    cols, sub = levels[-1][0][last], levels[-1][1][last]
    sign = np.array([(-1) ** (m - 1 + p + j) for p in range(m) for j in range(k)], dtype=np.int64)
    return cols.T.ravel(), sub.T.ravel(), sign


def _leading_minors(rows: np.ndarray, levels) -> np.ndarray:
    """Minors of the leading len(levels) rows of a stack of matrices, exactly.

    ``rows`` has shape (B, ., k) and ``levels`` are the first levels of
    ``_expansion_plan``.  The minors of the leading r rows are built for
    every r-subset of columns at once by expanding along row r, one array
    operation per position in the subset, so the arithmetic stays in the
    dtype of ``rows`` (see ``_exact_dtype`` for when int64 is exact).
    """
    minors = np.ones((len(rows), 1), dtype=rows.dtype)
    for r, (cols, sub) in enumerate(levels):
        acc = np.zeros((len(rows), len(cols)), dtype=rows.dtype)
        for p in range(r + 1):
            term = rows[:, r, cols[:, p]] * minors[:, sub[:, p]]
            acc = acc - term if (r + p) % 2 else acc + term
        minors = acc
    return minors


def stacked_cofactors(rows: np.ndarray) -> np.ndarray:
    """Cofactor vectors of a stack of (k-1) x k integer matrices, exactly.

    ``rows`` has shape (B, k-1, k); component j of row b of the result is
    (-1)^j times the minor of ``rows[b]`` without column j.  That vector is
    orthogonal to every row of ``rows[b]`` and is zero exactly when those
    rows have rank < k-1.  It is built from the minors of all k-1 rows
    (``_leading_minors``).
    """
    _, m, k = rows.shape
    levels, last = _expansion_plan(m, k)
    signs = np.array([(-1) ** j for j in range(k)], dtype=rows.dtype)
    return _leading_minors(rows, levels)[:, last] * signs


@functools.cache
def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) in combinations order, as one (C(m, k), k) index table."""
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    table = table.reshape(math.comb(m, k), k)
    table.setflags(write=False)  # shared by every caller
    return table


def cofactor_blocks(rows: np.ndarray):
    """The cofactor vector of every (k-1)-subset of the rows of ``rows``, in blocks.

    ``rows`` is an (n, k) integer array.  Yields ``(subsets, cof)`` over
    the (k-1)-subsets of its rows in combinations order: ``subsets`` (B,
    k-1) and ``cof`` (B, k), where cof[b] is ``stacked_cofactors`` of
    rows[subsets[b]], the same integers.  A block holds ``_BUDGET // n``
    subsets (a quarter of that for dtype=object, one at least), so that
    its product with every row stays within the budget.

    In combinations order a subset extends its prefix, its first k-2
    rows, and the minors of those rows are the prefix's.  So they are built
    once for every prefix, and a block expands only its subsets' last row
    against its prefixes' minors.
    """
    n, k = rows.shape
    m = k - 1
    if m == 0:
        yield np.zeros((1, 0), dtype=np.intp), np.ones((1, 1), dtype=rows.dtype)
        return
    if n < m:
        return
    # the prefixes in order, the (m-1)-subsets of all rows but the last (a
    # table built once per shape: the searches pose many LPs of one shape),
    # and the minors of their rows
    prefix = _subsets(n - 1, m - 1)
    minors = _leading_minors(rows[prefix], _expansion_plan(m, k)[0][:-1])
    # the last level, its terms gathered into (., m*k) tables
    row_cols, minor_cols, sign = _last_level(m, k)
    row_terms = rows[:, row_cols]
    minor_terms = minors[:, minor_cols] * sign
    # prefix q's children add each row from one past its last to n-1, the
    # last child at index ends[q]-1; so subset i, i < ends[q] for the
    # first such q, adds row i + n - ends[q]
    ends = np.cumsum(n - 1 - prefix[:, -1]) if m > 1 else np.array([n])
    size = max(1, _BUDGET // (n * (_OBJECT_ENTRY if rows.dtype == object else 1)))
    for lo in range(0, int(ends[-1]), size):
        idx = np.arange(lo, min(lo + size, int(ends[-1])))
        parent = np.searchsorted(ends, idx, side="right")
        j = idx + n - ends[parent]
        terms = row_terms[j] * minor_terms[parent]
        cof = terms[:, :k]
        for p in range(1, m):
            cof = cof + terms[:, p * k:(p + 1) * k]
        del terms  # not held while the block is read
        yield np.concatenate([prefix[parent], j[:, np.newaxis]], axis=1), cof


def scale_to_int(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by the (positive) lcm of denominators."""
    denlcm = math.lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (denlcm // v.denominator) for v in vec)


def rref(rows: Sequence[Sequence], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the first ``width`` columns, exact.

    Returns the reduced rows and the pivot columns; row i < len(pivots) has
    a 1 in column pivots[i] and zeros in the other pivot columns.  Columns
    past ``width`` (an augmented right-hand side) are carried along but
    never pivoted on.  Scanning columns left to right makes the pivot
    columns the greedy basis of the column space.
    """
    # coerce: int rows would hit float true-division below
    m = [[Fraction(v) for v in r] for r in rows]
    pivots: list[int] = []
    for col in range(width):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def fraction_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def fraction_nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of {u : r . u = 0 for all rows r}, exact."""
    m, pivots = rref(rows, dim)
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(tuple(vec))
    return basis


def solve_underdetermined(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Point]:
    """Particular solution of a consistent rational system (free vars = 0)."""
    dim = len(rows[0]) if rows else 0
    m, pivots = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)], dim)
    if any(r[dim] != 0 for r in m[len(pivots):]):
        return None  # inconsistent
    x = [Fraction(0)] * dim
    for r, pc in enumerate(pivots):
        x[pc] = m[r][dim]
    return tuple(x)


# ---------------------------------------------------------------------------
# Hyperplanes and instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    """The point set {y : normal . y = offset}; normal must be nonzero."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", as_scalar(self.offset))
        if all(c == 0 for c in self.normal):
            raise ZeroDirectionError("hyperplane normal is zero")

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class GeneralPositionResult:
    """Outcome of the exhaustive general-position check.

    ``violation`` names the offending hyperplane index set when not ok;
    ``reason`` is "degenerate" (some d-subset has no unique point) or
    "concurrent" (some d+1-subset shares a point).
    """

    ok: bool
    violation: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None


@dataclass(init=False, eq=False)
class Instance:
    """A family of hyperplanes in R^d, optionally colored.

    An instance is its integer rows: row i is hyperplane i times
    ``dens()[i]``, the lcm of its reduced denominators, stored once as the
    (n, d+1) ``int_array`` of ``row_array()`` with its largest |entry|.
    ``normal_ints()`` scales each normal alone to integers, and every kernel
    reads only these.  ``hyperplanes``, the rational ``Hyperplane`` form,
    is a view built on first access.  ``parse_instance`` hands the array it
    builds from a file to ``from_rows``; the constructor takes Hyperplanes,
    computes their rows and keeps the Hyperplanes as the view.

    Treated as an immutable value: equal instances have equal dimensions,
    rows (so equal hyperplanes), colors and metadata.  Private fields cache
    the normals' integer form, the general-position verdict and the edges.
    """

    dim: int
    _rows: tuple[np.ndarray, int]
    _dens: list[int]
    colors: Optional[list[int]]
    metadata: dict
    _hyperplanes: Optional[list[Hyperplane]] = field(default=None, repr=False)
    _normal_ints: Optional[tuple[np.ndarray, int, list[int]]] = field(default=None, repr=False)
    _gp: Optional[GeneralPositionResult] = field(default=None, repr=False)
    _edges: Optional[Sequence] = field(default=None, repr=False)

    def __init__(self, dim: int, hyperplanes: Sequence[Hyperplane],
                 colors: Optional[list[int]] = None, metadata: Optional[dict] = None):
        if dim < 1:
            raise DimensionMismatchError("dimension must be positive")
        hyperplanes = list(hyperplanes)
        for h in hyperplanes:
            if h.dim != dim:
                raise DimensionMismatchError("hyperplane dimension differs from instance")
        if colors is not None:
            if len(colors) != len(hyperplanes):
                raise DimensionMismatchError("colors length differs from hyperplane count")
            for c in colors:
                # as the parser reads them, so that the file parses back
                if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= dim:
                    raise ValueError(f"color {c!r} out of range [0, {dim}]")
        flat, dens = [], []
        for h in hyperplanes:
            den = math.lcm(h.offset.denominator, *(c.denominator for c in h.normal))
            flat.extend(c.numerator * (den // c.denominator) for c in h.normal)
            flat.append(h.offset.numerator * (den // h.offset.denominator))
            dens.append(den)
        self.dim, self._rows, self._dens = dim, int_array(flat, dim + 1), dens
        self.colors, self.metadata = colors, {} if metadata is None else metadata
        self._hyperplanes = hyperplanes

    @classmethod
    def from_rows(cls, dim: int, rows: tuple[np.ndarray, int], dens: list[int],
                  colors: Optional[list[int]] = None,
                  metadata: Optional[dict] = None) -> "Instance":
        """The instance of checked integer rows.

        ``rows`` is the ``int_array`` of the rows, each a nonzero normal of
        length ``dim`` and an offset: hyperplane i times ``dens[i]``, the lcm
        of its reduced denominators.
        """
        inst = cls.__new__(cls)
        inst.dim, inst._rows, inst._dens = dim, rows, dens
        inst.colors, inst.metadata = colors, {} if metadata is None else metadata
        return inst

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return ((self.dim, self._dens, self.colors, self.metadata)
                == (other.dim, other._dens, other.colors, other.metadata)
                and np.array_equal(self._rows[0], other._rows[0]))

    @property
    def n(self) -> int:
        return len(self._dens)

    @property
    def hyperplanes(self) -> list[Hyperplane]:
        """The rational hyperplanes: row i divided by ``dens()[i]``."""
        if self._hyperplanes is None:
            self._hyperplanes = [
                Hyperplane(tuple(Fraction(a, den) for a in row[:-1]), Fraction(row[-1], den))
                for row, den in zip(self._rows[0].tolist(), self._dens)
            ]
        return self._hyperplanes

    def dens(self) -> list[int]:
        """The row multipliers: row i is hyperplane i times ``dens()[i]``."""
        return self._dens

    def row_array(self) -> tuple[np.ndarray, int]:
        """The rows (normal_i, offset_i) as one read-only (n, d+1) ``int_array``.

        Returned with the rows' largest |entry|, a Python int.
        """
        return self._rows

    def normal_ints(self) -> tuple[np.ndarray, int]:
        """Each normal alone scaled to integers (``scale_to_int``), a positive multiple of it.

        The rows of a read-only (n, d) array in the dtype of ``row_array()``,
        returned with their largest |entry|.
        """
        if self._normal_ints is None:
            rows = self.row_array()[0]
            # gcd(a, den) is the factor by which the offset's denominator
            # multiplied the normal's own lcm of denominators
            factors = [math.gcd(den, *row[:-1]) for den, row in zip(self._dens, rows.tolist())]
            ints = rows[:, :-1] // np.array(factors, dtype=rows.dtype).reshape(-1, 1)
            ints.setflags(write=False)
            self._normal_ints = ints, int(np.abs(ints).max(initial=0)), factors
        return self._normal_ints[:2]

    def normal_factors(self) -> list[int]:
        """The positive c_i: row i's normal is c_i times row i of ``normal_ints()``."""
        self.normal_ints()
        return self._normal_ints[2]

    def color_classes(self) -> dict[int, list[int]]:
        if self.colors is None:
            return {}
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(self.colors):
            classes.setdefault(c, []).append(i)
        return classes


def vertex_blocks(F: Instance):
    """Every d-subset's common point with its residuals, in blocks.

    Takes the integer hyperplanes normal_i . y = offset_i of F (at least d
    of them) and yields ``(subsets, nums, den, R)`` over their d-subsets in
    combinations order, in the blocks of ``cofactor_blocks``.  ``subsets`` is (B, d);
    the vertex of subset b is nums[b] / den[b], where ``den`` (B,) is the
    absolute determinant of the subset's normals (0 for a singular subset)
    and ``nums`` (B, d) are the matching Cramer numerators; ``R`` (B, n) holds
    offset_i * den - normal_i . nums, which is zero exactly when hyperplane i
    passes through the vertex.  Each vertex is the cofactor vector of the
    rows (normal_i, -offset_i), which is proportional to (x, 1).

    The cofactors run in ``_exact_dtype`` of the rows.  R is at most
    (d+1)! * M^(d+1) for entries of size M, and below ``_FLOAT_SAFE`` it is
    a float64 product (holding the same integers), else one in that dtype.
    """
    A, max_abs = F.row_array()
    d = F.dim
    rows = A.astype(_exact_dtype(max_abs, d + 1))
    rows[:, d] *= -1
    # (nums, den) . (normal_i, -offset_i) is -R[:, i]
    negated = -rows.T
    exact_float = _stage_bound(max_abs, d + 1) < _FLOAT_SAFE
    if exact_float:
        negated = negated.astype(np.float64)
    for subsets, cof in cofactor_blocks(rows):
        cof = cof * np.where(cof[:, d] < 0, -1, 1)[:, np.newaxis]
        R = (cof.astype(np.float64) if exact_float else cof) @ negated
        yield subsets, cof[:, :d], cof[:, d], R


def checked_vertex_blocks(F: Instance):
    """``vertex_blocks`` of F's rows, checking general position on the way.

    A block is yielded only when it holds no singular d-subset and no
    (d+1)-subset whose members share a vertex.  After the first violation
    the rest of the table is searched only for a singular d-subset, which
    outranks a concurrent one.  The verdict is cached once the table has
    been read, and ``ensure_general_position`` raises a violation, a cached
    one before the first block.
    """
    if F._gp is not None:
        ensure_general_position(F)  # raises on a cached violation
    violation = None
    for block in vertex_blocks(F):
        subsets, _, den, R = block
        singular = np.flatnonzero(den == 0)
        if singular.size:
            violation = tuple(subsets[singular[0]].tolist()), "degenerate"
            break
        if violation is None:
            # a nonsingular vertex is on its own d hyperplanes, so a block
            # with more zeros holds a (d+1)-subset on one point: the first in
            # combinations order is sub + (j,) with j > max(sub)
            zero = R == 0
            if np.count_nonzero(zero) == zero.shape[0] * subsets.shape[1]:
                yield block
                continue
            n = R.shape[1]
            hits = np.flatnonzero(zero & (np.arange(n) > subsets[:, -1:]))
            v, j = divmod(int(hits[0]), n)
            violation = tuple(subsets[v].tolist()) + (j,), "concurrent"
    F._gp = GeneralPositionResult(False, *violation) if violation else GeneralPositionResult(True)
    ensure_general_position(F)


def check_general_position(F: Instance) -> GeneralPositionResult:
    """Exhaustive general-position check over all d- and (d+1)-subsets.

    Exact and brute force: with n >= d, a full ``checked_vertex_blocks``
    pass.  The reported violation is the first singular d-subset in
    combinations order, else the first (d+1)-subset whose members share a
    point.  The verdict is cached on the instance.
    """
    if F._gp is None and F.n < F.dim:
        # fewer hyperplanes than d: require independent normals instead
        F._gp = GeneralPositionResult(True)
        if fraction_rank(F.row_array()[0][:, :F.dim].tolist()) < F.n:
            F._gp = GeneralPositionResult(False, tuple(range(F.n)), "degenerate")
    elif F._gp is None:
        try:
            for _ in checked_vertex_blocks(F):
                pass
        except DegenerateInstanceError:
            pass  # the verdict is cached
    return F._gp


def ensure_general_position(F: Instance) -> None:
    gp = check_general_position(F)
    if not gp.ok:
        raise DegenerateInstanceError(
            f"instance is not in general position: {gp.reason} subset {gp.violation}"
        )
