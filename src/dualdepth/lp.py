"""Small dense exact linear programming over rationals.

A textbook two-phase simplex on Fraction arithmetic with Bland's rule, so
it terminates on every input and never rounds.  Built for desk-scale
certificate problems (tens of constraints, a handful of variables); density
and asymptotics are non-concerns at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import as_scalar

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


def maximize(c: Sequence, A_ub: Sequence[Sequence], b_ub: Sequence) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub with x free (sign-unrestricted)."""
    c = [as_scalar(v) for v in c]
    b = [as_scalar(v) for v in b_ub]
    A = [[as_scalar(v) for v in row] for row in A_ub]
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError("constraint row length differs from objective length")
    # split free variables x = u - v with u, v >= 0
    c2 = c + [-v for v in c]
    A2 = [row + [-v for v in row] for row in A]
    res = _solve_standard(c2, A2, b)
    if res.status != OPTIMAL:
        return res
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return LPResult(OPTIMAL, x, res.value)
