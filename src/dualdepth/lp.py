"""Small dense linear programming over rationals: float guess, exact answer.

``maximize`` first scales every constraint row (A_i | -b_i) and the
objective to integers, once, by the lcm of their denominators; this keeps
the feasible set and the optimum and only rescales the multipliers by
positive factors.  It then works in two stages, and floats only guess.
Every returned status, point and value is Fraction-exact.

1. Float guess.  A two-phase float64 simplex on the dual,
   min b.y subject to A^T y = c, y >= 0, finds an optimal basis.  Its
   tableau has only one row per variable, so it stays tiny; the basis names
   the primal rows B that are tight at the optimum.
2. Exact certificate.  One ``stacked_cofactors`` call on the integer rows
   solves both square systems: the cofactor vector of (A_B | -b_B) is
   proportional to (x, 1), and that of (A_B^T | -c) to (y_B, 1).  The guess
   is accepted only if A_B is nonsingular (the last entries, +-det A_B, are
   nonzero), every multiplier is strictly positive, and A num <= b den holds
   on every row, checked in the integer dtype ``exact_int_array`` picks
   (int64 when its bound allows, Python ints otherwise).  Then y proves x
   optimal, and strictly positive multipliers make x the only optimum
   (every optimum has the rows of B tight), so x is exactly what the
   simplex below would return.

Everything else goes to the exact simplex: a coefficient out of float
range, a float solve that fails, is infeasible or unbounded or runs past
its pivot cap, a singular or infeasible basis, and a multiplier at or near
zero, where the optimum need not be unique.  That is a textbook two-phase
simplex on Fraction arithmetic with Bland's rule, so it terminates on every
input and never rounds.  This is the float-guess, exact-certificate scheme
of QSopt_ex (Applegate, Cook, Dash & Espinoza 2007) cut down to desk-scale
certificate problems: tens of constraints and a handful of variables, where
density and asymptotics are non-concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .geometry import as_scalar, dot, exact_int_array, scale_to_int, stacked_cofactors

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


# Float tolerance of the guess (on rows scaled to max |a_ij| = 1); the
# exact certificate decides, so it only trades guesses against fallbacks.
_EPS = 1e-9


def _float_pivot(T, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = j


def _float_run(T, basis, m, cap) -> Optional[bool]:
    """Pivot tableau T to the minimum of its last row over its first m columns.

    Dantzig's rule.  Returns True at the optimum, False when unbounded and
    None after ``cap`` pivots.
    """
    for _ in range(cap):
        d = T[-1, :m]
        j = int(d.argmin())
        if d[j] >= -_EPS:
            return True
        col = T[:-1, j]
        rows = np.flatnonzero(col > _EPS)
        if not len(rows):
            return False
        ratios = T[rows, -1] / col[rows]
        _float_pivot(T, basis, int(rows[ratios.argmin()]), j)
    return None


def _float_basis(c, rows) -> Optional[list[int]]:
    """Rows tight at a float64 optimum of max c.x subject to rows . (x, 1) <= 0.

    Solves the dual min b.y subject to A^T y = c, y >= 0 (with rows = (A | -b))
    by a two-phase tableau simplex and returns its basis, the indices of
    len(c) rows, sorted.  Returns None when a coefficient is out of float
    range, the solve fails, or some basic multiplier is within tolerance of
    zero.
    """
    m, n = len(rows), len(c)
    if n == 0 or m < n:
        return None
    try:
        M = np.array(rows, dtype=float)
        cf = np.array(c, dtype=float)
    except OverflowError:
        return None
    Af, bf = M[:, :n], -M[:, n]
    with np.errstate(all="ignore"):
        # scaling a primal row scales its multiplier and keeps the basis
        scale = np.abs(Af).max(axis=1)
        scale[scale == 0] = 1.0
        Af /= scale[:, None]
        bf /= scale
        if not np.isfinite(bf).all():
            return None
        # rows A^T y = c, signed so that the right-hand side is >= 0, each
        # with an artificial variable (columns m..m+n-1) as the start basis
        sign = np.where(cf < 0, -1.0, 1.0)
        T = np.zeros((n + 1, m + n + 1))
        T[:n, :m] = Af.T * sign[:, None]
        T[:n, m : m + n] = np.eye(n)
        T[:n, -1] = cf * sign
        basis = list(range(m, m + n))
        cap = 10 * (m + n)
        # phase 1: minimize the sum of the artificials
        T[n] = -T[:n].sum(axis=0)
        T[n, m : m + n] = 0.0
        # the last entry is minus the sum of the artificials
        if not _float_run(T, basis, m, cap) or T[n, -1] < -_EPS * max(1.0, np.abs(cf).sum()):
            return None
        for r in range(n):
            if basis[r] >= m:  # drive a zero artificial out, or give up
                js = np.flatnonzero(np.abs(T[r, :m]) > _EPS)
                if not len(js):
                    return None
                _float_pivot(T, basis, r, int(js[0]))
        # phase 2: minimize b.y
        T[n] = 0.0
        T[n, :m] = bf
        T[n] -= bf[basis] @ T[:n]
        if not _float_run(T, basis, m, cap):
            return None
        # a multiplier near 0 means the optimum may not be unique: leave it
        # to the exact simplex without trying the certificate
        if not np.isfinite(T).all() or T[:n, -1].min() <= _EPS:
            return None
    return sorted(basis)


def _certify(c, rows, tight) -> Optional[tuple[Fraction, ...]]:
    """The optimum with rows ``tight`` active, if this basis proves it unique.

    ``rows`` are the integer constraints rows . (x, 1) <= 0 and ``c`` the
    integer objective.  One cofactor call solves both systems: the cofactor
    vector v of the rows (A_B | -b_B) is proportional to (x, 1), and w of
    (A_B^T | -c) to (y_B, 1); both last entries are +-det A_B.  Accepts
    when A_B is nonsingular, every row holds and every multiplier is > 0.
    """
    n, m = len(c), len(rows)
    dual = [[rows[i][k] for i in tight] + [-c[k]] for k in range(n)]
    M = exact_int_array(list(rows) + dual, n + 1)
    v, w = stacked_cofactors(np.stack([M[tight], M[m:]]))
    den = int(v[n])
    if den == 0:
        return None  # singular A_B
    sign = 1 if den > 0 else -1
    # y_B = w[:n] / w[n] > 0
    if (w[:n] * (1 if w[n] > 0 else -1) <= 0).any():
        return None
    # row . v = A_i . num - b_i den, with den > 0 once v is signed
    if ((M[:m] @ v) * sign > 0).any():
        return None
    return tuple(Fraction(int(num), den) for num in v[:n])


def _maximize_exact(c, A, b) -> LPResult:
    """Exact simplex with free variables split as x = u - v, u, v >= 0."""
    n = len(c)
    c2 = c + [-v for v in c]
    A2 = [row + [-v for v in row] for row in A]
    res = _solve_standard(c2, A2, b)
    if res.status != OPTIMAL:
        return res
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    return LPResult(OPTIMAL, x, res.value)


def maximize(c: Sequence, A_ub: Sequence[Sequence], b_ub: Sequence) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub with x free (sign-unrestricted).

    A unique optimum is certified from the float guess; any other case is
    solved by the exact simplex.  Both give the same exact answer.
    """
    c = [as_scalar(v) for v in c]
    b = [as_scalar(v) for v in b_ub]
    A = [[as_scalar(v) for v in row] for row in A_ub]
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError("constraint row length differs from objective length")
    # each row times the lcm of its denominators: the same constraints in ints
    rows = [scale_to_int(row + [-bi]) for row, bi in zip(A, b)]
    obj = scale_to_int(c)
    tight = _float_basis(obj, rows)
    if tight is not None:
        x = _certify(obj, rows, tight)
        if x is not None:
            return LPResult(OPTIMAL, x, dot(c, x))
    return _maximize_exact(c, A, b)
