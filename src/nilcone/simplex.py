"""Exact rational linear programming via two-phase simplex with Bland's rule.

Problems here are tiny (tens of variables), so the tableau stays dense and
Bland's anti-cycling rule is always active.  The reduced costs are built
once per phase and then eliminated at each pivot like one more tableau
row, and a pivot only touches the nonzero columns of the pivot row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .linalg import ONE, ZERO, Vec, frac

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Vec | None
    value: Fraction | None


def _pivot(
    rows: list[list[Fraction]],
    basis: list[int],
    r: int,
    col: int,
    extra: tuple[list[Fraction], ...] = (),
) -> None:
    """Make column col basic in row r; the rows in extra are eliminated too."""
    prow = rows[r]
    inv = ONE / prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    if inv != 1:
        for j in nz:
            prow[j] *= inv
    for row in itertools.chain(rows, extra):
        f = row[col]
        if f and row is not prow:
            for j in nz:
                row[j] -= f * prow[j]
    basis[r] = col


def _run_simplex(
    rows: list[list[Fraction]],
    basis: list[int],
    costs: list[Fraction],
    allowed: set[int],
) -> str:
    """Maximize costs.x over the tableau in place; returns OPTIMAL or UNBOUNDED."""
    # reduced costs relative to the current basis; zero on the basic
    # columns, which are unit columns of the tableau
    reduced = list(costs) + [ZERO]
    for i, b in enumerate(basis):
        cb = costs[b]
        if cb:
            for j, v in enumerate(rows[i]):
                if v:
                    reduced[j] -= cb * v
    ncols = len(costs)
    while True:
        # Bland: first improving index
        entering = next((j for j in range(ncols) if reduced[j] > 0 and j in allowed), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(len(rows)):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, basis, leaving, entering, (reduced,))


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPSolution:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0."""
    c = [frac(v) for v in c]
    n = len(c)
    ub = [([frac(v) for v in row], frac(b)) for row, b in zip(a_ub, b_ub)]
    eq = [([frac(v) for v in row], frac(b)) for row, b in zip(a_eq, b_eq)]
    m_ub = len(ub)

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    total = n + m_ub  # structural + slack; artificials appended below

    pending = []  # (coeffs over total cols, rhs, slack_is_basic)
    for i, (arow, b) in enumerate(ub):
        coeffs = arow + [ZERO] * m_ub
        coeffs[n + i] = ONE
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
            pending.append((coeffs, b, False))
        else:
            pending.append((coeffs, b, True))
    for arow, b in eq:
        coeffs = list(arow) + [ZERO] * m_ub
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        pending.append((coeffs, b, False))

    n_art = sum(1 for _, _, ok in pending if not ok)
    ncols = total + n_art
    art_i = 0
    for coeffs, b, slack_basic in pending:
        row = coeffs + [ZERO] * n_art + [b]
        if slack_basic:
            basis.append(coeffs.index(ONE, n))
        else:
            col = total + art_i
            row[col] = ONE
            art_cols.append(col)
            basis.append(col)
            art_i += 1
        rows.append(row)

    if art_cols:
        costs1 = [ZERO] * ncols
        for col in art_cols:
            costs1[col] = -ONE
        if _run_simplex(rows, basis, costs1, set(range(ncols))) != OPTIMAL:
            raise InvariantViolation("phase 1 of the simplex is unbounded")
        val = sum((costs1[basis[i]] * rows[i][-1] for i in range(len(rows))), ZERO)
        if val != 0:
            return LPSolution(INFEASIBLE, None, None)
        # drive remaining basic artificials out (they sit at level zero)
        drop = []
        for i in range(len(rows)):
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(total) if rows[i][j] != 0),
                    None,
                )
                if col is None:
                    drop.append(i)  # redundant constraint
                else:
                    _pivot(rows, basis, i, col)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    costs2 = c + [ZERO] * (ncols - n)
    allowed = set(range(total))
    status = _run_simplex(rows, basis, costs2, allowed)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)
    x = [ZERO] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = rows[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return LPSolution(OPTIMAL, tuple(x), value)


def feasible_nonneg(a_eq: Sequence[Sequence], b_eq: Sequence) -> Vec | None:
    """Find x >= 0 with a_eq.x = b_eq, or None."""
    ncols = len(a_eq[0]) if a_eq else 0
    sol = solve_lp([ZERO] * ncols, a_eq=a_eq, b_eq=b_eq)
    return sol.x if sol.status == OPTIMAL else None


def max_margin(
    a_ub: Sequence[Sequence], b_ub: Sequence, a_eq: Sequence[Sequence] = (), free: bool = False
) -> tuple[Fraction, Vec] | None:
    """Strict feasibility of a_ub.x < b_ub, a_eq.x = 0 by one exact LP.

    Maximizes eps <= 1 subject to a_ub.x + eps <= b_ub and a_eq.x = 0,
    with x >= 0, or x free (split as u - v); a_ub needs at least one row.
    Returns (eps, x) when the optimal eps is positive, else None.
    """

    def split(row) -> list:
        return list(row) + [-v for v in row] if free else list(row)

    k = len(a_ub[0])
    width = 2 * k if free else k
    rows = [split(row) + [ONE] for row in a_ub] + [[ZERO] * width + [ONE]]
    sol = solve_lp(
        [ZERO] * width + [ONE],
        rows,
        list(b_ub) + [ONE],
        [split(row) + [ZERO] for row in a_eq],
        [ZERO] * len(a_eq),
    )
    if sol.status != OPTIMAL or sol.value <= 0:
        return None
    x = sol.x[:k]
    if free:
        x = tuple(u - v for u, v in zip(x, sol.x[k:width]))
    return sol.value, x
