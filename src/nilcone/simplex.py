"""Exact linear programming via two-phase simplex with Bland's rule.

Problems here are tiny (tens of variables), so the tableau stays dense and
Bland's anti-cycling rule is always active.  The tableau holds Python ints
only: each row is the rational row times a positive scale, and for a
constraint row that scale is its entry in its basic column.  A pivot
replaces each row with a nonzero in the entering column by
p*row - f*prow divided by the gcd of its entries, which keeps every sign
and every ratio of the rational tableau, so Bland's rule takes the same
pivots and the solution read off at the end is the same.  The reduced
costs are one more such row, with its own positive scale, built once per
phase and eliminated at each pivot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .linalg import ONE, ZERO, Vec, frac, integer_row, primitive

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Vec | None
    value: Fraction | None


def _eliminate(row: list[int], prow: list[int], p: int, f: int) -> None:
    """row := (p*row - f*prow) / gcd in place; p > 0 keeps the scale positive."""
    row[:] = primitive([p * a - f * b for a, b in zip(row, prow)])


def _pivot(
    rows: list[list[int]],
    basis: list[int],
    r: int,
    col: int,
    extra: tuple[list[int], ...] = (),
) -> None:
    """Make column col basic in row r; the rows in extra are eliminated too."""
    prow = rows[r]
    p = prow[col]
    if p < 0:  # only the phase-1 drive-out pivots on a negative entry
        prow[:] = [-v for v in prow]
        p = -p
    for row in itertools.chain(rows, extra):
        f = row[col]
        if f and row is not prow:
            _eliminate(row, prow, p, f)
    basis[r] = col


def _run_simplex(
    rows: list[list[int]],
    basis: list[int],
    costs: Sequence,
    allowed: set[int],
) -> str:
    """Maximize costs.x over the tableau in place; returns OPTIMAL or UNBOUNDED.

    costs are rationals; the reduced costs are kept as an integer row with
    a positive scale, of which only the signs are read.
    """
    # reduced costs relative to the current basis; zero on the basic
    # columns, which are (scaled) unit columns of the tableau
    reduced = [*integer_row(costs), 0]
    for i, b in enumerate(basis):
        if reduced[b]:
            _eliminate(reduced, rows[i], rows[i][b], reduced[b])
    ncols = len(costs)
    while True:
        # Bland: first improving index
        entering = next((j for j in range(ncols) if reduced[j] > 0 and j in allowed), None)
        if entering is None:
            return OPTIMAL
        # the ratio rhs_i / a_i is the rational one: the row scale cancels
        leaving = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving, rhs, den = i, row[-1], a
                    continue
                lhs, cur = row[-1] * den, rhs * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leaving]):
                    leaving, rhs, den = i, row[-1], a
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
    ub = list(zip(a_ub, b_ub))
    m_ub = len(ub)
    total = n + m_ub  # structural + slack; artificials appended below

    # each row over the structural and slack columns in coprime integers;
    # its slack (or artificial) entry is the row's positive scale.  A row
    # with a negative rhs is negated and gets an artificial instead.
    pending = []  # (coeffs, rhs, scale, basic slack column or None)
    for i, (arow, b) in enumerate(itertools.chain(ub, zip(a_eq, b_eq))):
        *coeffs, s, rhs = integer_row([*arow, 1, b])
        coeffs += [0] * m_ub
        slack = None
        if i < m_ub:
            coeffs[n + i] = s
            slack = n + i
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            slack = None
        pending.append((coeffs, rhs, s, slack))

    n_art = sum(1 for *_, slack in pending if slack is None)
    ncols = total + n_art
    rows: list[list[int]] = []
    basis: list[int] = []
    art = total
    for coeffs, rhs, s, slack in pending:
        row = coeffs + [0] * n_art + [rhs]
        if slack is None:
            slack = art
            row[slack] = s
            art += 1
        basis.append(slack)
        rows.append(row)

    if n_art:
        costs1 = [0] * total + [-1] * n_art
        if _run_simplex(rows, basis, costs1, set(range(ncols))) != OPTIMAL:
            raise InvariantViolation("phase 1 of the simplex is unbounded")
        # every rhs stays >= 0, so phase 1 reaches 0 exactly when no basic
        # artificial has a positive rhs
        if any(bcol >= total and row[-1] for row, bcol in zip(rows, basis)):
            return LPSolution(INFEASIBLE, None, None)
        # drive remaining basic artificials out (they sit at level zero)
        drop = []
        for i in range(len(rows)):
            if basis[i] >= total:
                col = next((j for j in range(total) if rows[i][j]), None)
                if col is None:
                    drop.append(i)  # redundant constraint
                else:
                    _pivot(rows, basis, i, col)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    costs2 = c + [ZERO] * (ncols - n)
    status = _run_simplex(rows, basis, costs2, set(range(total)))
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None)
    x = [ZERO] * n
    value = ZERO
    for row, bcol in zip(rows, basis):
        if bcol < n:
            x[bcol] = Fraction(row[-1], row[bcol])
            value += c[bcol] * x[bcol]
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
