"""Exact linear programming via two-phase simplex with Bland's rule.

Problems here are tiny (tens of variables), so each tableau row is a dense
list and Bland's anti-cycling rule is always active.  The costs and every
constraint coefficient come in as ``int``; only a right-hand side may be a
``Fraction``, and its row is multiplied by that one denominator
(``b.denominator`` and ``b.numerator`` read an ``int`` as well), so the
tableau starts in integers with no per-row conversion.  A caller holding
rational columns scales each one by a positive factor once and divides the
solution's entry by it: a column scaled by L > 0 keeps the sign of its
reduced cost, and each of its ratios in the ratio test is divided by the
same L, so Bland's rule takes the same pivots.

The tableau holds Python ints only: each row is the rational row times a
positive scale, and for a constraint row that scale is its entry in its
basic column.  A pivot lists the pivot row's nonzero (column, value) pairs
once, and in one pass over them replaces each other row with a nonzero f
in the entering column by p*row - f*prow divided by the gcd of its
entries, p > 0 being the pivot entry; the reduced costs are one more such
row, with its own positive scale, built once per phase by the same step.
At p = 1 the row is row - f*prow, not divided: prow is 0 at the row's
basic column, so the scale is unchanged and the entries, the rational row
times that scale, do not grow.  Either way every sign and ratio of the
rational tableau is kept, so Bland's rule takes the same pivots.

Free variables are folded.  Written as x_j = u_j - v_j over two nonnegative
columns, the column of v_j is minus that of u_j in every row, the
reduced-cost row included, at every pivot: row operations act on both
alike, and their costs are negatives of each other.  So only u_j is
stored, and v_j is read as (u_j's column, sign -1).  Bland's rule still
runs over the split columns, in the order u, the other variables but the
last, v, the last variable, slacks, artificials, which is the split LP that
``max_margin`` poses with its eps last.  ``basis`` holds split indices, so
ratio-test ties are broken by the split index of the basic variable.

The solution is read off in integers: x_j = row[-1] / row[j] on the row
where u_j or v_j is basic (a basic v_j has scale -row[j]), returned as
num_j over den, the lcm of the scales of the rows of the nonzero x_j; only
the objective value is a ``Fraction``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InvariantViolation

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    """x = num / den entrywise (den > 0), value = c.x; None unless OPTIMAL."""

    status: str
    num: tuple[int, ...] | None
    den: int | None
    value: Fraction | None


def _split_order(n: int, free: int, ncols: int) -> list[tuple[int, int]]:
    """(stored column, sign) of each split column, in Bland's order.

    Stored columns 0..n-1 hold the variables, the first ``free`` of them
    free, and n..ncols-1 the slacks and artificials.  The mirror v_j of a
    free x_j is (j, -1) and comes just before the last variable.
    """
    if not free:
        return [(j, 1) for j in range(ncols)]
    return [*((j, 1) for j in range(n - 1)), *((j, -1) for j in range(free)),
            *((j, 1) for j in range(n - 1, ncols))]


def _clear(targets, prow: list[int], col: int, sign: int) -> None:
    """The pivot step of the module docstring at split column (col, sign),
    p = sign * prow[col] > 0, on each target row but prow itself."""
    p = sign * prow[col]
    pairs = [(c, v) for c, v in enumerate(prow) if v]
    for row in targets:
        f = row[col]
        if f and row is not prow:
            f *= sign
            if p != 1:
                row[:] = [p * a for a in row]
            for c, v in pairs:
                row[c] -= f * v
            if p != 1 and (g := gcd(*row)) > 1:
                row[:] = [a // g for a in row]


def _pivot(
    rows: list[list[int]],
    basis: list[int],
    r: int,
    s: int,
    order: list[tuple[int, int]],
    extra: tuple[list[int], ...] = (),
) -> None:
    """Make split column s basic in row r; the rows in extra are cleared too."""
    col, sign = order[s]
    prow = rows[r]
    if sign * prow[col] < 0:  # only the phase-1 drive-out pivots on a negative entry
        prow[:] = [-v for v in prow]
    _clear(itertools.chain(rows, extra), prow, col, sign)
    basis[r] = s


def _run_simplex(
    rows: list[list[int]],
    basis: list[int],
    costs: Sequence,
    order: list[tuple[int, int]],
    limit: int,
) -> str:
    """Maximize costs.x over the tableau in place; returns OPTIMAL or UNBOUNDED.

    costs are ints over the stored columns; the reduced costs are kept as
    an integer row with a positive scale, of which only the signs are
    read.  Only the first ``limit`` split columns may enter.
    """
    # reduced costs relative to the current basis; zero on the basic
    # columns, which are (scaled, signed) unit columns of the tableau
    reduced = [*costs, 0]
    for row, b in zip(rows, basis):
        col, sign = order[b]
        if reduced[col]:
            _clear((reduced,), row, col, sign)
    candidates = list(enumerate(order[:limit]))
    while True:
        # Bland: first improving split index
        entering = next((s for s, (col, sign) in candidates if sign * reduced[col] > 0), None)
        if entering is None:
            return OPTIMAL
        col, sign = order[entering]
        # the ratio rhs_i / a_i is the rational one: the row scale cancels
        leaving = None
        for i, row in enumerate(rows):
            a = sign * row[col]
            if a > 0:
                if leaving is None:
                    leaving, rhs, den = i, row[-1], a
                    continue
                lhs, cur = row[-1] * den, rhs * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leaving]):
                    leaving, rhs, den = i, row[-1], a
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, basis, leaving, entering, order, (reduced,))


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    free: int = 0,
) -> LPSolution:
    """Maximize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq.

    c, a_ub and a_eq hold ints; b_ub and b_eq may hold Fractions.  x_j >= 0
    except for the first ``free`` variables, which are free and folded as
    the module docstring says; a nonzero ``free`` is below len(c).
    """
    n = len(c)
    ub = list(zip(a_ub, b_ub))
    eq = list(zip(a_eq, b_eq))
    m_ub = len(ub)
    total = n + m_ub  # structural + slack; artificials after them
    # an equality row, and an inequality row with a negative rhs, starts
    # from an artificial
    n_art = sum(1 for _, b in ub if b < 0) + len(eq)
    ncols = total + n_art

    # each row is the rational row times b's denominator s, so its slack
    # (or artificial) entry s is the row's positive scale.  A row with a
    # negative rhs is negated and gets an artificial instead.
    rows: list[list[int]] = []
    basis: list[int] = []  # split indices; stored column j >= n is split j + free
    art = total
    for i, (arow, b) in enumerate(itertools.chain(ub, eq)):
        s, rhs = b.denominator, b.numerator
        row = [s * a for a in arow] if s != 1 else list(arow)
        row += [0] * (ncols - n)
        row.append(rhs)
        if i < m_ub:
            row[n + i] = s
        if rhs < 0:
            row = [-v for v in row]
        if i < m_ub and rhs >= 0:
            basis.append(n + i + free)
        else:
            row[art] = s
            basis.append(art + free)
            art += 1
        rows.append(row)
    order = _split_order(n, free, ncols)
    nsplit = total + free  # split columns other than the artificials

    if n_art:
        costs1 = [0] * total + [-1] * n_art
        if _run_simplex(rows, basis, costs1, order, len(order)) != OPTIMAL:
            raise InvariantViolation("phase 1 of the simplex is unbounded")
        # every rhs stays >= 0, so phase 1 reaches 0 exactly when no basic
        # artificial has a positive rhs
        if any(b >= nsplit and row[-1] for row, b in zip(rows, basis)):
            return LPSolution(INFEASIBLE, None, None, None)
        # drive remaining basic artificials out (they sit at level zero);
        # v_j is nonzero only where u_j is, and u_j comes first
        drop = []
        for i, row in enumerate(rows):
            if basis[i] >= nsplit:
                s = next((s for s in range(nsplit) if row[order[s][0]]), None)
                if s is None:
                    drop.append(i)  # redundant constraint
                else:
                    _pivot(rows, basis, i, s, order)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    status = _run_simplex(rows, basis, [*c, *[0] * (ncols - n)], order, nsplit)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, None)
    basic = [(order[b][0], row) for row, b in zip(rows, basis) if b < n + free and row[-1]]
    den = lcm(*[abs(row[col]) for col, row in basic])
    num = [0] * n
    for col, row in basic:
        num[col] = row[-1] * den // row[col]
    return LPSolution(OPTIMAL, tuple(num), den, Fraction(sum(map(operator.mul, c, num)), den))


def feasible_nonneg(a_eq: Sequence[Sequence], b_eq: Sequence) -> tuple[tuple[int, ...], int] | None:
    """Find x >= 0 with a_eq.x = b_eq, as (num, den) with x = num / den, or None."""
    ncols = len(a_eq[0]) if a_eq else 0
    sol = solve_lp([0] * ncols, a_eq=a_eq, b_eq=b_eq)
    return (sol.num, sol.den) if sol.status == OPTIMAL else None


def max_margin(
    a_ub: Sequence[Sequence], b_ub: Sequence, a_eq: Sequence[Sequence] = (), free: int = 0
) -> tuple[Fraction, tuple[int, ...], int] | None:
    """Strict feasibility of a_ub.x < b_ub, a_eq.x = 0 by one exact LP.

    Maximizes eps <= 1 subject to a_ub.x + eps <= b_ub and a_eq.x = 0;
    the first ``free`` entries of x are free, the rest are >= 0.  a_ub
    and a_eq hold ints, b_ub may hold Fractions, and a_ub needs at least
    one row.  Returns (eps, num, den), x = num / den, when the optimal eps
    is positive, else None.
    A row of a_ub with no nonzero coefficient and a bound b <= 0 reads
    eps <= b <= 0 on its own, so it returns None before any tableau is
    built: the LP would find eps <= 0 or no feasible point.  The bound is
    compared only on such a row.
    """
    if any(not any(row) and b <= 0 for row, b in zip(a_ub, b_ub)):
        return None
    k = len(a_ub[0])
    sol = solve_lp(
        [0] * k + [1],
        [[*row, 1] for row in a_ub] + [[0] * k + [1]],
        [*b_ub, 1],
        [[*row, 0] for row in a_eq],
        [0] * len(a_eq),
        free,
    )
    if sol.status != OPTIMAL or sol.value <= 0:
        return None
    return sol.value, sol.num[:k], sol.den
