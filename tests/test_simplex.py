from fractions import Fraction as F

import pytest

from nilcone import simplex
from nilcone.errors import InvariantViolation
from nilcone.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, feasible_nonneg, max_margin, solve_lp


def over(num, den):
    """num / den entrywise, once den > 0 and every entry of num is an int."""
    assert type(den) is int and den > 0 and all(type(v) is int for v in num)
    return tuple(F(v, den) for v in num)


def solution(sol):
    """The rational x of an optimal LPSolution."""
    return over(sol.num, sol.den)


def margin(got):
    """max_margin's (eps, num, den) as (eps, x), or None."""
    return None if got is None else (got[0], over(*got[1:]))


def test_basic_optimal():
    # max x + y, x + 2y <= 4, 3x + y <= 6
    sol = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert sol.status == OPTIMAL
    assert sol.value == F(14, 5)
    assert solution(sol) == (F(8, 5), F(6, 5))


def test_unbounded():
    sol = solve_lp([1], [[-1]], [0])
    assert sol.status == UNBOUNDED


def test_infeasible_equalities():
    sol = solve_lp([0, 0], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2])
    assert sol.status == INFEASIBLE


def test_negative_rhs_needs_artificials():
    # -x <= -2 means x >= 2
    sol = solve_lp([-1], [[-1]], [-2])
    assert sol.status == OPTIMAL
    assert solution(sol) == (F(2),)


def test_equality_constraints():
    sol = solve_lp([1, 0], a_eq=[[1, 1]], b_eq=[5], a_ub=[[1, 0]], b_ub=[3])
    assert sol.status == OPTIMAL
    assert solution(sol) == (F(3), F(2))


def test_redundant_equality_dropped():
    sol = solve_lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
    assert sol.status == OPTIMAL
    assert sol.value == 2


def test_every_row_dropped_as_redundant():
    # 0.x = 0 leaves no row after phase 1; x >= 0 alone bounds only from below
    assert solve_lp([1], a_eq=[[0]], b_eq=[0]).status == UNBOUNDED
    sol = solve_lp([-1], a_eq=[[0]], b_eq=[0])
    assert (sol.status, solution(sol), sol.value) == (OPTIMAL, (F(0),), F(0))


def test_exact_fractions_survive():
    # max x/3 s.t. (2/7) x <= 1/5, with the row times 7 and the cost times 3:
    # the right-hand side stays rational, x is the rational LP's (7/10), and
    # the value is 3 times its value 7/30
    sol = solve_lp([1], [[2]], [F(7, 5)])
    assert sol.status == OPTIMAL
    assert solution(sol) == (F(7, 10),)
    assert sol.value == 3 * F(7, 30)


def test_determinism():
    args = ([1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1])
    first = solve_lp(*args)
    for _ in range(5):
        again = solve_lp(*args)
        assert (again.num, again.den) == (first.num, first.den)
        assert solution(again) == solution(first)
        assert again.value == first.value


def test_feasible_nonneg():
    x = over(*feasible_nonneg([[1, 1]], [1]))
    assert sum(x) == 1 and all(v >= 0 for v in x)
    assert feasible_nonneg([[1, 1]], [-1]) is None


def test_max_margin_nonneg():
    # x >= 1 + eps and x <= 2 - eps: the margin peaks at eps = 1/2, x = 3/2
    assert margin(max_margin([[-1], [1]], [-1, 2])) == (F(1, 2), (F(3, 2),))


def test_max_margin_caps_at_one():
    # x + eps <= 5 alone would allow eps = 5
    assert margin(max_margin([[1]], [5])) == (F(1), (F(0),))


def test_max_margin_free_with_equalities():
    # x1 <= -eps needs a negative coordinate, so only the free split solves it
    assert max_margin([[1, 0]], [0], [[1, -1]]) is None
    eps, x = margin(max_margin([[1, 0]], [0], [[1, -1]], free=2))
    assert eps == 1 and x[0] == x[1] and x[0] <= -1
    # x1 free, x2 >= 0: x1 = x2 cannot be negative
    assert max_margin([[1, 0]], [0], [[1, -1]], free=1) is None


def test_max_margin_leading_free_columns():
    # x1 free, x2 >= 0, x1 + x2 < 0 and x1 - x2 < -1: x1 = -1, x2 = 0 at eps = 1
    eps, x = margin(max_margin([[1, 1], [1, -1]], [0, -1], free=1))
    assert eps == 1 and x[0] < 0 and x[1] >= 0
    assert max_margin([[0, 1]], [0], free=1) is None  # x2 < 0 with x2 >= 0


def test_max_margin_infeasible():
    assert max_margin([[1], [-1]], [0, 0], free=1) is None  # x < 0 < x
    assert max_margin([[-1, 0], [0, -1]], [0, 0], [[1, 1]], free=2) is None


def test_split_order_puts_the_mirrors_before_the_last_variable():
    # max_margin's split LP: x0 = u0 - v0, x1 = u1 - v1 free, x2 >= 0, eps,
    # then two slacks; v_j is stored as column j with sign -1
    assert simplex._split_order(4, 2, 6) == [
        (0, 1), (1, 1), (2, 1), (0, -1), (1, -1), (3, 1), (4, 1), (5, 1)]
    assert simplex._split_order(2, 0, 3) == [(0, 1), (1, 1), (2, 1)]


def test_unbounded_phase_one_raises(monkeypatch):
    monkeypatch.setattr(simplex, "_run_simplex", lambda *args: UNBOUNDED)
    with pytest.raises(InvariantViolation):
        solve_lp([0], a_eq=[[1]], b_eq=[1])
