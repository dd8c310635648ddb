from fractions import Fraction as F

import pytest

from nilcone.errors import SingularMatrixError
from nilcone.linalg import (
    ONE,
    ZERO,
    Echelon,
    dense_row,
    det,
    leading_principal_minors,
    mat,
    min_norm_solution,
    nullspace,
    solve_affine,
    vec,
)


def mat_mul(a, b):
    """Oracle: the dense matrix product."""
    return tuple(tuple(sum((x * y for x, y in zip(ra, cb)), F(0)) for cb in zip(*b)) for ra in a)


def mat_vec(a, v):
    """Oracle: the dense matrix-vector product."""
    return tuple(sum((r[j] * v[j] for j in range(len(v))), ZERO) for r in a)


def mat_inv(a):
    """Oracle: the inverse by Gauss-Jordan elimination on [a | 1]."""
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def span_rank(vectors, ncols: int) -> int:
    """Oracle: the rank of the span, by one echelon form."""
    ech = Echelon(ncols)
    for v in vectors:
        ech.add_row(dense_row(v))
    return ech.rank


def test_mat_inv_roundtrip():
    a = mat([[2, 1], [5, 3]])
    inv = mat_inv(a)
    assert mat_mul(a, inv) == mat([[1, 0], [0, 1]])


def test_mat_inv_singular():
    with pytest.raises(SingularMatrixError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_det_values():
    assert det(mat([[2, 1], [5, 3]])) == 1
    assert det(mat([[1, 2], [2, 4]])) == 0
    # a swap changes the sign
    assert det(mat([[0, 1], [1, 0]])) == -1


def test_leading_principal_minors():
    a = mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert leading_principal_minors(a) == [2, 3, 4]


def test_nullspace_free_variables_at_low_indices():
    # single relation x2 = x0 + x1: free variables are x0, x1
    rows = [{0: F(1), 1: F(1), 2: F(-1)}]
    basis = nullspace(rows, 3)
    assert basis == [vec([1, 0, 1]), vec([0, 1, 1])]


def test_nullspace_full_rank():
    rows = [{0: F(1)}, {1: F(1)}]
    assert nullspace(rows, 2) == []


def test_echelon_rank_and_consistency():
    ech = Echelon(3)
    ech.add_row({0: F(1), 1: F(1)})
    ech.add_row({0: F(2), 1: F(2)})  # dependent
    assert ech.rank == 1
    ech.add_row({2: F(1)})
    assert ech.rank == 2


def _echelon(*rows):
    ech = Echelon(4)
    for r in rows:
        ech.add_row(dense_row(vec(r)))
    return ech


def test_echelon_reduce_row_in_span_is_empty():
    ech = _echelon([1, 2, 0, 1], [0, 1, 1, 0])
    assert ech.reduce(dense_row(vec([2, 1, -3, 2]))) == {}


def test_echelon_reduce_is_idempotent():
    ech = _echelon([1, 2, 0, 1], [0, 1, 1, 0])
    once = ech.reduce({0: F(3), 1: F(1), 2: F(5), 3: F(-2)})
    assert once
    assert ech.reduce(once) == once


def test_echelon_reduce_leaves_no_pivot_column():
    ech = _echelon([1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0])
    row = {0: F(1), 1: F(-1), 2: F(2), 3: F(7)}
    assert not set(ech.reduce(row)) & set(ech.pivots)
    assert row == {0: F(1), 1: F(-1), 2: F(2), 3: F(7)}  # input left untouched


def test_solve_affine_particular_plus_nullspace():
    # x0 + x1 = 3, x1 = 1
    sol = solve_affine([{0: F(1), 1: F(1)}, {1: F(1)}], [F(3), F(1)], 2)
    assert sol is not None
    part, null = sol
    assert part == vec([2, 1])
    assert null == []


def test_solve_affine_inconsistent():
    sol = solve_affine([{0: F(1)}, {0: F(1)}], [F(1), F(2)], 1)
    assert sol is None


def test_span_rank():
    vs = [vec([1, 0, 1]), vec([0, 1, 1]), vec([1, 1, 2])]
    assert span_rank(vs, 3) == 2


def test_min_norm_solution():
    # affine line (1, 0) + t (1, 1); closest point to origin is (1/2, -1/2)
    got = min_norm_solution(vec([1, 0]), [vec([1, 1])])
    assert got == vec([F(1, 2), F(-1, 2)])


def test_min_norm_without_freedom():
    assert min_norm_solution(vec([3, 4]), []) == vec([3, 4])


def test_mat_vec():
    assert mat_vec(mat([[1, 2], [3, 4]]), vec([1, 1])) == vec([3, 7])


def test_dense_row_drops_zeros():
    assert dense_row(vec([0, 5, 0, -1])) == {1: F(5), 3: F(-1)}
