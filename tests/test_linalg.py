from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone.linalg import (
    ONE,
    ZERO,
    Echelon,
    det,
    frac,
    integer_row,
    leading_principal_minors,
    nullspace,
    primitive,
)


class SingularMatrix(ArithmeticError):
    """An oracle met a singular matrix."""


def vec(xs):
    """A rational vector from int or Fraction entries."""
    return tuple(frac(x) for x in xs)


def mat(rows):
    """A rational matrix from rows of int or Fraction entries."""
    return tuple(vec(r) for r in rows)


def bracket(mu, x, y):
    """Oracle: mu(x, y) for arbitrary rational vectors (0-based coordinates)."""
    out = [ZERO] * mu.dim
    for (i, j, k), cv in mu.constants.items():
        coeff = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if coeff:
            out[k - 1] += cv * coeff
    return tuple(out)


def rep_action(e, mu) -> dict[tuple[int, int], tuple]:
    """Oracle: (E.mu)(e_i, e_j) for i < j, as coefficient vectors, for a
    dense rational matrix E."""
    n = mu.dim
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = [ZERO] * n
            # E mu(e_i, e_j)
            for k in range(1, n + 1):
                cv = mu.c(i, j, k)
                if cv:
                    for r in range(n):
                        if e[r][k - 1]:
                            res[r] += cv * e[r][k - 1]
            # - mu(E e_i, e_j) - mu(e_i, E e_j)
            for p in range(1, n + 1):
                if e[p - 1][i - 1]:
                    for k in range(1, n + 1):
                        cv = mu.c(p, j, k)
                        if cv:
                            res[k - 1] -= e[p - 1][i - 1] * cv
                if e[p - 1][j - 1]:
                    for k in range(1, n + 1):
                        cv = mu.c(i, p, k)
                        if cv:
                            res[k - 1] -= e[p - 1][j - 1] * cv
            out[(i, j)] = tuple(res)
    return out


def is_derivation(e, mu) -> bool:
    """Oracle: E.mu = 0, read off ``rep_action``."""
    return all(not any(v) for v in rep_action(e, mu).values())


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
            raise SingularMatrix("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class FractionEchelon:
    """Oracle: the reduced row-echelon form by Gauss-Jordan over ``Fraction``.

    Same pivot rule as ``Echelon`` (the largest column index); each pivot
    row is kept divided by its pivot entry.  The sentinel column ``-1``
    holds the right-hand side of ``solve_affine`` and is never a pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, F]] = {}
        self.inconsistent = False

    def reduce(self, row):
        row = {c: F(v) for c, v in row.items() if v}
        while True:
            hit = max((c for c in row if c in self.pivots), default=None)
            if hit is None:
                return row
            f = row.pop(hit)
            for c, v in self.pivots[hit].items():
                if c != hit:
                    nv = row.get(c, ZERO) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)

    def add_row(self, row) -> None:
        row = self.reduce(row)
        if not row:
            return
        p = max(row)
        if p == -1:
            self.inconsistent = True
            return
        inv = ONE / row[p]
        newrow = {c: v * inv for c, v in row.items()}
        for other in self.pivots.values():
            if p in other:
                f = other.pop(p)
                for c, v in newrow.items():
                    if c != p:
                        nv = other.get(c, ZERO) - f * v
                        if nv:
                            other[c] = nv
                        else:
                            other.pop(c, None)
        self.pivots[p] = newrow

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.pivots]

    def nullspace_basis(self):
        basis = []
        for f in self.free_columns():
            v = [ZERO] * self.ncols
            v[f] = ONE
            for p, row in self.pivots.items():
                if row.get(f):
                    v[p] = -row[f]
            basis.append(tuple(v))
        return basis

    def particular_solution(self):
        if self.inconsistent:
            return None
        v = [ZERO] * self.ncols
        for p, row in self.pivots.items():
            v[p] = -row.get(-1, ZERO)
        return tuple(v)


def dense(v: dict[int, int], ncols: int):
    """A kernel vector of ``nullspace`` as the rational tuple that is 1 at its least index."""
    out = [ZERO] * ncols
    lead = v[min(v)]
    for c, x in v.items():
        out[c] = F(x, lead)
    return tuple(out)


def dense_row(v):
    """A dense rational vector as a sparse row."""
    return {i: x for i, x in enumerate(v) if x}


def int_row(row: dict) -> dict[int, int]:
    """A sparse rational row as the primitive int row of the same direction.

    The span, and so the reduced form, is the same; this is how a rational
    row is fed to ``Echelon`` or ``nullspace``.  Zero entries stay (as 0),
    so the callee still meets them.
    """
    return dict(zip(row, integer_row(row.values())))


def solve_affine(rows, rhs, ncols: int):
    """Oracle: the solution of rows . x = rhs with every free variable zero,
    or None if inconsistent, through ``FractionEchelon``: the right-hand
    side rides in the sentinel column -1."""
    ech = FractionEchelon(ncols)
    for r, b in zip(rows, rhs):
        row = dict(r)
        if b:
            row[-1] = -b
        ech.add_row(row)
    return ech.particular_solution()


def min_norm_solution(particular, null_basis):
    """Oracle: the minimum Euclidean-norm point of particular + span(null_basis).

    Exact: solves the normal equations over the rationals.
    """
    if not null_basis:
        return particular
    k = len(null_basis)
    gram = [
        [sum((u[i] * w[i] for i in range(len(u))), ZERO) for w in null_basis]
        for u in null_basis
    ]
    rhs = [
        -sum((u[i] * particular[i] for i in range(len(u))), ZERO) for u in null_basis
    ]
    t = solve_affine([dense_row(r) for r in gram], rhs, k)
    if t is None:  # Gram matrix of independent vectors is invertible
        raise SingularMatrix("degenerate Gram system")
    return tuple(
        particular[i] + sum((t[m] * null_basis[m][i] for m in range(k)), ZERO)
        for i in range(len(particular))
    )


def remainder(ech: Echelon, row) -> dict:
    """row modulo the pivot rows of ``ech`` as exact rationals, through ``reduce_scaled``."""
    row = {c: F(v) for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    rem, rden = ech.reduce_scaled({c: int(v * den) for c, v in row.items()})
    return {c: F(v, rden * den) for c, v in rem.items()}


def assert_kernel_contract(basis, free: list[int]) -> None:
    """One primitive int vector per free column f: positive at f, f its
    least index, zero at the other free columns, no zero entry kept."""
    assert [min(v) for v in basis] == free
    for v, f in zip(basis, free):
        assert all(type(x) is int and x for x in v.values())
        assert v[f] > 0 and gcd(*v.values()) == 1
        assert not set(v) & (set(free) - {f})


def span_rank(vectors, ncols: int) -> int:
    """Oracle: the rank of the span, by one echelon form."""
    ech = FractionEchelon(ncols)
    for v in vectors:
        ech.add_row(dense_row(v))
    return ech.rank


def test_mat_inv_roundtrip():
    a = mat([[2, 1], [5, 3]])
    inv = mat_inv(a)
    assert mat_mul(a, inv) == mat([[1, 0], [0, 1]])


def test_mat_inv_singular():
    with pytest.raises(SingularMatrix):
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
    rows = [{0: 1, 1: 1, 2: -1}]
    basis = nullspace(rows, 3)
    assert basis == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert [dense(v, 3) for v in basis] == [vec([1, 0, 1]), vec([0, 1, 1])]


def test_nullspace_is_integer_and_primitive():
    # 2 x2 = 3 x0 + x1 and 4 x3 = x0: the rational basis has denominators
    rows = [{0: F(3), 1: F(1), 2: F(-2)}, {0: F(1, 2), 3: F(-2)}]
    basis = nullspace([int_row(r) for r in rows], 4)
    assert basis == [{0: 4, 2: 6, 3: 1}, {1: 2, 2: 1}]
    assert_kernel_contract(basis, [0, 1])
    assert [dense(v, 4) for v in basis] == [vec([1, 0, F(3, 2), F(1, 4)]),
                                            vec([0, 1, F(1, 2), 0])]


def test_nullspace_full_rank():
    rows = [{0: 1}, {1: 1}]
    assert nullspace(rows, 2) == []


def test_echelon_rank_and_consistency():
    ech = Echelon(3)
    ech.add_row({0: 1, 1: 1})
    ech.add_row({0: 2, 1: 2})  # dependent
    assert ech.rank == 1
    ech.add_row({2: 1})
    assert ech.rank == 2


def _echelon(*rows):
    """The integer echelon form of the rows and its ``FractionEchelon`` oracle."""
    ech, slow = Echelon(4), FractionEchelon(4)
    for r in rows:
        ech.add_row(int_row(dense_row(vec(r))))
        slow.add_row(dense_row(vec(r)))
    return ech, slow


def test_echelon_reduce_row_in_span_is_empty():
    ech, slow = _echelon([1, 2, 0, 1], [0, 1, 1, 0])
    row = dense_row(vec([2, 1, -3, 2]))
    assert remainder(ech, row) == slow.reduce(row) == {}


def test_echelon_reduce_is_idempotent():
    ech, slow = _echelon([1, 2, 0, 1], [0, 1, 1, 0])
    once = remainder(ech, {0: F(3), 1: F(1), 2: F(5), 3: F(-2)})
    assert once == slow.reduce({0: F(3), 1: F(1), 2: F(5), 3: F(-2)})
    assert once
    assert remainder(ech, once) == once


def test_echelon_reduce_leaves_no_pivot_column():
    ech, slow = _echelon([1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0])
    row = {0: 1, 1: -1, 2: 2, 3: 7}
    rem, den = ech.reduce_scaled(row)
    assert {c: F(v, den) for c, v in rem.items()} == slow.reduce(row)
    assert not set(rem) & set(ech.pivots)
    assert row == {0: 1, 1: -1, 2: 2, 3: 7}  # input left untouched


def test_solve_affine_particular_plus_nullspace():
    # x0 + x1 = 3, x1 = 1
    rows = [{0: F(1), 1: F(1)}, {1: F(1)}]
    assert solve_affine(rows, [F(3), F(1)], 2) == vec([2, 1])
    assert nullspace([int_row(r) for r in rows], 2) == []
    # x0 + x1 = 3 alone: the free variable x0 is 0, and x0 = -x1 spans the rest
    assert solve_affine(rows[:1], [F(3)], 2) == vec([0, 3])
    assert nullspace([int_row(rows[0])], 2) == [{0: 1, 1: -1}]


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


def _integer_row_by_every_entry(v):
    """Oracle: ``integer_row`` as first defined, converting every entry."""
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*(d for _, d in ratios))
    return primitive([a * (den // d) for a, d in ratios])


@pytest.mark.parametrize("row", [
    [0, 0, 0],
    [],
    [F(0), 3, F(-6, 4), 0],
    [F(1, 3), 0, F(-5, 6), F(0), 7],
    [0, -4, 0, 6, 0],
    [F(-2, 9), F(4, 15), 0],
])
def test_integer_row_skips_zeros(row):
    assert integer_row(row) == _integer_row_by_every_entry(row)
    assert all(type(x) is int for x in integer_row(row))


# large denominators, so that an intermediate blow-up or a lost factor shows
RATIONALS = st.builds(
    F, st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**12)
)


@st.composite
def echelon_inputs(draw):
    """Sparse rational rows over columns 0..ncols-1, and probes to reduce.

    Rows are drawn fresh or as a rational combination of earlier rows
    (dependent).
    """
    ncols = draw(st.integers(1, 7))
    columns = st.integers(0, ncols - 1)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "dependent"]) if rows else st.just("fresh"))
        if kind == "fresh":
            row = draw(st.dictionaries(columns, RATIONALS | st.integers(-3, 3), max_size=4))
        else:
            row = {}
            for src in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                f = draw(RATIONALS)
                for c, v in src.items():
                    row[c] = row.get(c, 0) + f * v
        rows.append(row)
    probes = draw(st.lists(st.dictionaries(columns, RATIONALS, max_size=5), max_size=3))
    return ncols, rows, probes + rows


@settings(max_examples=200)
@given(echelon_inputs())
def test_integer_echelon_matches_fraction_oracle(case):
    ncols, rows, probes = case
    fast, slow = Echelon(ncols), FractionEchelon(ncols)
    for row in rows:
        fast.add_row(int_row(row))
        slow.add_row(row)
        assert fast.rank == slow.rank
    assert fast.free_columns() == slow.free_columns()
    for p, row in fast.pivots.items():
        assert all(type(v) is int for v in row.values()) and row[p] > 0
        assert {c: F(v, row[p]) for c, v in row.items()} == slow.pivots[p]
    basis = fast.nullspace_basis()
    assert_kernel_contract(basis, fast.free_columns())
    assert [dense(v, ncols) for v in basis] == slow.nullspace_basis()
    for probe in probes:
        assert remainder(fast, probe) == slow.reduce(probe)


@st.composite
def presolve_inputs(draw):
    """Rows with singletons, chains of rows that become singletons once
    the previous unknown is pinned, explicit zero entries and free rows."""
    ncols = draw(st.integers(1, 8))
    columns = st.integers(0, ncols - 1)
    entries = RATIONALS | st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        chain = draw(st.lists(columns, min_size=1, max_size=ncols, unique=True))
        zeros = draw(st.dictionaries(columns, st.just(0), max_size=2))
        rows.append({**zeros, chain[0]: draw(entries.filter(bool))})
        for prev, c in zip(chain, chain[1:]):
            rows.append({prev: draw(entries), c: draw(entries.filter(bool))})
    rows += draw(st.lists(st.dictionaries(columns, entries, max_size=4), max_size=4))
    return ncols, draw(st.permutations(rows))


@settings(max_examples=200)
@given(presolve_inputs())
def test_nullspace_presolve_matches_fraction_oracle(case):
    ncols, rows = case
    slow = FractionEchelon(ncols)
    for row in rows:
        slow.add_row(row)
    rows = [int_row(r) for r in rows]
    copies = [dict(r) for r in rows]
    basis = nullspace(rows, ncols)
    assert_kernel_contract(basis, slow.free_columns())
    assert [dense(v, ncols) for v in basis] == slow.nullspace_basis()
    assert rows == copies  # the presolve works on its own copies
