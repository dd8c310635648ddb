"""Exact rational linear algebra for small dense and sparse systems.

All routines work over ``fractions.Fraction``; no floating point is used
anywhere.  ``integer_row`` and ``primitive`` put a rational row in coprime
integers, the form in which the simplex and Fourier-Motzkin work.
Nullspaces are computed by sparse Gaussian elimination with a fixed pivot
rule (always the largest column index present in a row), so free
variables accumulate at the low-index coordinates and bases are
reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import SingularMatrixError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def fmt_rational(x) -> str:
    """Lowest terms, sign on the numerator: ``3``, ``-1/2``."""
    return str(frac(x))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer row by the gcd of its entries (a zero row stays zero)."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def integer_row(v: Iterable) -> tuple[int, ...]:
    """Scale a rational row (int or Fraction entries) to coprime integers,
    preserving direction."""
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*(d for _, d in ratios))
    return primitive([a * (den // d) for a, d in ratios])


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum((r[j] * v[j] for j in range(len(v))), ZERO) for r in a)


def mat_inv(a: Sequence[Sequence[Fraction]]) -> Mat:
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


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    sign = ONE
    d = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d *= m[col][col]
        inv = ONE / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * d


def leading_principal_minors(a: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Determinants of the k x k top-left submatrices, k = 1..n.

    One elimination without row exchanges: adding multiples of earlier rows
    to later ones keeps every leading minor, so minor k is the product of
    the first k pivots.  From the first zero pivot on, each remaining minor
    is a separate ``det``.
    """
    n = len(a)
    m = [list(row) for row in a]
    minors = []
    prod = ONE
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return minors + [det([row[: j + 1] for row in a[: j + 1]]) for j in range(k, n)]
        prod *= pivot
        minors.append(prod)
        inv = ONE / pivot
        pk = m[k]
        for r in range(k + 1, n):
            row = m[r]
            if row[k]:
                f = row[k] * inv
                for c in range(k + 1, n):
                    row[c] -= f * pk[c]
    return minors


class Echelon:
    """Sparse reduced row-echelon form, pivoting on the largest column index.

    Rows are dicts column -> nonzero Fraction.  The sentinel column ``-1``
    (used for augmented right-hand sides) is never chosen as a pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, Fraction]] = {}
        self.inconsistent = False

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """The row modulo the span of the pivot rows: no pivot column is left."""
        row = {c: v for c, v in row.items() if v}
        while True:
            hit = max((c for c in row if c in self.pivots), default=None)
            if hit is None:
                break
            f = row.pop(hit)
            for c, v in self.pivots[hit].items():
                if c != hit:
                    nv = row.get(c, ZERO) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        return row

    def add_row(self, row: dict[int, Fraction]) -> None:
        row = self.reduce(row)
        if not row:
            return
        p = max(row)
        if p == -1:
            self.inconsistent = True
            return
        inv = ONE / row[p]
        newrow = {c: v * inv for c, v in row.items()}
        # back-reduce existing rows so the form stays fully reduced
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

    def nullspace_basis(self) -> list[Vec]:
        """One basis vector per free column, unit in that coordinate."""
        basis = []
        for f in self.free_columns():
            v = [ZERO] * self.ncols
            v[f] = ONE
            for p, row in self.pivots.items():
                coeff = row.get(f, ZERO)
                if coeff:
                    v[p] = -coeff
            basis.append(tuple(v))
        return basis

    def particular_solution(self) -> Vec | None:
        """Solution with all free variables zero; None if inconsistent."""
        if self.inconsistent:
            return None
        v = [ZERO] * self.ncols
        for p, row in self.pivots.items():
            v[p] = -row.get(-1, ZERO)
        return tuple(v)


def nullspace(rows: Iterable[dict[int, Fraction]], ncols: int) -> list[Vec]:
    ech = Echelon(ncols)
    for r in rows:
        ech.add_row(r)
    return ech.nullspace_basis()


def solve_affine(
    rows: Iterable[dict[int, Fraction]], rhs: Iterable[Fraction], ncols: int
) -> tuple[Vec, list[Vec]] | None:
    """Solve the sparse system rows . x = rhs.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    """
    ech = Echelon(ncols)
    for r, b in zip(rows, rhs):
        row = dict(r)
        if b:
            row[-1] = -b
        ech.add_row(row)
        if ech.inconsistent:
            return None
    part = ech.particular_solution()
    if part is None:
        return None
    return part, ech.nullspace_basis()


def dense_row(v: Sequence[Fraction]) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(v) if x}


def min_norm_solution(particular: Vec, null_basis: list[Vec]) -> Vec:
    """Minimum Euclidean-norm point of the affine space particular + span(basis).

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
    sol = solve_affine([dense_row(r) for r in gram], rhs, k)
    if sol is None:  # Gram matrix of independent vectors is invertible
        raise SingularMatrixError("degenerate Gram system")
    t = sol[0]
    return tuple(
        particular[i] + sum((t[m] * null_basis[m][i] for m in range(k)), ZERO)
        for i in range(len(particular))
    )
