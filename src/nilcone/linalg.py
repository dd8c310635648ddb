"""Exact rational linear algebra for small dense and sparse systems.

Every result is exact, an integer or a ``fractions.Fraction``; no
floating point is used anywhere.  ``integer_row`` and ``primitive`` put a
rational row in coprime integers, the form in which the simplex,
Fourier-Motzkin and the echelon form work.  ``nullspace`` is the one
sparse linear solver: fraction-free Gaussian elimination over ``int`` rows
(``Echelon``) with a fixed pivot rule (always the largest column index
present in a row), so free variables accumulate at the low-index
coordinates and bases are reproducible across runs.  A system with a
right-hand side is posed as the kernel of the rows with that side as one
more column.  A nullspace basis stays in integers: one sparse primitive
vector per free column, positive at that column.  Only solutions are
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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
    preserving direction.  Only the nonzero entries are converted."""
    v = list(v)
    nonzero = [(i, x) for i, x in enumerate(v) if x]
    den = lcm(*[x.denominator for _, x in nonzero])
    out = [0] * len(v)
    for i, x in nonzero:
        out[i] = x.numerator * (den // x.denominator)
    return primitive(out)


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

    Each pivot row is a primitive dict column -> nonzero int whose entry at
    its pivot is positive; the reduced rational row is that dict divided by
    the pivot entry.  Under the fixed pivot rule the reduced form of a span
    is unique, so it is the same as Gauss-Jordan elimination over
    ``Fraction`` gives.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce_scaled(self, row: dict[int, int]) -> tuple[dict[int, int], int]:
        """row modulo the span of the pivot rows, as (int row, den): the
        remainder is int row / den.

        No pivot column is left in the result and den is positive.  The
        input row is left untouched; a row no pivot column hits is returned
        as it is, over den 1.
        """
        pivots = self.pivots
        hits = [c for c in row if c in pivots]
        if not hits:
            return row, 1
        # the rows are fully reduced: subtracting pivot rows never brings
        # in another pivot column, so one pass over the hits suffices
        scale = 1
        for h in hits:
            p = pivots[h][h]
            if p != 1:
                scale = lcm(scale, p)
        if scale == 1:
            out = {c: v for c, v in row.items() if c not in pivots}
        else:
            out = {c: v * scale for c, v in row.items() if c not in pivots}
        for h in hits:
            prow = pivots[h]
            f = row[h] * (scale // prow[h])
            for c, v in prow.items():
                if c != h:
                    out[c] = out.get(c, 0) - f * v
        out = {c: v for c, v in out.items() if v}
        if scale > 1:
            g = gcd(scale, *out.values())
            if g > 1:
                out = {c: v // g for c, v in out.items()}
                scale //= g
        return out, scale

    def add_row(self, row: dict[int, int]) -> None:
        row, _ = self.reduce_scaled({c: v for c, v in row.items() if v})
        if not row:
            return
        p = max(row)
        g = gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        q = row[p]
        # back-reduce existing rows so the form stays fully reduced
        for other in self.pivots.values():
            if p in other:
                f = other.pop(p)
                if q != 1:
                    for c in other:
                        other[c] *= q
                for c, v in row.items():
                    if c != p:
                        nv = other.get(c, 0) - f * v
                        if nv:
                            other[c] = nv
                        else:
                            other.pop(c, None)
                g = gcd(*other.values())
                if g > 1:
                    for c in other:
                        other[c] //= g
        self.pivots[p] = row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.pivots]

    def nullspace_basis(self) -> list[dict[int, int]]:
        """One primitive integer vector per free column f, nonzero entries only.

        The vector is positive at f, f is its least index (the pivot rule
        puts every off-pivot entry of a pivot row at a lower column), and
        it is zero at the other free columns.  Divided by its entry at f
        it is the rational basis vector that is 1 at f.
        """
        hits: dict[int, list[tuple[int, int, int]]] = {f: [] for f in self.free_columns()}
        # the entries of a pivot row off its pivot sit at free columns
        for p, row in self.pivots.items():
            q = row[p]
            for c, v in row.items():
                if c != p:
                    hits[c].append((p, v, q))
        basis = []
        for f, terms in hits.items():
            den = lcm(*[q for _, _, q in terms])
            v = {f: den}
            for p, x, q in terms:
                v[p] = -x * (den // q)
            g = gcd(*v.values())
            basis.append({c: x // g for c, x in v.items()} if g > 1 else v)
        return basis


def nullspace(rows: Iterable[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Basis of {x : row . x = 0 for every row}, as ``Echelon.nullspace_basis`` reads it off.

    Singleton presolve first: a row with one nonzero entry pins that
    unknown to 0, which is dropped from the other rows, and so on until no
    row has a single entry; only the rest is eliminated.  e_c lies in the
    row space for each pinned c, so it is the pivot row of c in the unique
    reduced form, and the other pivot rows are those of the remaining rows:
    the basis is the same as eliminating every row.  The presolve leaves
    the rows as they are: a row with one nonzero entry pins it at once,
    and of the others it keeps the nonzero columns (the row itself when
    it has no zero) and, only when some unknown is pinned, counts those
    not pinned.  Only a row left with two or more reaches the echelon.
    """
    pinned = set()
    multi = []  # (row, its nonzero columns) for rows with two or more
    for r in rows:
        if len(r) == 1:
            (c, v), = r.items()
            if v:
                pinned.add(c)
        elif r and 0 not in r.values():
            multi.append((r, r))
        else:
            nz = [c for c, v in r.items() if v]
            if len(nz) > 1:
                multi.append((r, nz))
            elif nz:
                pinned.add(nz[0])
    ech = Echelon(ncols)
    if not pinned:
        for r, _ in multi:
            ech.add_row(r)
        return ech.nullspace_basis()
    count = []
    by_col: dict[int, list[int]] = {}
    for m, (_, nz) in enumerate(multi):
        live = [c for c in nz if c not in pinned]
        count.append(len(live))
        for c in live:
            by_col.setdefault(c, []).append(m)
    singles = [m for m, k in enumerate(count) if k == 1]
    while singles:
        m = singles.pop()
        if count[m] != 1:  # its last entry was pinned by another row
            continue
        c = next(c for c in multi[m][1] if c not in pinned)
        pinned.add(c)
        for m2 in by_col[c]:
            count[m2] -= 1
            if count[m2] == 1:
                singles.append(m2)
    for (r, nz), k in zip(multi, count):
        if k > 1:
            ech.add_row({c: r[c] for c in nz if c not in pinned})
    for c in pinned:
        ech.pivots[c] = {c: 1}
    return ech.nullspace_basis()
