"""Moment map of the basis-change action and exact Ricci computations.

Conventions are fixed by the normalization m(mu) for the Heisenberg
bracket [e1, e2] = e3 being Diag(-1, -1, 1): the squared norm is the
plain sum of squared structure constants and the moment map satisfies
tr(m(mu) E) = <E.mu, mu> / |mu|^2 with no extra factor.

Every matrix stays as its nonzero upper entries, summed in ints from the
constants scaled to integers, until a public ``Mat`` is built once: one
``Fraction(x, t)`` per entry over that scale, the shared ``ZERO`` elsewhere.
One dict-row elimination in natural order is the Sylvester test of the
Ricci matrix, of the Gram matrix on the center and of a public ``Mat``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .derivations import require_diagonal_derivation
from .errors import InputError
from .liecore import Key, LieBracket
from .linalg import Mat, Vec, ZERO, frac, integer_row

Upper = dict[tuple[int, int], int]


def norm_squared(mu: LieBracket) -> Fraction:
    return sum((v * v for v in mu.constants.values()), ZERO)


def _moment_sum(constants: Iterable[tuple[Key, int]]) -> Upper:
    """Nonzero entries S_ab, a <= b, of S(c) = |c|^2 m(c) (0-based), c in ints.

    S_ab = 1/2 sum_{i,j} c_ij^a c_ij^b - sum_{j,r} c_aj^r c_bj^r, both sums
    over ordered pairs; the first is one outer product per pair i < j, the
    second one per (j, r) of the column a -> c_aj^r.  S is symmetric, so
    each outer product is added on and above the diagonal only.
    """
    by_pair: dict[tuple[int, int], list] = {}  # (i, j) -> [(a, c_ij^a)]
    by_slot: dict[tuple[int, int], list] = {}  # (j, r) -> [(a, c_aj^r)]
    for (i, j, k), v in constants:
        by_pair.setdefault((i, j), []).append((k - 1, v))
        by_slot.setdefault((j, k), []).append((i - 1, v))
        by_slot.setdefault((i, k), []).append((j - 1, -v))
    s: Upper = {}
    for groups, add in ((by_pair, operator.add), (by_slot, operator.sub)):
        for col in groups.values():
            for p, (a, x) in enumerate(col):
                for b, y in col[p:]:
                    key = (a, b) if a <= b else (b, a)
                    s[key] = add(s.get(key, 0), x * y)
    return {key: x for key, x in s.items() if x}


def _over(n: int, upper: Upper, t) -> Mat:
    """The symmetric n x n matrix with upper triangle upper / t, else ZERO."""
    rows = [[ZERO] * n for _ in range(n)]
    for (a, b), x in upper.items():
        rows[a][b] = rows[b][a] = Fraction(x, t)
    return tuple(map(tuple, rows))


def moment_map(mu: LieBracket) -> Mat:
    """Symmetric matrix m(mu) with tr(m(mu) E) = <E.mu, mu> / |mu|^2.

    m is scale invariant: it is S(C) / |C|^2 for C = integer_row(mu).
    """
    c = integer_row(mu.constants.values())
    if not c:
        raise InputError("moment map is undefined at the zero bracket")
    return _over(mu.dim, _moment_sum(zip(mu.constants, c)), sum(x * x for x in c))


def moment_diagonal(mu: LieBracket) -> Vec:
    """Diagonal of m(mu) as the convex combination sum t_w F_w, t_w = c_w^2 / |mu|^2."""
    nsq = norm_squared(mu)
    if nsq == 0:
        raise InputError("moment map is undefined at the zero bracket")
    out = [ZERO] * mu.dim
    for (i, j, k), v in mu.constants.items():
        t = v * v / nsq
        out[k - 1] += t
        out[i - 1] -= t
        out[j - 1] -= t
    return tuple(out)


def nil_ricci(mu: LieBracket) -> Mat:
    """Ricci operator of the bracket with the basis declared orthonormal.

    Equals (|mu|^2 / 2) m(mu) = S(mu) / 2, which is S(C) / (2 (C_1 / mu_1)^2)
    for C = integer_row(mu); the zero bracket is flat.
    """
    c = integer_row(mu.constants.values())
    t = 2 * (c[0] / next(iter(mu.constants.values()))) ** 2 if c else 1
    return _over(mu.dim, _moment_sum(zip(mu.constants, c)), t)


@dataclass(frozen=True)
class MetricExtension:
    """Metric data on the one-dimensional extension R f + n.

    The inner product is encoded by pulling it back to the standard one:
    the bracket becomes nu = s (h . mu) with s > 0 a scale and h a
    positive diagonal basis change, while f stays unit and orthogonal.
    """

    mu: LieBracket
    d: Vec
    s: Fraction
    h: Vec

    def __post_init__(self):
        object.__setattr__(self, "s", frac(self.s))
        object.__setattr__(self, "h", tuple(frac(x) for x in self.h))
        object.__setattr__(self, "d", tuple(frac(x) for x in self.d))
        if self.s <= 0:
            raise InputError("scale must be positive")
        if len(self.h) != self.mu.dim:
            raise InputError(f"diagonal basis change needs {self.mu.dim} entries, got {len(self.h)}")
        if any(x <= 0 for x in self.h):
            raise InputError("diagonal basis change must be positive")
        require_diagonal_derivation(self.d, self.mu)


def _integer_ricci(mu: LieBracket, d: Vec, s: Fraction, h: Vec) -> tuple[Upper, int]:
    """(M, T) with T Ric = M, Ric the matrix of ``extension_ricci`` for the
    extension (mu, d, s, h), whose parts it takes unchecked; M is given by
    its nonzero int entries (a, b), a <= b.

    T = 2 L^2 dd^2, with L the lcm of the denominators of the constants
    c' = s h_k / (h_i h_j) c of nu and dd that of d's, so C = L c' and
    E = dd d are integer and Ric(nu) = S(C) / (2 L^2).  M has (0,0) =
    -2 L^2 |E|^2, (0,i) = -2 L dd sum_k E_k C_ik^k, and the block
    dd^2 S(C) - 2 L^2 (tr E) E.
    """
    hr = [(x.numerator, x.denominator) for x in h]
    scaled = []
    for (i, j, k), v in mu.constants.items():
        (ni, di), (nj, dj), (nk, dk) = hr[i - 1], hr[j - 1], hr[k - 1]
        num = s.numerator * nk * di * dj * v.numerator
        den = s.denominator * dk * ni * nj * v.denominator
        g = gcd(num, den)
        scaled.append(((i, j, k), num // g, den // g))
    ell = lcm(*[den for _, _, den in scaled])
    dd = lcm(*[x.denominator for x in d])
    e = [x.numerator * (dd // x.denominator) for x in d]
    c = [(key, num * (ell // den)) for key, num, den in scaled]
    m = {(a + 1, b + 1): dd * dd * x for (a, b), x in _moment_sum(c).items()}
    t, f = 2 * ell * ell, 2 * ell * dd
    m[0, 0] = -t * sum(x * x for x in e)
    for (i, j, k), x in c:
        if k == j:
            m[0, i] = m.get((0, i), 0) - f * e[k - 1] * x
        elif k == i:
            m[0, j] = m.get((0, j), 0) + f * e[k - 1] * x
    tre = t * sum(e)
    for a, x in enumerate(e, start=1):
        if x:
            m[a, a] = m.get((a, a), 0) - tre * x
    return {key: x for key, x in m.items() if x}, t * dd * dd


def extension_ricci(ext: MetricExtension) -> Mat:
    """Ricci matrix of R f + n, index 0 the f-direction, in the pulled-back frame.

    Uses (0,0) = -tr D^2, (0,i) = -tr(D ad_nu(e_i)), and the nilpotent
    block Ric(nu) shifted by the mean-curvature term -tr(D) D.  Each
    constant of nu = s (h . mu) is c' = s h_k / (h_i h_j) c, and
    tr(D ad_nu(e_i)) = sum_k d_k c'_ik^k, so only constants with k = j
    (row i) or k = i (row j, opposite sign) reach row 0.  Each nonzero
    entry is one Fraction(x, T) of the integer kernel's M = T Ric.
    """
    return _over(ext.mu.dim + 1, *_integer_ricci(ext.mu, ext.d, ext.s, ext.h))


def _positive_definite(rows: list[dict[int, int]]) -> bool:
    """Exact Sylvester test, every leading minor of B positive, on rows
    {column: int}, each a positive multiple of that row of B (absent
    entries are 0): no minor changes sign.

    Elimination without row exchanges, pivot k at column k, replaces each
    later row with a nonzero f at column k under the pivot p > 0 by
    p row - f prow over the columns right of k, divided by its gcd, which
    again scales the leading minors by positive factors.  So minor k of B
    is a positive multiple of the product of the first k pivots, and the
    test fails at the first pivot that is not positive.
    """
    for k, prow in enumerate(rows):
        p = prow.get(k, 0)
        if p <= 0:
            return False
        tail = [(b, y) for b, y in prow.items() if b > k]
        for r in range(k + 1, len(rows)):
            f = rows[r].get(k)
            if f:
                new = {b: p * x for b, x in rows[r].items() if b > k}
                for b, y in tail:
                    new[b] = new.get(b, 0) - f * y
                g = gcd(*new.values())
                rows[r] = {b: x // g for b, x in new.items() if x}
    return True


def is_negative_definite(a: Mat) -> bool:
    """Exact Sylvester test: every leading minor of -A is positive, by
    ``_positive_definite`` on the coprime integer rows of -A's nonzero entries."""
    rows = []
    for r in a:
        nonzero = [(b, x) for b, x in enumerate(r) if x is not ZERO and x]
        den = lcm(*[x.denominator for _, x in nonzero])
        ints = {b: -x.numerator * (den // x.denominator) for b, x in nonzero}
        g = gcd(*ints.values())
        rows.append({b: x // g for b, x in ints.items()})
    return _positive_definite(rows)


def is_ricci_negative(ext: MetricExtension) -> bool:
    """``is_negative_definite(extension_ricci(ext))`` on the kernel's M = T Ric."""
    return _ricci_negative(ext.mu, ext.d, ext.s, ext.h)


def _ricci_negative(mu: LieBracket, d: Vec, s: Fraction, h: Vec) -> bool:
    """``is_ricci_negative`` on the parts of an extension, which it takes
    unchecked: the witness search tests its candidates here and builds a
    ``MetricExtension`` only for the one it returns."""
    rows: list[dict[int, int]] = [{} for _ in range(mu.dim + 1)]
    for (a, b), x in _integer_ricci(mu, d, s, h)[0].items():
        rows[a][b] = rows[b][a] = -x
    return _positive_definite(rows)
