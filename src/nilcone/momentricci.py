"""Moment map of the basis-change action and exact Ricci computations.

Conventions are fixed by the normalization m(mu) for the Heisenberg
bracket [e1, e2] = e3 being Diag(-1, -1, 1): the squared norm is the
plain sum of squared structure constants and the moment map satisfies
tr(m(mu) E) = <E.mu, mu> / |mu|^2 with no extra factor.

Every matrix is accumulated from one pass over the nonzero structure
constants; entries that no constant reaches are the shared ``ZERO``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .derivations import require_diagonal_derivation
from .errors import InputError
from .liecore import Key, LieBracket
from .linalg import (
    Mat,
    Vec,
    ZERO,
    frac,
    integer_row,
    primitive,
)

Upper = dict[tuple[int, int], Fraction]


def norm_squared(mu: LieBracket) -> Fraction:
    return sum((v * v for v in mu.constants.values()), ZERO)


def _moment_sum(constants: Iterable[tuple[Key, Fraction]]) -> Upper:
    """Nonzero entries S_ab, a <= b, of S(mu) = |mu|^2 m(mu) (0-based).

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
                    s[key] = add(s.get(key, ZERO), x * y)
    return {key: x for key, x in s.items() if x}


def _dense(n: int, upper: Upper, offset: int = 0) -> list[list[Fraction]]:
    """Rows of the symmetric matrix with the given upper triangle, its
    indices shifted by ``offset``; ZERO everywhere else."""
    rows = [[ZERO] * n for _ in range(n)]
    for (a, b), x in upper.items():
        rows[a + offset][b + offset] = rows[b + offset][a + offset] = x
    return rows


def moment_map(mu: LieBracket) -> Mat:
    """Symmetric matrix m(mu) with tr(m(mu) E) = <E.mu, mu> / |mu|^2."""
    nsq = norm_squared(mu)
    if nsq == 0:
        raise InputError("moment map is undefined at the zero bracket")
    s = _moment_sum(mu.constants.items())
    return tuple(map(tuple, _dense(mu.dim, {key: x / nsq for key, x in s.items()})))


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

    Equals (|mu|^2 / 2) m(mu); the zero bracket is flat.
    """
    s = _moment_sum(mu.constants.items())
    return tuple(map(tuple, _dense(mu.dim, {key: x / 2 for key, x in s.items()})))


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


def extension_ricci(ext: MetricExtension) -> Mat:
    """Ricci matrix of R f + n, index 0 the f-direction, in the pulled-back frame.

    Uses (0,0) = -tr D^2, (0,i) = -tr(D ad_nu(e_i)), and the nilpotent
    block Ric(nu) shifted by the mean-curvature term -tr(D) D.  Each
    constant of nu = s (h . mu) is c' = s h_k / (h_i h_j) c, and
    tr(D ad_nu(e_i)) = sum_k d_k c'_ik^k, so only constants with k = j
    (row i) or k = i (row j, opposite sign) reach row 0.
    """
    mu, d, h, s = ext.mu, ext.d, ext.h, ext.s
    n = mu.dim
    row0 = [-sum((x * x for x in d), ZERO)] + [ZERO] * n
    hr = [(x.numerator, x.denominator) for x in h]
    scaled = []
    for (i, j, k), v in mu.constants.items():
        (ni, di), (nj, dj), (nk, dk) = hr[i - 1], hr[j - 1], hr[k - 1]
        c = Fraction(s.numerator * nk * di * dj * v.numerator,
                     s.denominator * dk * ni * nj * v.denominator)
        scaled.append(((i, j, k), c))
        if k == j:
            row0[i] -= d[k - 1] * c
        elif k == i:
            row0[j] += d[k - 1] * c
    s_nu = _moment_sum(scaled)
    ric = _dense(n + 1, {key: x / 2 for key, x in s_nu.items()}, offset=1)
    ric[0] = row0
    for a in range(1, n + 1):
        ric[a][0] = row0[a]
    trd = sum(d, ZERO)
    for a, x in enumerate(d, start=1):
        if x:
            ric[a][a] -= trd * x
    return tuple(map(tuple, ric))


def is_negative_definite(a: Mat) -> bool:
    """Exact Sylvester test: every leading minor of -A is positive.

    Each row of -A is scaled to coprime integers, a positive factor per
    row, so no leading minor changes sign.  Elimination without row
    exchanges then replaces each later row with a nonzero f under the
    pivot p > 0 by p row - f prow, divided by its gcd, which again scales
    the leading minors by positive factors.  So minor k of -A is a
    positive multiple of the product of the first k pivots, and the test
    fails at the first pivot that is not positive.
    """
    rows = [[-x for x in integer_row(r)] for r in a]
    for k in range(len(rows)):
        prow = rows[k]
        p = prow[0]
        if p <= 0:
            return False
        tail = prow[1:]
        for r in range(k + 1, len(rows)):
            row = rows[r]
            f = row[0]
            if f:
                rows[r] = primitive([p * x - f * y for x, y in zip(row[1:], tail)])
            else:
                rows[r] = row[1:]
    return True
