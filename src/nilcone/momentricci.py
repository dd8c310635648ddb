"""Moment map of the basis-change action and exact Ricci computations.

Conventions are fixed by the normalization m(mu) for the Heisenberg
bracket [e1, e2] = e3 being Diag(-1, -1, 1): the squared norm is the
plain sum of squared structure constants and the moment map satisfies
tr(m(mu) E) = <E.mu, mu> / |mu|^2 with no extra factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derivations import require_diagonal_derivation
from .errors import InputError
from .liecore import LieBracket
from .linalg import (
    Mat,
    ONE,
    Vec,
    ZERO,
    frac,
    leading_principal_minors,
)


def norm_squared(mu: LieBracket) -> Fraction:
    return sum((v * v for v in mu.constants.values()), ZERO)


def _moment_sum(mu: LieBracket) -> Mat:
    """S(mu) = |mu|^2 m(mu), read off the structure constants.

    S_ab = 1/2 sum_{i,j} c_ij^a c_ij^b - sum_{j,r} c_aj^r c_bj^r, both sums
    over ordered pairs; the first is one outer product per pair i < j, the
    second one per (j, r) of the column a -> c_aj^r.
    """
    n = mu.dim
    by_pair: dict[tuple[int, int], dict[int, Fraction]] = {}  # (i, j) -> {a: c_ij^a}
    by_slot: dict[tuple[int, int], dict[int, Fraction]] = {}  # (j, r) -> {a: c_aj^r}
    for (i, j, k), v in mu.constants.items():
        by_pair.setdefault((i, j), {})[k - 1] = v
        by_slot.setdefault((j, k), {})[i - 1] = v
        by_slot.setdefault((i, k), {})[j - 1] = -v
    s = [[ZERO] * n for _ in range(n)]
    for groups, sign in ((by_pair, ONE), (by_slot, -ONE)):
        for col in groups.values():
            for a, x in col.items():
                for b, y in col.items():
                    s[a][b] += sign * x * y
    return tuple(tuple(r) for r in s)


def moment_map(mu: LieBracket) -> Mat:
    """Symmetric matrix m(mu) with tr(m(mu) E) = <E.mu, mu> / |mu|^2."""
    nsq = norm_squared(mu)
    if nsq == 0:
        raise InputError("moment map is undefined at the zero bracket")
    return tuple(tuple(x / nsq for x in row) for row in _moment_sum(mu))


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
    half = Fraction(1, 2)
    return tuple(tuple(half * x for x in row) for row in _moment_sum(mu))


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
        if any(x <= 0 for x in self.h):
            raise InputError("diagonal basis change must be positive")
        require_diagonal_derivation(self.d, self.mu)

    @property
    def nu(self) -> LieBracket:
        return self.mu.diagonal_act(self.h).scale(self.s)


def extension_ricci(ext: MetricExtension) -> Mat:
    """Ricci matrix of R f + n, index 0 the f-direction, in the pulled-back frame.

    Uses (0,0) = -tr D^2, (0,i) = -tr(D ad_nu(e_i)), and the nilpotent
    block shifted by the mean-curvature term -tr(D) D.
    """
    mu = ext.mu
    n = mu.dim
    d = ext.d
    nu = ext.nu
    trd = sum(d, ZERO)
    ric = [[ZERO] * (n + 1) for _ in range(n + 1)]
    ric[0][0] = -sum((x * x for x in d), ZERO)
    for i in range(1, n + 1):
        # tr(D ad_nu(e_i)) = sum_j d_j <nu(e_i, e_j), e_j> = sum d_k c'_{ik}^{k}
        val = ZERO
        for k in range(1, n + 1):
            val += d[k - 1] * nu.c(i, k, k)
        ric[0][i] = ric[i][0] = -val
    block = nil_ricci(nu)
    for a in range(n):
        for b in range(n):
            ric[a + 1][b + 1] = block[a][b] - (trd * d[a] if a == b else ZERO)
    return tuple(tuple(r) for r in ric)


def is_negative_definite(a: Mat) -> bool:
    """Exact Sylvester test: (-1)^k det(A_k) > 0 for all leading minors."""
    minors = leading_principal_minors(a)
    sign = -ONE
    for m in minors:
        if sign * m <= 0:
            return False
        sign = -sign
    return True
