"""Generated nilpotent Lie algebras and diagonal derivations.

Every generator takes the imported ``nilcone`` package as ``nc`` and
returns plain library inputs: a ``LieBracket`` and, where one is known by
construction, a positive diagonal derivation.  Nothing here calls the
library's analysis code, so generation cost is construction cost only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


@dataclass(frozen=True)
class Generated:
    """A generated algebra with facts known from its construction."""

    label: str
    mu: object  # nilcone.LieBracket
    positive_d: tuple  # a diagonal derivation with all entries positive
    lcs_dims: tuple  # dimensions of the lower central series terms


def heisenberg(nc, k: int) -> Generated:
    """H_{2k+1}: [e_i, e_{k+i}] = e_{2k+1}."""
    n = 2 * k + 1
    mu = nc.LieBracket(n, {(i, k + i, n): F(1) for i in range(1, k + 1)})
    return Generated(f"H{n}", mu, (F(1),) * (2 * k) + (F(2),), (n, 1))


def free_two_step(nc, k: int) -> Generated:
    """Free 2-step nilpotent algebra on k generators, [e_i, e_j] = e_{ij}."""
    constants = {}
    target = k
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            target += 1
            constants[(i, j, target)] = F(1)
    d = (F(1),) * k + (F(2),) * (target - k)
    return Generated(f"free2({k})", nc.LieBracket(target, constants), d, (target, target - k))


def filiform_derivation(n: int, d1, d2) -> tuple:
    """Diagonal derivations of m_0(n): d_{i+1} = d_1 + d_i for i >= 2."""
    d1, d2 = F(d1), F(d2)
    return (d1,) + tuple(d2 + (i - 2) * d1 for i in range(2, n + 1))


def filiform(nc, n: int) -> Generated:
    """Vergne's m_0(n): [e_1, e_i] = e_{i+1} for 2 <= i < n."""
    mu = nc.LieBracket(n, {(1, i, i + 1): F(1) for i in range(2, n)})
    lcs = (n,) + tuple(range(n - 2, 0, -1))
    return Generated(f"m0({n})", mu, filiform_derivation(n, 1, 1), lcs)


def direct_sum(nc, mus: list) -> object:
    """Block-diagonal direct sum of brackets, in the given order."""
    constants = {}
    offset = 0
    for mu in mus:
        for (i, j, k), v in mu.constants.items():
            constants[(i + offset, j + offset, k + offset)] = v
        offset += mu.dim
    return nc.LieBracket(offset, constants)


# Nice catalog entries with a positive derivation, and their central series.
_POSITIVE_CATALOG = {
    "heis3": ((1, 1, 2), (3, 1)),
    "n4nice": ((1, 1, 2, 3), (4, 2, 1)),
}


def catalog_sum(nc, ids: list[str]) -> Generated:
    """Direct sum of nice catalog entries that carry a positive derivation."""
    depth = max(len(_POSITIVE_CATALOG[i][1]) for i in ids)
    lcs = tuple(
        sum(_POSITIVE_CATALOG[i][1][t] for i in ids if t < len(_POSITIVE_CATALOG[i][1]))
        for t in range(depth)
    )
    d = tuple(F(x) for i in ids for x in _POSITIVE_CATALOG[i][0])
    mu = direct_sum(nc, [nc.catalog_get(i) for i in ids])
    return Generated("+".join(ids), mu, d, lcs)


def relabel(nc, g: Generated, rng: random.Random) -> Generated:
    """Permute the basis by the seed.

    The constants, and so the size of every number the library computes
    with, stay the same; only their positions move.  The algebra, its
    niceness, its central series and the diagonal derivation (moved to the
    new positions) are unchanged.  Rescaling basis vectors as well would
    change the sizes of the fractions, and with them the cost of a request
    from seed to seed.
    """
    n = g.mu.dim
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    constants = {
        (perm[i - 1], perm[j - 1], perm[k - 1]): v
        for (i, j, k), v in g.mu.constants.items()
    }
    d = [F(0)] * n
    for i, x in enumerate(g.positive_d):
        d[perm[i] - 1] = x
    return Generated(g.label, nc.LieBracket(n, constants), tuple(d), g.lcs_dims)


def positive_scale(rng: random.Random) -> Fraction:
    """A positive rational in [1/2, 8] with denominator 2, 3 or 4."""
    return F(rng.randint(2, 16), rng.choice((2, 3, 4)))
