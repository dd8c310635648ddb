"""Skew-symmetric algebras with exact rational structure constants.

A bracket is stored sparsely as a map (i, j, k) -> coefficient with the
canonical orientation i < j; antisymmetry is implicit.  Indices are
1-based everywhere in the public API, matching the algebra file format.
Nilpotency is read off a topological order of the index graph (i -> k
and j -> k for each nonzero c_ij^k); only a graph with a cycle computes
the lower central series.  On a monomial bracket (one target per pair of
indices, as on every nice basis) each term of the series is spanned by
basis vectors, and its index set is read off the constants; any other
bracket is eliminated, through an index of the constants by the basis
vector they bracket with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ParseError
from .linalg import (
    Echelon,
    ZERO,
    fmt_rational,
    frac,
    integer_row,
    nullspace,
)

Key = tuple[int, int, int]

# The largest dimension the algebra file format accepts.  Der(mu) alone has
# dim^2 unknowns, so a hostile 'dim' line is refused before any work starts.
MAX_DIM = 1024


def _normalize_constants(dim: int, constants: Mapping[Key, Fraction]) -> dict[Key, Fraction]:
    out: dict[Key, Fraction] = {}
    for (i, j, k), v in constants.items():
        v = frac(v)
        if v == 0:
            continue
        if i == j:
            raise ParseError(f"bracket [e{i}, e{j}] is identically zero")
        if i > j:
            i, j, v = j, i, -v
        if not (1 <= i < j <= dim and 1 <= k <= dim):
            raise ParseError(f"index out of range in triple ({i}, {j}, {k}) for dim {dim}")
        if (i, j, k) in out:
            raise ParseError(f"duplicate structure constant for ({i}, {j}, {k})")
        out[(i, j, k)] = v
    return out


@dataclass(frozen=True)
class LieBracket:
    """Element of the variety of skew-symmetric algebras of dimension ``dim``."""

    dim: int
    constants: Mapping[Key, Fraction]

    def __post_init__(self):
        if self.dim < 1:
            raise ParseError("dimension must be positive")
        # read-only, so the hash of a frozen bracket cannot change under it
        constants = MappingProxyType(_normalize_constants(self.dim, self.constants))
        object.__setattr__(self, "constants", constants)

    def __eq__(self, other):
        return (
            isinstance(other, LieBracket)
            and self.dim == other.dim
            and dict(self.constants) == dict(other.constants)
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.constants.items())))

    def keys(self) -> list[Key]:
        """Index set I_mu in canonical (i, j, k) order."""
        return sorted(self.constants)

    def c(self, i: int, j: int, k: int) -> Fraction:
        """Signed structure constant for any orientation of (i, j)."""
        if i == j:
            return ZERO
        if i < j:
            return self.constants.get((i, j, k), ZERO)
        return -self.constants.get((j, i, k), ZERO)

    def is_zero(self) -> bool:
        return not self.constants

    def diagonal_act(self, h: Sequence[Fraction]) -> "LieBracket":
        """h . mu for h = Diag(h_1, ..., h_n): c' = (h_k / (h_i h_j)) c."""
        new = {}
        for (i, j, k), v in self.constants.items():
            new[(i, j, k)] = frac(h[k - 1]) / (frac(h[i - 1]) * frac(h[j - 1])) * v
        return LieBracket(self.dim, new)


@dataclass(frozen=True)
class SubspaceChain:
    """Nested subspaces, e.g. the lower central series.

    ``dims`` holds the dimension of each nonzero term; ``terminates`` is
    True when the series stabilizes at zero; only then is the class defined.
    """

    dims: tuple[int, ...]
    terminates: bool

    @property
    def nilpotency_class(self) -> int | None:
        return len(self.dims) if self.terminates else None


def parse_bracket(text: str) -> LieBracket:
    """Parse the line-based algebra file format."""
    dim = None
    raw: dict[Key, Fraction] = {}
    orientation: dict[Key, tuple[int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'dim N' first, got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad dimension {parts[1]!r}")
            if dim < 1:
                raise ParseError(f"line {lineno}: dimension must be positive")
            if dim > MAX_DIM:
                raise ParseError(f"line {lineno}: dimension {dim} exceeds the limit {MAX_DIM}")
            continue
        if parts[0] == "dim":
            raise ParseError(f"line {lineno}: repeated 'dim' line")
        if parts[0] != "bracket" or len(parts) != 5:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
        try:
            i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
            v = Fraction(parts[4])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: malformed bracket entry {line!r}")
        if v == 0:
            raise ParseError(f"line {lineno}: zero coefficient")
        if i == j:
            raise ParseError(f"line {lineno}: bracket [e{i}, e{j}] is identically zero")
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ParseError(f"line {lineno}: index out of range")
        key = (min(i, j), max(i, j), k)
        orient = (i, j)
        if key in raw:
            prev = orientation[key]
            if prev != orient:
                raise ParseError(
                    f"line {lineno}: conflicting orientation for [e{i}, e{j}]"
                )
            raise ParseError(f"line {lineno}: duplicate triple ({i}, {j}, {k})")
        raw[key] = v if i < j else -v
        orientation[key] = orient
    if dim is None:
        raise ParseError("missing 'dim N' line")
    return LieBracket(dim, raw)


def emit_bracket(mu: LieBracket) -> str:
    """Inverse of parse_bracket; rationals in lowest terms, sign on numerator."""
    lines = [f"dim {mu.dim}"]
    for (i, j, k) in mu.keys():
        lines.append(f"bracket {i} {j} {k} {fmt_rational(mu.constants[(i, j, k)])}")
    return "\n".join(lines) + "\n"


def check_jacobi(mu: LieBracket) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact Jacobi test on all basis triples; returns the least violator if any.

    The cyclic sum of (a, b, c) is read off the index (i, j) -> {k: c_ij^k},
    kept for both orientations of each pair.  A term [[x, y], z] is nonzero
    only along a chain (x, y) -> k, (k, z) -> m of nonzero constants, so
    only the triples such chains reach are tested, in increasing order.
    """
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    partners: dict[int, list[int]] = {}
    for (i, j, k), v in mu.constants.items():
        brackets.setdefault((i, j), {})[k] = v
        brackets.setdefault((j, i), {})[k] = -v
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    reached = {
        tuple(sorted((x, y, z)))
        for (x, y), images in brackets.items()
        for k in images
        for z in partners.get(k, ())
        if z != x and z != y
    }
    empty: dict[int, Fraction] = {}
    for a, b, c in sorted(reached):
        total: dict[int, Fraction] = {}
        # [[x, y], z] = sum_k c_xy^k [e_k, e_z]
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, v in brackets.get((x, y), empty).items():
                for m, w in brackets.get((k, z), empty).items():
                    total[m] = total.get(m, ZERO) + v * w
        if any(total.values()):
            return False, (a, b, c)
    return True, None


def lower_central_series(mu: LieBracket) -> SubspaceChain:
    """gamma_1 = n, gamma_{k+1} = [n, gamma_k]; stops at stabilization.

    A monomial bracket (each pair (i, j) has one target k) has every term
    spanned by basis vectors: if gamma_m is spanned by the e_x, x in S_m,
    then gamma_{m+1} is spanned by the [e_a, e_x], each a multiple of one
    e_k, so S_{m+1} = {k : (i, j, k) a constant with i or j in S_m}, and
    the dims are read off by set iteration.

    Any other bracket is eliminated.  The constants are indexed once by
    the basis vector they bracket with: x -> [(a, k, c)], c the
    coefficient of e_k in [e_a, e_x], so c_ab^k is listed under b as
    (a, k, c) and under a as (b, k, -c).  A spanning vector v of gamma_k
    then reads only the entries indexed by its support: [e_a, v]_k gains
    c v_x for each (a, k, c) under x.  The basis of each term is the pivot
    rows of its reduced echelon form.  Only spans are read, so the
    constants are scaled to coprime integers once and every vector is an
    int row.
    """
    n = mu.dim
    dims = [n]
    if len({(a, b) for a, b, _ in mu.constants}) == len(mu.constants):
        targets: dict[int, list[int]] = {}
        for (a, b, k) in mu.constants:
            targets.setdefault(a, []).append(k)
            targets.setdefault(b, []).append(k)
        support: Iterable[int] = range(1, n + 1)
        while True:
            support = {k for x in support for k in targets.get(x, ())}
            d = len(support)
            if d == 0 or d == dims[-1]:
                return SubspaceChain(tuple(dims), terminates=(d == 0))
            dims.append(d)
    by_vector: dict[int, list[tuple[int, int, int]]] = {}
    for (a, b, k), cv in zip(mu.constants, integer_row(mu.constants.values())):
        by_vector.setdefault(b - 1, []).append((a, k - 1, cv))
        by_vector.setdefault(a - 1, []).append((b, k - 1, -cv))
    current: list[dict[int, int]] = [{s: 1} for s in range(n)]
    while True:
        ech = Echelon(n)
        for v in current:
            images: dict[int, dict[int, int]] = {}
            for x, vx in v.items():
                for a, k, cv in by_vector.get(x, ()):
                    img = images.setdefault(a, {})
                    img[k] = img.get(k, 0) + cv * vx
            for img in images.values():
                ech.add_row(img)
        d = ech.rank
        if d == 0 or d == dims[-1]:
            return SubspaceChain(tuple(dims), terminates=(d == 0))
        current = [ech.pivots[p] for p in sorted(ech.pivots)]
        dims.append(d)


def topological_order(mu: LieBracket) -> list[int] | None:
    """The indices 1..n in a topological order of the index graph, or None
    when the graph has a cycle.

    The graph has an edge i -> k and an edge j -> k for each nonzero
    c_ij^k; k in {i, j} is a self-loop, so a cycle.  Kahn's algorithm.
    """
    n = mu.dim
    successors: dict[int, list[int]] = {}
    indegree = [0] * (n + 1)
    for (i, j, k) in mu.constants:
        successors.setdefault(i, []).append(k)
        successors.setdefault(j, []).append(k)
        indegree[k] += 2
    ready = [x for x in range(1, n + 1) if not indegree[x]]
    order = []
    while ready:
        x = ready.pop()
        order.append(x)
        for k in successors.get(x, ()):
            indegree[k] -= 1
            if not indegree[k]:
                ready.append(k)
    return order if len(order) == n else None


def is_nilpotent(mu: LieBracket) -> bool:
    """True iff the lower central series of mu reaches 0.

    If the index graph sorts topologically (``topological_order``), let
    rho(x) be the position of x in that order and F_m = span{e_x :
    rho(x) >= m}.  Every [e_a, e_x] lies in the span of the e_k with
    rho(k) > rho(x), so [n, F_m] lies in F_{m+1}; from gamma_1 = n = F_0
    it follows that gamma_{m+1} lies in F_m, and gamma_{n+1} = 0.  No
    elimination is needed.  A cycle proves nothing (a basis such as
    (e1, e2, e3 + e1) of heis3 has one), so only then is the series
    computed.
    """
    return topological_order(mu) is not None or lower_central_series(mu).terminates


def center(mu: LieBracket) -> tuple[dict[int, int], ...]:
    """Exact basis of {X : mu(X, e_i) = 0 for all i}, as ``nullspace`` gives it.

    Row (i, k) holds c_ai^k in column a: the constant c_ab^k is entry a of
    row (b, k), and -c_ab^k is entry b of row (a, k).  The system is
    homogeneous and its reduced echelon form unique, so the constants are
    scaled to coprime integers once and the basis is the same.
    """
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b, k), v in zip(mu.constants, integer_row(mu.constants.values())):
        rows.setdefault((b, k), {})[a - 1] = v
        rows.setdefault((a, k), {})[b - 1] = -v
    return tuple(nullspace(rows.values(), mu.dim))


def is_nice_basis(keys: Iterable[Key]) -> bool:
    """Combinatorial nice-basis test on an index set: ``mu.keys()``, a face
    J, or the keys of a weight dict.

    Each [e_i, e_j] must hit a single basis vector, and two different pairs
    may share a target only if they are disjoint.
    """
    targets: dict[tuple[int, int], int] = {}
    for (i, j, k) in keys:
        if (i, j) in targets:
            return False  # multi-term bracket
        targets[(i, j)] = k
    by_target: dict[int, list[tuple[int, int]]] = {}
    for pair, k in targets.items():
        by_target.setdefault(k, []).append(pair)
    for pairs in by_target.values():
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                if set(pairs[a]) & set(pairs[b]):
                    return False
    return True


def nice_conflicts(keys: Sequence[Key]) -> list[int]:
    """The conflict graph of an index set, by earlier neighbours: bit q of
    entry p, for q < p, is set when keys[p] and keys[q] bracket the same
    pair, or hit the same target from pairs sharing an index.

    ``is_nice_basis`` fails exactly on such a pair, so a subset is nice
    exactly when it is an independent set of this graph.
    """
    # the positions so far by pair (i, j) and by (-target, index), as masks
    seen: dict[tuple[int, int], int] = {}
    earlier = []
    for p, (i, j, k) in enumerate(keys):
        mask = 0
        for group in ((i, j), (-k, i), (-k, j)):
            had = seen.get(group, 0)
            mask |= had
            seen[group] = had | 1 << p
        earlier.append(mask)
    return earlier
