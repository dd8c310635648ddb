"""Skew-symmetric algebras with exact rational structure constants.

A bracket is stored sparsely as a map (i, j, k) -> coefficient with the
canonical orientation i < j; antisymmetry is implicit.  Indices are
1-based everywhere in the public API, matching the algebra file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import ParseError
from .linalg import (
    Echelon,
    ONE,
    Vec,
    ZERO,
    fmt_rational,
    frac,
    mat_inv,
    mat_vec,
    nullspace,
)

Key = tuple[int, int, int]


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

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        """mu(x, y) for arbitrary rational vectors (0-based coordinates)."""
        out = [ZERO] * self.dim
        for (i, j, k), cv in self.constants.items():
            coeff = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if coeff:
                out[k - 1] += cv * coeff
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.constants

    def scale(self, s) -> "LieBracket":
        s = frac(s)
        if s == 0:
            return LieBracket(self.dim, {})
        return LieBracket(self.dim, {key: s * v for key, v in self.constants.items()})

    def diagonal_act(self, h: Sequence[Fraction]) -> "LieBracket":
        """h . mu for h = Diag(h_1, ..., h_n): c' = (h_k / (h_i h_j)) c."""
        new = {}
        for (i, j, k), v in self.constants.items():
            new[(i, j, k)] = frac(h[k - 1]) / (frac(h[i - 1]) * frac(h[j - 1])) * v
        return LieBracket(self.dim, new)


@dataclass(frozen=True)
class SubspaceChain:
    """Nested subspaces, e.g. the lower central series.

    ``terms`` holds one basis matrix (tuple of vectors) per nonzero term;
    ``terminates`` is True when the series stabilizes at zero.
    """

    terms: tuple[tuple[Vec, ...], ...]
    dims: tuple[int, ...]
    terminates: bool

    @property
    def nilpotency_class(self) -> int:
        return len(self.dims)


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

    Each spanning vector v of gamma_k takes one pass over the constants:
    c_ab^k adds c v_b to [e_a, v]_k and -c v_a to [e_b, v]_k.  The basis
    of each term is the pivot rows of its reduced echelon form.
    """
    n = mu.dim
    current: list[dict[int, Fraction]] = [{s: ONE} for s in range(n)]
    terms = [tuple(tuple(ONE if t == s else ZERO for t in range(n)) for s in range(n))]
    dims = [n]
    while True:
        ech = Echelon(n)
        for v in current:
            images: dict[int, dict[int, Fraction]] = {}
            for (a, b, k), cv in mu.constants.items():
                if b - 1 in v:
                    img = images.setdefault(a, {})
                    img[k - 1] = img.get(k - 1, ZERO) + cv * v[b - 1]
                if a - 1 in v:
                    img = images.setdefault(b, {})
                    img[k - 1] = img.get(k - 1, ZERO) - cv * v[a - 1]
            for img in images.values():
                ech.add_row(img)
        d = ech.rank
        if d == 0 or d == dims[-1]:
            return SubspaceChain(tuple(terms), tuple(dims), terminates=(d == 0))
        current = [ech.pivots[p] for p in sorted(ech.pivots)]
        terms.append(tuple(tuple(row.get(t, ZERO) for t in range(n)) for row in current))
        dims.append(d)


def is_nilpotent(mu: LieBracket) -> bool:
    return lower_central_series(mu).terminates


def center(mu: LieBracket) -> tuple[Vec, ...]:
    """Exact basis of {X : mu(X, e_i) = 0 for all i}.

    Row (i, k) holds c_ai^k in column a: the constant c_ab^k is entry a of
    row (b, k), and -c_ab^k is entry b of row (a, k).
    """
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b, k), v in mu.constants.items():
        rows.setdefault((b, k), {})[a - 1] = v
        rows.setdefault((a, k), {})[b - 1] = -v
    return tuple(nullspace(rows.values(), mu.dim))


def act(g: Sequence[Sequence[Fraction]], mu: LieBracket) -> LieBracket:
    """Basis change g . mu := g mu(g^{-1} ., g^{-1} .)."""
    n = mu.dim
    ginv = mat_inv(g)
    cols = [tuple(ginv[r][i] for r in range(n)) for i in range(n)]
    new: dict[Key, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = mat_vec(g, mu.bracket(cols[i - 1], cols[j - 1]))
            for k in range(1, n + 1):
                if w[k - 1]:
                    new[(i, j, k)] = w[k - 1]
    return LieBracket(n, new)


def is_nice_basis(mu: LieBracket) -> bool:
    """Combinatorial nice-basis test.

    Each [e_i, e_j] must hit a single basis vector, and two different pairs
    may share a target only if they are disjoint.
    """
    targets: dict[tuple[int, int], int] = {}
    for (i, j, k) in mu.keys():
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
