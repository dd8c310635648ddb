"""Derivation algebras, diagonal derivations, and the obstruction tests.

The derivation algebra Der(mu) is the exact nullspace of E -> E.mu on
n x n matrices.  Whether every derivation is traceless is decided on the
diagonal derivations first, and needs Der(mu) only when they are all
traceless.  The characteristically-nilpotent decision builds an Engel
flag: it succeeds iff every derivation is strictly triangular in an
adapted basis, and otherwise names the stage of the flag at which the
induced operators have no common kernel.  ``Analysis``
holds one bracket's Der(mu), Engel flag and diagonal torus for one call, so
that the traceless test, the Engel flag, the phi solve and the algebra
verdict build each at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import NotADerivationError
from .liecore import LieBracket
from .linalg import (
    Echelon,
    Mat,
    Vec,
    ZERO,
    frac,
    integer_row,
    min_norm_solution,
    nullspace,
    solve_affine,
)


@dataclass(frozen=True)
class DerivationBasis:
    dim_algebra: int
    basis: tuple[Mat, ...]

    def __len__(self):
        return len(self.basis)


@dataclass(frozen=True)
class DiagonalDerivationSpace:
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_basis(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(L_m v_m, L_m) for each basis vector v_m, L_m the lcm of its denominators.

        An LP over t' with the integer columns L_m v_m is the LP over t with
        the rational columns v_m, at t_m = L_m t'_m: a column scaled by a
        positive factor keeps every pivot (see ``nilcone.simplex``).
        """
        out = []
        for v in self.basis:
            vden = lcm(*[x.denominator for x in v])
            out.append((tuple(x.numerator * (vden // x.denominator) for x in v), vden))
        return tuple(out)

    def point(self, t) -> Vec:
        """Map parameter coordinates to a diagonal derivation vector.

        Summed in integers over one common denominator; only the entries
        read off at the end are ``Fraction``.
        """
        terms = []  # (integer vector, numerator, denominator) of each t_m v_m
        for tm, (ints, vden) in zip(map(frac, t), self.integer_basis):
            if tm:
                terms.append((ints, tm.numerator, tm.denominator * vden))
        den = lcm(*[d for *_, d in terms])
        total = [0] * len(self.basis[0])
        for ints, num, d in terms:
            f = num * (den // d)
            for r, x in enumerate(ints):
                if x:
                    total[r] += f * x
        return tuple(Fraction(x, den) for x in total)


def rep_action(e: Mat, mu: LieBracket) -> dict[tuple[int, int], Vec]:
    """(E.mu)(e_i, e_j) for i < j, as coefficient vectors."""
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


def is_derivation(e: Mat, mu: LieBracket) -> bool:
    return all(not any(v) for v in rep_action(e, mu).values())


def _derivation_nullspace(mu: LieBracket) -> list[Vec]:
    """Exact nullspace of E -> E.mu; unknown E_{pq} indexed as p*n + q (0-based).

    Row (i, j, r), i < j, is the e_r coefficient of (E.mu)(e_i, e_j) =
    E mu(e_i, e_j) - mu(E e_i, e_j) - mu(e_i, E e_j).  Each constant
    c_ab^k is added straight into the rows it touches.  The system is
    homogeneous, so the constants are scaled to coprime integers once and
    every row is an int row.
    """
    n = mu.dim
    by_key: dict[tuple[int, int, int], dict[int, int]] = {}

    def add(i, j, r, p, q, v):
        row = by_key.setdefault((i, j, r), {})
        idx = (p - 1) * n + (q - 1)
        row[idx] = row.get(idx, 0) + v

    for (a, b, k), v in zip(mu.constants, integer_row(mu.constants.values())):
        for r in range(1, n + 1):
            add(a, b, r, r, k, v)  # E mu(e_a, e_b)
        for i in range(1, b):
            add(i, b, k, a, i, -v)  # mu(E e_i, e_b) through E_ai
        for i in range(1, a):
            add(i, a, k, b, i, v)  # mu(E e_i, e_a) through E_bi
        for j in range(a + 1, n + 1):
            add(a, j, k, b, j, -v)  # mu(e_a, E e_j) through E_bj
        for j in range(b + 1, n + 1):
            add(b, j, k, a, j, v)  # mu(e_b, E e_j) through E_aj
    rows = [{c: x for c, x in by_key[key].items() if x} for key in sorted(by_key)]
    rows = [row for row in rows if row]
    rows.sort(key=len)
    return nullspace(rows, n * n)


def derivation_algebra(mu: LieBracket) -> DerivationBasis:
    """Basis of Der(mu) as n x n matrices."""
    n = mu.dim
    vecs = _derivation_nullspace(mu)
    # most rows of a basis derivation are zero; sharing one zero row keeps
    # thousands of short-lived n-tuples off the interpreter's free lists.
    # The basis vectors hold the shared ZERO, which a tuple comparison
    # passes by identity, with no Fraction call per entry.
    zero = (ZERO,) * n
    mats = tuple(
        tuple(row if row != zero else zero for row in (v[p * n:(p + 1) * n] for p in range(n)))
        for v in vecs
    )
    return DerivationBasis(n, mats)


def diagonal_derivations(mu: LieBracket) -> DiagonalDerivationSpace:
    """Solutions of d_k = d_i + d_j over the nonzero structure constants."""
    rows = []
    for (i, j, k) in mu.keys():
        row: dict[int, int] = {}
        for idx, v in ((k - 1, 1), (i - 1, -1), (j - 1, -1)):
            row[idx] = row.get(idx, 0) + v
        rows.append(row)
    return DiagonalDerivationSpace(tuple(nullspace(rows, mu.dim)))


def is_diagonal_derivation(d: Vec, mu: LieBracket) -> bool:
    """d_k = d_i + d_j on every nonzero constant, tested on d scaled once to integers."""
    if len(d) != mu.dim:
        return False
    d = integer_row(d)
    return all(d[k - 1] == d[i - 1] + d[j - 1] for (i, j, k) in mu.keys())


def _trace(e: Mat) -> Fraction:
    # most diagonals are mostly zero: a Fraction addition costs more than a test
    return sum([row[r] for r, row in enumerate(e) if row[r]], ZERO)


class Analysis:
    """Der(mu), its Engel flag and the diagonal torus of one bracket, each built on first use.

    An instance serves one call and is dropped with it; nothing is cached
    on the bracket or across calls.
    """

    def __init__(self, mu: LieBracket):
        self.mu = mu

    @cached_property
    def dspace(self) -> DiagonalDerivationSpace:
        return diagonal_derivations(self.mu)

    @cached_property
    def der(self) -> DerivationBasis:
        return derivation_algebra(self.mu)

    @cached_property
    def engel(self) -> EngelResult:
        return engel_flag(self.der)

    @cached_property
    def traceless(self) -> bool:
        """True iff every derivation of mu has trace 0.

        The diagonal torus decides first, and exactly: diag(d) with
        d_k = d_i + d_j on every nonzero constant is itself a derivation,
        of trace sum(d).  So one vector of ``dspace`` with a nonzero sum
        settles the question without Der(mu).  Only a traceless torus
        reads the traces of ``der``.
        """
        if any(sum(v, ZERO) for v in self.dspace.basis):
            return False
        return not any(_trace(e) for e in self.der.basis)


@dataclass(frozen=True)
class EngelResult:
    is_nilpotent: bool
    flag_dims: tuple[int, ...]
    # on failure: the stage whose induced operators have no common kernel
    witness_stage: int | None = None


def engel_flag(der: DerivationBasis) -> EngelResult:
    """The Engel flag of the derivations in ``der``.

    The flag 0 = V_0 < V_1 < ... grows by the common kernel of the
    operators Der(mu) induces on the quotient by V_s.  V_s is one echelon
    form: its free columns c index a complement, and D e_c reduced modulo
    V_s is column c of the induced operator, read at those columns.  A
    kernel is that of any nonzero multiple, so each derivation is scaled
    to integers once, and each induced operator is put over the common
    denominator of its reduced columns.
    """
    n = der.dim_algebra
    if not der.basis:
        return EngelResult(True, (n,))
    zero = (ZERO,) * n  # see derivation_algebra
    operators = []
    for e in der.basis:
        entries = [(r, c, x) for r, row in enumerate(e) if row != zero
                   for c, x in enumerate(row) if x]
        den = lcm(*(x.denominator for _, _, x in entries))
        cols: dict[int, dict[int, int]] = {}
        for r, c, x in entries:
            cols.setdefault(c, {})[r] = x.numerator * (den // x.denominator)
        operators.append(cols)
    flag = Echelon(n)
    flag_dims: list[int] = []
    while flag.rank < n:
        comp = flag.free_columns()
        position = {c: i for i, c in enumerate(comp)}
        rows = []
        for cols in operators:
            reduced = [(position[c], *flag.reduce_scaled(col, 1))
                       for c, col in cols.items() if c in position]
            common = lcm(*(den for _, _, den in reduced))
            induced: dict[int, dict[int, int]] = {}
            for i, col, den in reduced:
                scale = common // den
                for a, v in col.items():
                    induced.setdefault(a, {})[i] = v * scale
            rows.extend(induced.values())
        kernel = nullspace(rows, len(comp))
        if not kernel:
            return EngelResult(False, tuple(flag_dims), witness_stage=len(flag_dims))
        for kv in kernel:
            flag.add_row({c: x for c, x in zip(comp, kv) if x})
        flag_dims.append(flag.rank)
    return EngelResult(True, tuple(flag_dims))


INFEASIBLE = "infeasible"


def solve_phi(der: DerivationBasis, dspace: DiagonalDerivationSpace) -> Vec | str:
    """Solve tr(phi . E) = tr(E) over the Der basis, phi in the diagonal torus.

    Returns the minimum-norm diagonal solution, or INFEASIBLE when no
    diagonal derivation satisfies the trace pairing (which does not prove
    a pre-Einstein derivation fails to exist off the diagonal).
    """
    n = der.dim_algebra
    if dspace.dim == 0:
        # phi = 0 is the only candidate; works iff every trace vanishes
        if not any(_trace(e) for e in der.basis):
            return (ZERO,) * n
        return INFEASIBLE
    # unknowns: coordinates t over the diagonal-derivation basis
    rows = []
    rhs = []
    for e in der.basis:
        row = {}
        for m, v in enumerate(dspace.basis):
            coeff = sum((v[r] * e[r][r] for r in range(n)), ZERO)
            if coeff:
                row[m] = coeff
        rows.append(row)
        rhs.append(_trace(e))
    sol = solve_affine(rows, rhs, dspace.dim)
    if sol is None:
        return INFEASIBLE
    part, null = sol
    # minimize the norm of phi itself, not of the coordinates
    phi0 = dspace.point(part)
    null_phi = [dspace.point(v) for v in null]
    return min_norm_solution(phi0, null_phi)


def require_diagonal_derivation(d: Vec, mu: LieBracket) -> None:
    if not is_diagonal_derivation(d, mu):
        raise NotADerivationError(f"{d} is not a diagonal derivation")
