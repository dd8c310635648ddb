"""Derivation algebras, diagonal derivations, and the obstruction tests.

The derivation algebra Der(mu) is the exact nullspace of E -> E.mu on
n x n matrices, its rows built in one pass over the constants and each
basis derivation kept as the integer columns of the nullspace vector.
The diagonal torus is found by substitution on d_k = d_i + d_j, in the
topological order of the index graph, and held as the integer vectors
that ``nullspace`` would give (``integer_basis``): the reduced basis of a
span is unique.  The rational basis that ``der``, ``cone`` and the
catalog print is derived from them.  Whether every derivation
is traceless is decided on the diagonal derivations first.  A nonzero
torus grades Der(mu) by torus weight, every row of E -> E.mu is
homogeneous and the trace lives in weight 0, so a traceless nonzero
torus is followed by the weight-zero block of the system alone, and
only a zero torus needs Der(mu).  Whether every derivation is nilpotent
is decided on the torus first (a nonzero diagonal derivation is not
nilpotent), then on the basis derivations: one with tr(D^2) != 0 is not
nilpotent.  Only when every basis derivation has tr(D^2) = 0 is the
Engel flag built: it succeeds iff every derivation is strictly
triangular in an adapted basis, and otherwise names the stage of the
flag at which the induced operators have no common kernel; each stage
reads only the columns D e_c not yet in the flag.  ``Analysis`` holds
one bracket's index order, generator-ones derivation D*, Der(mu), Engel
flag and diagonal torus for one call, each built on first use, so that
the nilpotency test, the traceless test, the characteristically-nilpotent
test, the phi solve and the algebra verdict build each at most once, a
verdict that the torus or the traces settle builds no flag, and a
verdict that D* settles builds no torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InvariantViolation, NotADerivationError
from .liecore import Key, LieBracket, is_nilpotent, topological_order
from .linalg import (
    Echelon,
    Vec,
    ZERO,
    fmt_rational,
    frac,
    integer_row,
    nullspace,
)

# a derivation E as its integer columns: c -> {r: E_rc}, nonzero entries only
Columns = dict[int, dict[int, int]]


@dataclass(frozen=True)
class DerivationBasis:
    """Der(mu) as the primitive integer nullspace vectors, each a positive
    multiple of a rational basis derivation: kernels, traceless-ness and
    the equations of phi are the same for either."""

    dim_algebra: int
    basis: tuple[Columns, ...]

    def __len__(self):
        return len(self.basis)


@dataclass(frozen=True)
class DiagonalDerivationSpace:
    """The diagonal torus as (w_m, L_m): w_m a positive integer multiple of
    the rational basis vector v_m, in dense form, and L_m > 0 its entry at
    its least index.

    v_m = w_m / L_m is 1 at that index.  ``_diagonal_torus`` builds each
    w_m primitive (the ``nullspace`` vector); a space built otherwise
    need not hold primitive vectors, and nothing here checks it.  An LP
    over t' with the integer columns w_m is the LP over t with the
    rational columns v_m, at t_m = L_m t'_m: a column scaled by a positive
    factor keeps every pivot (see ``nilcone.simplex``).
    """

    integer_basis: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def dim(self) -> int:
        return len(self.integer_basis)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The rational vectors v_m, as ``der``, ``cone`` and the catalog print them."""
        return tuple(tuple(Fraction(x, lead) for x in ints) for ints, lead in self.integer_basis)

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
        total = [0] * len(self.integer_basis[0][0])
        for ints, num, d in terms:
            f = num * (den // d)
            for r, x in enumerate(ints):
                if x:
                    total[r] += f * x
        return tuple(Fraction(x, den) for x in total)


def _derivation_rows(mu: LieBracket, columns: dict[int, int] | None = None) -> list[dict[int, int]]:
    """The rows of E -> E.mu; unknown E_{pq} indexed as p*n + q (0-based).

    Row (i, j, r), i < j, is the e_r coefficient of (E.mu)(e_i, e_j) =
    E mu(e_i, e_j) - mu(E e_i, e_j) - mu(e_i, E e_j), keyed by the one int
    (i*n + j)*n + r (0-based).  The system is built in one pass over the
    constants: each c_ab^k, scaled once with the others to coprime
    integers (the system is homogeneous, so every row is an int row),
    adds its five runs of terms straight into the rows they touch, each
    run a pair of ranges of row keys and unknowns.  Entries that cancel
    stay as zeros, which ``nullspace`` drops.  With ``columns``, only the
    unknowns it holds are entered, each at the column it maps to.  The
    rows come sorted by length; under the fixed pivot rule of
    ``nullspace`` the reduced form of a span is unique, so the basis does
    not depend on their order.
    """
    n = mu.dim
    nn = n * n
    rows: dict[int, dict[int, int]] = {}
    for (a, b, k), v in zip(mu.constants, integer_row(mu.constants.values())):
        a, b, k = a - 1, b - 1, k - 1
        for keys, unknowns, x in (
            # E mu(e_a, e_b): row (a, b, r) through E_rk, every r
            (range((a * n + b) * n, (a * n + b + 1) * n), range(k, nn, n), v),
            # mu(E e_i, e_b) through E_ai: row (i, b, k), i < b
            (range(b * n + k, b * nn, nn), range(a * n, a * n + b), -v),
            # mu(E e_i, e_a) through E_bi: row (i, a, k), i < a
            (range(a * n + k, a * nn, nn), range(b * n, b * n + a), v),
            # mu(e_a, E e_j) through E_bj: row (a, j, k), j > a
            (range((a * n + a + 1) * n + k, (a + 1) * nn, n), range(b * n + a + 1, b * n + n), -v),
            # mu(e_b, E e_j) through E_aj: row (b, j, k), j > b
            (range((b * n + b + 1) * n + k, (b + 1) * nn, n), range(a * n + b + 1, a * n + n), v),
        ):
            pairs = zip(keys, unknowns)
            if columns is not None:
                pairs = [(key, columns[idx]) for key, idx in pairs if idx in columns]
            for key, idx in pairs:
                row = rows.get(key)
                if row is None:
                    rows[key] = {idx: x}
                else:
                    row[idx] = row.get(idx, 0) + x
    return sorted(rows.values(), key=len)


def _derivation_nullspace(mu: LieBracket) -> list[dict[int, int]]:
    """Exact nullspace of E -> E.mu, E_{pq} at p*n + q (see ``_derivation_rows``)."""
    return nullspace(_derivation_rows(mu), mu.dim * mu.dim)


def _weight_zero_nullspace(mu: LieBracket, dspace: DiagonalDerivationSpace) -> list[dict[int, int]]:
    """Der(mu) in torus weight 0, E_{pq} at p*n + q as ``_derivation_nullspace`` indexes it.

    Index p has the torus weight (w_1[p], ..., w_k[p]) over the integer
    torus vectors, and E_pq the weight of p minus that of q: diag(w)
    brackets E_pq to (w_p - w_q) E_pq.  Row (i, j, r) of the system is
    homogeneous of weight w_r - w_i - w_j, so Der(mu) is the direct sum
    of its weight spaces, and the weight-zero one is the kernel of the
    rows over the unknowns E_pq of equal weight at p and q alone.  Those
    unknowns keep their order, so each vector is the one
    ``_derivation_nullspace`` gives for the same free column.
    """
    n = mu.dim
    classes: dict[tuple[int, ...], list[int]] = {}
    for p in range(n):
        classes.setdefault(tuple(w[p] for w, _ in dspace.integer_basis), []).append(p)
    unknowns = sorted(p * n + q for cls in classes.values() for p in cls for q in cls)
    columns = {idx: c for c, idx in enumerate(unknowns)}
    kernel = nullspace(_derivation_rows(mu, columns), len(unknowns))
    return [{unknowns[c]: x for c, x in v.items()} for v in kernel]


def derivation_algebra(mu: LieBracket) -> DerivationBasis:
    """Basis of Der(mu), each derivation as its integer columns."""
    n = mu.dim
    basis = []
    for v in _derivation_nullspace(mu):
        cols: Columns = {}
        for idx, x in v.items():
            r, c = divmod(idx, n)
            cols.setdefault(c, {})[r] = x
        basis.append(cols)
    return DerivationBasis(n, tuple(basis))


def diagonal_derivations(mu: LieBracket) -> DiagonalDerivationSpace:
    """Solutions of d_k = d_i + d_j over the nonzero structure constants
    (see ``_diagonal_torus``)."""
    return _diagonal_torus(mu, topological_order(mu))


def _diagonal_torus(mu: LieBracket, order: list[int] | None) -> DiagonalDerivationSpace:
    """Solutions of d_k = d_i + d_j over the nonzero structure constants,
    found by substitution.

    Each index x starts as its own parameter p_x, and d_x is held as an
    integer form in the parameters still free.  The constants are read in
    the topological order of their targets (``topological_order``): the
    first constant into k finds p_k in forms[k] alone and defines forms[k]
    = forms[i] + forms[j].  A later one gives the integer relation
    forms[k] - forms[i] - forms[j] = 0, which eliminates its largest
    parameter p from every form; when p has a coefficient c other than
    +-1, the relation's other parameters are first rescaled by c, so that
    the forms stay integer.  A graph with a cycle defines nothing and
    reads every constant as a relation, in ``mu.keys()`` order.

    A free p_q is held by forms[q] and by no other free index, so its
    coefficients are a torus vector that pivots at q.  The vectors are
    then moved to the pivots ``nullspace`` uses: a vector with an entry
    below its pivot pivots at its least index instead, and is eliminated
    from the others there.  That ends with each vector positive at its
    least index and 0 at the others' least indices.  The reduced basis of
    a span is unique, so each is, made primitive, the vector ``nullspace``
    returns for that free column, in the same order.
    """
    n = mu.dim
    if order is None:
        keys = mu.keys()
    else:
        rank = [0] * (n + 1)
        for r, x in enumerate(order):
            rank[x] = r
        keys = sorted(mu.constants, key=lambda key: rank[key[2]])
    forms: list[dict[int, int]] = [{}] + [{x: 1} for x in range(1, n + 1)]
    fresh = [order is not None] * (n + 1)  # p_k is held by forms[k] alone
    for (i, j, k) in keys:
        rel = forms[k].copy()
        for x in (i, j):
            for q, a in forms[x].items():
                rel[q] = rel.get(q, 0) - a
        rel = {q: a for q, a in rel.items() if a}
        first, fresh[k] = fresh[k], False
        if not rel:
            continue
        p = k if first else max(rel)
        c = rel.pop(p)  # c p + rel = 0
        if c == -1:  # p = rel: negated, as p = -rel for c = 1
            rel = {q: -b for q, b in rel.items()}
        elif c != 1:  # p_q = c p'_q for each q in rel, then p = -rel(p')
            for form in forms:
                for q in rel:
                    if q in form:
                        form[q] *= c
        for form in (forms[k],) if first else forms:
            a = form.pop(p, 0)
            if a:
                for q, b in rel.items():
                    v = form.get(q, 0) - a * b
                    if v:
                        form[q] = v
                    else:
                        del form[q]
    # the coefficients of each free p_q, pivoting at q
    vectors = {q: {} for q in range(1, n + 1) if q in forms[q]}
    for x in range(1, n + 1):
        for q, a in forms[x].items():
            vectors[q][x] = a
    pivots = list(vectors)
    basis = list(vectors.values())
    moved = [m for m, v in enumerate(basis) if min(v) != pivots[m]]
    while moved:
        m = moved.pop()
        v = basis[m]
        x0 = min(v)
        if x0 == pivots[m]:
            continue
        pivots[m] = x0
        a = v[x0]
        for m2, u in enumerate(basis):
            b = u.get(x0)
            if b and m2 != m:
                w = {x: a * c for x, c in u.items()}
                for x, c in v.items():
                    w[x] = w.get(x, 0) - b * c
                w = {x: c for x, c in w.items() if c}
                g = gcd(*w.values())
                basis[m2] = u = {x: c // g for x, c in w.items()}
                if min(u) != pivots[m2]:
                    moved.append(m2)
    integer_basis = []
    for x0, v in sorted(zip(pivots, basis), key=lambda pv: pv[0]):
        g = gcd(*v.values())
        if v[x0] < 0:
            g = -g
        ints = [0] * n
        for x, a in v.items():
            ints[x - 1] = a // g
        integer_basis.append((tuple(ints), v[x0] // g))
    return DiagonalDerivationSpace(tuple(integer_basis))


def is_diagonal_derivation(d: Vec, mu: LieBracket) -> bool:
    """d_k = d_i + d_j on every nonzero constant, tested on d scaled once to integers."""
    return _diagonal_derivation_row(d, mu) is not None


def _diagonal_derivation_row(d: Vec, mu: LieBracket) -> tuple[int, ...] | None:
    """``integer_row(d)`` when d is a diagonal derivation of mu, else None."""
    if len(d) != mu.dim:
        return None
    e = integer_row(d)
    return e if all(e[k - 1] == e[i - 1] + e[j - 1] for (i, j, k) in mu.keys()) else None


def _diagonal(e: Columns) -> dict[int, int]:
    return {c: col[c] for c, col in e.items() if c in col}


def _trace(e: Columns) -> int:
    return sum(_diagonal(e).values())


def _trace_of_square(e: Columns) -> int:
    """tr(E^2) = sum of E_rc E_cr over the nonzero entries E_rc."""
    return sum(x * e[r].get(c, 0) for c, col in e.items() for r, x in col.items() if r in e)


class Analysis:
    """D*, Der(mu), its Engel flag and the diagonal torus of one bracket, each built on first use.

    The topological order of the index graph is sorted once, for the
    nilpotency test, D* and the torus.  ``traceless`` reads the torus, then
    the weight-zero block of Der(mu) when the torus is nonzero and
    traceless, and Der(mu) itself only when the torus is zero;
    ``characteristically_nilpotent`` reads the torus, then Der(mu), and
    the Engel flag only when no basis derivation has tr(D^2) != 0.  An
    instance serves one call and is dropped with it; nothing is cached
    on the bracket or across calls.
    """

    def __init__(self, mu: LieBracket):
        self.mu = mu

    @cached_property
    def order(self) -> list[int] | None:
        return topological_order(self.mu)

    @cached_property
    def nilpotent(self) -> bool:
        """``is_nilpotent``, read off the shared order when the graph sorts."""
        return self.order is not None or is_nilpotent(self.mu)

    @cached_property
    def generator_ones(self) -> tuple[int, ...] | None:
        """D*: 1 at every index that no constant targets, and d_k = d_i + d_j
        along ``order`` from the first constant into each other k.

        None when the graph has a cycle, or when a later constant into some
        k breaks d_k = d_i + d_j; otherwise D* is a diagonal derivation with
        every entry positive.  One pass over the constants, with no sort,
        splits off the first into each target; only the others are read
        again, to be checked.
        """
        order = self.order
        if order is None:
            return None
        first: dict[int, Key] = {}
        rest: list[Key] = []
        for key in self.mu.constants:
            if key[2] in first:
                rest.append(key)
            else:
                first[key[2]] = key
        d = [1] * (self.mu.dim + 1)
        for k in order:
            if k in first:
                i, j, _ = first[k]
                d[k] = d[i] + d[j]
        for i, j, k in rest:
            if d[k] != d[i] + d[j]:
                return None
        return tuple(d[1:])

    @cached_property
    def dspace(self) -> DiagonalDerivationSpace:
        return _diagonal_torus(self.mu, self.order)

    @cached_property
    def der(self) -> DerivationBasis:
        return derivation_algebra(self.mu)

    @cached_property
    def engel(self) -> EngelResult:
        """``engel_flag(der)``, which fails at stage 0 without the flag when
        the integer torus vectors w_m cover every index: each diag(w_m) is
        a derivation, so Der(mu) has no common kernel."""
        if self.dspace.dim and all(map(any, zip(*(w for w, _ in self.dspace.integer_basis)))):
            return EngelResult(False, (), witness_stage=0)
        return engel_flag(self.der)

    @cached_property
    def traceless(self) -> bool:
        """True iff every derivation of mu has trace 0.

        The diagonal torus decides first, and exactly: diag(d) with
        d_k = d_i + d_j on every nonzero constant is itself a derivation,
        of trace sum(d).  So one integer vector of ``dspace`` with a
        nonzero sum settles the question without Der(mu).  A nonzero
        traceless torus grades Der(mu) (``_weight_zero_nullspace``), and
        the trace, the sum of the E_pp, lives in weight 0: the traces of
        that block decide.  Only a zero torus reads the traces of ``der``.
        """
        if any(sum(w) for w, _ in self.dspace.integer_basis):
            return False
        if self.dspace.dim:
            n = self.mu.dim  # E_pp sits at p*n + p = p*(n + 1)
            return not any(sum(x for idx, x in v.items() if idx % (n + 1) == 0)
                           for v in _weight_zero_nullspace(self.mu, self.dspace))
        return not any(_trace(e) for e in self.der.basis)

    @cached_property
    def characteristically_nilpotent(self) -> bool:
        """True iff every derivation of mu is nilpotent.

        A nonzero diagonal derivation is not nilpotent, so a nonzero torus
        settles the answer without Der(mu).  Otherwise the basis
        derivations decide first, in integers: a nilpotent D has a
        nilpotent D^2, so tr(D^2) = 0, and one basis derivation with
        tr(D^2) != 0 settles the answer without the Engel flag (an
        integer derivation is c D for some c > 0, and tr((c D)^2) =
        c^2 tr(D^2)).  Only when every basis derivation has tr(D^2) = 0
        is the flag built.
        """
        if self.dspace.dim or any(_trace_of_square(e) for e in self.der.basis):
            return False
        return self.engel.is_nilpotent


@dataclass(frozen=True)
class EngelResult:
    is_nilpotent: bool
    flag_dims: tuple[int, ...]
    # on failure: the stage whose induced operators have no common kernel
    witness_stage: int | None = None


def _induced_rows(live: list[Columns], flag: Echelon, comp: list[int], kept: list[Columns]):
    """The rows of each operator Der(mu) induces modulo ``flag``, one
    operator at a time, over the complement columns ``comp``.

    A column D e_c that is a pivot of the flag, or that reduces to 0, lies
    in every later flag too.  So each derivation of ``live`` goes to
    ``kept`` with its other columns only, and not at all when none is
    left; one that keeps every column goes as it is.
    """
    position = {c: i for i, c in enumerate(comp)}
    for cols in live:
        reduced = []
        for c, col in cols.items():
            if c in position:
                rcol, den = flag.reduce_scaled(col)
                if rcol:
                    reduced.append((c, rcol, den))
        if len(reduced) == len(cols):
            kept.append(cols)
        elif reduced:
            kept.append({c: cols[c] for c, _, _ in reduced})
        common = lcm(*(den for _, _, den in reduced))
        induced: dict[int, dict[int, int]] = {}
        for c, rcol, den in reduced:
            scale = common // den
            i = position[c]
            for a, v in rcol.items():
                induced.setdefault(a, {})[i] = v * scale
        yield from induced.values()


def engel_flag(der: DerivationBasis) -> EngelResult:
    """The Engel flag of the derivations in ``der``.

    The flag 0 = V_0 < V_1 < ... grows by the common kernel of the
    operators Der(mu) induces on the quotient by V_s.  V_s is one echelon
    form: its free columns c index a complement, and D e_c reduced modulo
    V_s is column c of the induced operator, read at those columns.  A
    kernel is that of any nonzero multiple, so each induced operator is
    put over the common denominator of its reduced columns.  The rows
    reach ``nullspace`` one induced operator at a time, and each stage
    reads only the columns not yet in the flag (``_induced_rows``).
    """
    n = der.dim_algebra
    if not der.basis:
        return EngelResult(True, (n,))
    live = der.basis
    flag = Echelon(n)
    flag_dims: list[int] = []
    while flag.rank < n:
        comp = flag.free_columns()
        kept: list[Columns] = []
        kernel = nullspace(_induced_rows(live, flag, comp, kept), len(comp))
        if not kernel:
            return EngelResult(False, tuple(flag_dims), witness_stage=len(flag_dims))
        for kv in kernel:
            flag.add_row({comp[i]: x for i, x in kv.items()})
        flag_dims.append(flag.rank)
        live = kept
    return EngelResult(True, tuple(flag_dims))


INFEASIBLE = "infeasible"


def solve_phi(a: Analysis) -> Vec | str:
    """The pre-Einstein derivation phi of a.mu, read in the diagonal torus:
    tr(phi . E) = tr(E) for every derivation E.

    Returns INFEASIBLE when no diagonal derivation satisfies the trace
    pairing (which does not prove a pre-Einstein derivation fails to
    exist off the diagonal).

    With phi = sum s_m w_m over the integer torus columns w_m (see
    ``DiagonalDerivationSpace.integer_basis``): each diag(w_m) is itself a
    derivation, so the pairing with it reads G s = b, for the Gram matrix
    G of the w_m and b_m = sum_r w_m[r].  G is positive definite, so s is
    unique: it is the kernel vector of the rows (-b_m | G_m) that is 1 at
    column 0, with s_m at m + 1.  phi exists exactly when that s also
    pairs correctly with every basis derivation, which is checked in
    integers.
    """
    n = a.mu.dim
    k = a.dspace.dim
    if k == 0:
        # phi = 0 is the only candidate; works iff every trace vanishes
        return INFEASIBLE if any(_trace(e) for e in a.der.basis) else (ZERO,) * n
    cols = [w for w, _ in a.dspace.integer_basis]
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # r -> (m, w_m[r]), w_m[r] != 0
    for m, w in enumerate(cols):
        for r, x in enumerate(w):
            if x:
                at[r].append((m, x))
    rows = [{0: -sum(w)} for w in cols]  # -b_m at column 0, then G_m
    for pairs in at:
        for m, x in pairs:
            row = rows[m]
            for m2, x2 in pairs:
                row[m2 + 1] = row.get(m2 + 1, 0) + x * x2
    kernel = nullspace(rows, k + 1)
    if len(kernel) != 1 or kernel[0].get(0, 0) <= 0:
        raise InvariantViolation("the torus Gram system does not pin phi")
    s = kernel[0]
    den = s[0]  # phi = num / den
    num = [sum(s.get(m + 1, 0) * x for m, x in pairs) for pairs in at]
    # tr(phi . E) - tr(E), times den: sum of (num[c] - den) E_cc
    excess = [x - den for x in num]
    for e in a.der.basis:
        for c, col in e.items():
            if c in col:  # only a derivation with a diagonal entry can fail
                if sum(excess[q] * e[q][q] for q in e if q in e[q]):
                    return INFEASIBLE
                break
    return tuple(Fraction(x, den) for x in num)


def require_diagonal_derivation(d: Vec, mu: LieBracket) -> tuple[int, ...]:
    """d scaled to its primitive integer row, a positive multiple of d, once
    d is checked to be a diagonal derivation of mu."""
    e = _diagonal_derivation_row(d, mu)
    if e is None:
        raise NotADerivationError(f"{','.join(map(fmt_rational, d))} is not a diagonal derivation")
    return e
