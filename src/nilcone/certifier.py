"""Verdict pipeline: is a diagonal derivation Ricci negative, and can an
algebra be a Ricci negative nilradical at all.

Positive verdicts always carry a certificate that re-verifies from stored
data alone with exact arithmetic; negative verdicts carry one of the
implemented obstructions.  Everything else is Unknown, reported honestly:
the degeneration search under-approximates the true cone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import (
    Analysis,
    DiagonalDerivationSpace,
    is_diagonal_derivation,
    require_diagonal_derivation,
)
from .errors import InputError, InvariantViolation, ParseError
from .liecore import Key, LieBracket, emit_bracket, is_nice_basis, parse_bracket, center
from .linalg import ONE, Vec, ZERO, fmt_rational, frac, integer_row, primitive
from .momentricci import MetricExtension, _positive_definite, _ricci_negative, is_ricci_negative
from .polytope import (
    Weights,
    interior_point,
    iter_nice_candidates,
    pairing,
    require_budget,
    strict_cone_membership,
    verify_membership,
    walk_faces,
    weight_set,
)
from .simplex import max_margin

POSITIVE_DERIVATION = "PositiveDerivation"
NICE_CONE = "NiceCone"
DEGENERATION_CONE = "DegenerationCone"

CERTIFIED_RN = "CertifiedRN"
CERTIFIED_NOT_RN = "CertifiedNotRN"
UNKNOWN = "Unknown"

SCOPE_DERIVATION = "derivation"
SCOPE_ALGEBRA = "algebra"


@dataclass(frozen=True)
class Certificate:
    kind: str
    d: Vec
    # (alpha, J) for DegenerationCone; the limit bracket lambda_J keeps the
    # constants of mu indexed by J, and is read off mu, never built
    degeneration: tuple[Vec, frozenset[Key]] | None = None
    coefficients: dict[Key, Fraction] = field(default_factory=dict)
    slack: Fraction = ZERO
    witness: MetricExtension | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    scope: str
    d: Vec | None = None
    certificate: Certificate | None = None
    obstruction: str | None = None
    notes: str = ""


NOT_POSITIVE_ON_CENTER = "restriction to the center is not positive definite"


def necessary_condition(mu: LieBracket, d: Vec) -> tuple[bool, str | None]:
    """tr D > 0 and D positive definite on the center.

    Both are read in integers off e, d scaled once to its primitive
    integer row, a positive multiple of d: tr D has the sign of sum(e),
    and the center test is ``_positive_on_center`` on e.  Only a failing
    trace is summed in Fractions, for its message.
    """
    e = require_diagonal_derivation(d, mu)
    if sum(e) <= 0:
        return False, f"trace {sum(d, ZERO)} is not positive"
    if not _positive_on_center(mu, e):
        return False, NOT_POSITIVE_ON_CENTER
    return True, None


def _sinks(mu: LieBracket) -> list[int]:
    """The 0-based indices r that occur in no bracketed pair: each e_r is central."""
    bracketed = {x - 1 for (i, j, _) in mu.constants for x in (i, j)}
    return [r for r in range(mu.dim) if r not in bracketed]


def _positive_on_center(mu: LieBracket, e: tuple[int, ...]) -> bool:
    """D positive definite on the center of mu, for e a positive integer
    multiple of D.

    A sink r settles a failure before the center is solved for: e_r is
    central and D e_r = D_r e_r, so D_r <= 0 there already fails the
    test.  Otherwise the center need not be spanned by standard basis
    vectors, so the restriction is tested as a quadratic form: its Gram
    matrix, built in integers from e and the integer center basis as dict
    rows, must pass the exact Sylvester test.  Each integer center vector
    is a positive multiple of a rational basis vector, and e of D, so
    every leading principal minor is the rational one times a positive
    factor, which keeps the verdict.
    """
    if any(e[r] <= 0 for r in _sinks(mu)):
        return False
    z = center(mu)
    if not z:
        return True
    # only coordinates where e and both center vectors are nonzero add
    weighted = [[(r, e[r] * v) for r, v in za.items() if e[r]] for za in z]
    return _positive_definite([{b: sum([w * zb[r] for r, w in dza if r in zb])
                                for b, zb in enumerate(z)} for dza in weighted])


def membership_certificate(
    d: Vec, weights: Weights, kind: str, degeneration
) -> Certificate | None:
    """The cone certificate of d over the given weights, or None.  A
    degeneration comes as (alpha, J) with alpha a function of no arguments,
    called only once d passes its membership LP."""
    res = strict_cone_membership(d, weights)
    if res is None:
        return None
    slack, coefficients = res
    if degeneration is not None:
        alpha, j_set = degeneration
        degeneration = (alpha(), j_set)
    return Certificate(kind, tuple(map(frac, d)), degeneration, coefficients, slack)


def certify_derivation(
    mu: LieBracket,
    d: Vec,
    budget: int = 4096,
) -> Verdict:
    """Decide whether the diagonal derivation D is Ricci negative.

    Pipeline: entrywise-positive shortcut, necessary condition, nice-basis
    LP, nice face degenerations by decreasing |J|, then Unknown.  Never
    returns a verdict about the algebra itself.  ``budget`` bounds the nice
    face subsets tested, whether the remainders of the dropped weights or
    an LP settles each (see ``_nice_faces``).
    """
    require_budget(budget)
    # e is d checked once and scaled to a positive integer multiple: the
    # signs, the trace's included, and the necessary condition read it
    e = require_diagonal_derivation(d, mu)
    d = tuple(map(frac, d))
    if sum(e) <= 0:
        raise InputError(f"derivation trace must be positive, got {sum(d, ZERO)}")

    if all(x > 0 for x in e):
        cert = Certificate(POSITIVE_DERIVATION, d, slack=min(d))
        return _certified(mu, SCOPE_DERIVATION, cert)

    if not _positive_on_center(mu, e):
        return Verdict(
            CERTIFIED_NOT_RN,
            SCOPE_DERIVATION,
            d,
            obstruction=f"necessary condition fails: {NOT_POSITIVE_ON_CENTER}",
            notes="verdict applies to this derivation only",
        )

    note = "no nice face degeneration certifies this derivation"
    for face in _nice_faces(mu, budget):
        if face is None:
            note += " (face budget exhausted)"
            break
        weights, kind, degeneration = face
        cert = membership_certificate(d, weights, kind, degeneration)
        if cert is not None:
            return _certified(mu, SCOPE_DERIVATION, cert)
        if kind == NICE_CONE:
            note = ("cone membership over the full hull is infeasible; "
                    "the certified cone under-approximates the true one")
    return Verdict(UNKNOWN, SCOPE_DERIVATION, d, notes=note)


def _nice_faces(mu: LieBracket, budget: int):
    """The brackets a cone certificate may rest on, in search order.

    Yields (weights, kind, degeneration) of a bracket lam: mu itself when
    its basis is nice; otherwise lambda_J for every nice face J, by
    decreasing |J|, with the weights of mu restricted to J.  A diagonal
    derivation of mu solves a subset of its defining equations on
    lambda_J, so it stays a derivation there.
    The faces come from the face walk (``walk_faces``) over the nice
    subsets only (``iter_nice_candidates``).  The degeneration of a face
    is (alpha, J) with alpha a function of no arguments: for a face the
    remainders found, alpha's LP runs only when a certificate rests on
    that face.  ``budget`` bounds the nice subsets tested, whether the
    remainders or the LP settles each; once it is spent with nice subsets
    left, yields None and stops.
    """
    w = weight_set(mu)
    if is_nice_basis(w):
        yield w, NICE_CONE, None
        return
    # mu is not nice, so neither is its full index set
    for face in walk_faces(w, iter_nice_candidates(list(w)), budget):
        yield None if face is None else (face[2], DEGENERATION_CONE, (face[1], face[0]))


def _certified(mu: LieBracket, scope: str, cert: Certificate) -> Verdict:
    """CertifiedRN on cert.d, noted by kind."""
    if cert.kind == POSITIVE_DERIVATION:
        note = "positive derivation"
    elif cert.degeneration is None:
        note = "nice basis cone"
    else:
        note = f"degeneration keeping {len(cert.degeneration[1])} of {len(mu.keys())} constants"
    return Verdict(CERTIFIED_RN, scope, cert.d, cert, notes=note)


# ---------------------------------------------------------------------------
# Algebra-level verdict
# ---------------------------------------------------------------------------


def _torus_sum(dspace: DiagonalDerivationSpace, num) -> list[int]:
    """sum num_m w_m over the integer columns w_m = L_m v_m of
    ``dspace.integer_basis``: a torus LP on them finds t' = num / den, the
    LP on the rational v_m finds t_m = L_m t'_m (the same pivots), and
    point(t) = sum t'_m w_m is this sum over den."""
    return [sum(map(operator.mul, num, row)) for row in zip(*[w for w, _ in dspace.integer_basis])]


def _positive_diagonal_derivation(
    dspace: DiagonalDerivationSpace, n: int
) -> tuple[Vec, Fraction] | None:
    """LP for a derivation D with all diagonal entries positive: (D, min D).

    An index where every torus vector vanishes is a zero row, and
    ``max_margin`` returns None for it before the simplex runs; with no
    torus at all, every row is one.  Where D* (``Analysis.generator_ones``)
    is a derivation this returns (D*, 1), and ``certify_nilradical``
    skips it there.
    """
    cols = [v for v, _ in dspace.integer_basis]
    t = interior_point([[v[r] for v in cols] for r in range(n)])
    if t is None:
        return None
    num, den = t
    total = _torus_sum(dspace, num)
    d = tuple([Fraction(x, den) for x in total])
    return d, d[total.index(min(total))]


def _torus_cone_point(
    dspace: DiagonalDerivationSpace, weights: Weights, n: int
) -> tuple[int, ...] | None:
    """One LP over (t free, a >= 0): D = point(t) with D - sum a_w F_w > 0
    over the given weights and tr D > 0, as a primitive int tuple.

    A one-dimensional torus needs no LP: every D(t) is a multiple of its
    one integer vector v, and tr D > 0 fixes the sign s of the multiple.
    The cone is closed under positive scaling, so the LP is feasible
    exactly when s v passes the membership LP, and its D is then
    ``primitive(s v)``.  That direction is returned as it is (None when
    tr v = 0), and the caller's membership LP decides.
    """
    cols = [v for v, _ in dspace.integer_basis]
    if dspace.dim == 1:
        trace = sum(cols[0])
        if not trace:
            return None
        # v is primitive only when ``_diagonal_torus`` built it, and the
        # certificate's D is the primitive direction either way
        return primitive([x if trace > 0 else -x for x in cols[0]])
    wts = list(weights.values())
    rows = [[-v[r] for v in cols] + [wt[r] for wt in wts] for r in range(n)]
    rows.append([-sum(v) for v in cols] + [0] * len(wts))
    sol = max_margin(rows, [0] * len(rows), free=dspace.dim)
    if sol is None:
        return None
    return primitive(_torus_sum(dspace, sol[1][:dspace.dim]))


def certify_nilradical(mu: LieBracket, budget: int = 4096) -> Verdict:
    """Algebra-level verdict: the generator-ones derivation, then
    obstructions, then a search over the torus.

    D* (``Analysis.generator_ones``) is 1 at every index no constant
    targets and d_k = d_i + d_j along the topological order.  When it is
    a derivation, the positive-derivation LP below has it as its only
    optimal vertex (README "Verdicts and certificates"), so it is
    returned with slack 1 and no torus, Der(mu) or LP is built; its trace
    is positive, so neither obstruction could hold.  Otherwise the
    diagonal derivations serve both the traceless test and the search,
    and Der(mu) is built only when they are all traceless.  The search
    tries a positive derivation, then rules out every torus D by one LP
    when no D has tr D > 0 and D_r > 0 at each sink r (an index never
    bracketed from, where every weight has F_w[r] >= 0), then solves one
    torus LP per bracket of ``_nice_faces``.  On a one-dimensional torus
    the first two are read off the signs of the torus vector
    (``interior_point``) and the third is the membership LP of its
    direction (``_torus_cone_point``).  ``budget`` is as for
    ``certify_derivation`` (it counts nice subsets tested, not LPs), and an
    ``Unknown`` says when it ran out.
    """
    return nilradical_verdict(Analysis(mu), budget)


def nilradical_verdict(a: Analysis, budget: int = 4096) -> Verdict:
    """``certify_nilradical`` on a.mu, reading D*, Der(mu), its Engel flag
    and the torus from ``a``, so that a caller holding them builds none
    twice.  A bracket with D* reads nothing else."""
    mu = a.mu
    require_budget(budget)
    if not a.nilpotent:
        raise InputError("algebra is not nilpotent")

    ones = a.generator_ones
    if ones is not None:
        cert = Certificate(POSITIVE_DERIVATION, tuple(map(Fraction, ones)), slack=ONE)
        return _certified(mu, SCOPE_ALGEBRA, cert)

    if a.traceless:
        if a.characteristically_nilpotent:
            return Verdict(
                CERTIFIED_NOT_RN,
                SCOPE_ALGEBRA,
                obstruction="characteristically nilpotent: every derivation is "
                "nilpotent (Engel flag of dimensions "
                + ",".join(map(str, a.engel.flag_dims)) + ")",
            )
        return Verdict(
            CERTIFIED_NOT_RN,
            SCOPE_ALGEBRA,
            obstruction="every derivation is traceless, so all solvable "
            "extensions are unimodular",
        )

    pos = _positive_diagonal_derivation(a.dspace, mu.dim)
    if pos is not None:
        cert = Certificate(POSITIVE_DERIVATION, pos[0], slack=pos[1])
        return _certified(mu, SCOPE_ALGEBRA, cert)

    cols = [v for v, _ in a.dspace.integer_basis]
    sinks = [[v[r] for v in cols] for r in _sinks(mu)]
    note = ("no candidate derivation certified; obstruction tests passed, "
            "so the algebra may still be a Ricci negative nilradical")
    if interior_point([[sum(v) for v in cols], *sinks]) is not None:
        for face in _nice_faces(mu, budget):
            if face is None:
                note += " (face budget exhausted)"
                break
            weights, kind, degeneration = face
            d = _torus_cone_point(a.dspace, weights, mu.dim)
            if d is None:
                continue
            cert = membership_certificate(d, weights, kind, degeneration)
            if cert is not None:
                return _certified(mu, SCOPE_ALGEBRA, cert)
            # on a line the direction is not checked before membership
            if a.dspace.dim > 1:
                raise InvariantViolation("a torus LP point fails its membership LP")
    return Verdict(UNKNOWN, SCOPE_ALGEBRA, notes=note)


# ---------------------------------------------------------------------------
# Witness metrics
# ---------------------------------------------------------------------------


def find_witness_metric(
    mu: LieBracket,
    d: Vec,
    cert: Certificate,
    budget: int = 400,
) -> MetricExtension | None:
    """Build (s, h) making the extension Ricci negative definite, for any CertifiedRN kind.

    For a positive derivation, h = 1 and s is halved from 1 until the test
    passes; as s -> 0 the Ricci matrix tends to diag(-tr D^2, -(tr D) D),
    which is negative definite since D > 0, so the loop ends and ``budget``
    does not cap it.  For a cone certificate s = 1, and x = log h minimizes
    1/2 sum_w c_w^2 e^(2 <F_w, x>) - 2 tr D <P, x> over the weights of the
    certificate's nice bracket, where P is the certificate's combination
    with each zero coefficient raised to slack / (4 #zeros); see README
    "Witness metrics".  When rounding h could lose that slack, which the
    membership LP caps at 1, P and x are those of D / c for a power of two
    c >= max |d|, and s = c, since Ric(cD, cs, h) = c^2 Ric(D, s, h).
    That set-up runs in integers: P and tr E each over the lcm of their
    denominators, each log from a ratio of integers reduced by its gcd
    (the float ``_log_abs`` gives for that ratio), and the tolerance from
    one correctly rounded int / int.
    Newton starts at the least-squares point, which is the minimizer when
    the weights are independent; ``budget`` caps the Newton steps after
    it, and both kinds of linear system are solved by Cholesky.  Each
    entry of e^x is rounded to 2^k times a mantissa of denominator <= q,
    q = 64, then 4096 and 2^20 if needed: the best such approximation,
    from the continued fraction of the float's exact ratio
    (``_round_exp``).  For a degeneration h is also multiplied by
    2^(t alpha), t = 0, 1, 2, 4, ...  Only the exact Sylvester test
    accepts, run on each candidate's parts (mu, d, s, h) by the integer
    Ricci kernel; d is checked once, and the one metric returned is built
    as a ``MetricExtension``, which validates it.  None if no candidate
    passes.  A d other than cert.d is an ``InputError``: the certificate
    says nothing about it, and for a positive derivation the halving of s
    would then never end.
    """
    if tuple(d) != tuple(cert.d):
        raise InputError("the derivation is not the one the certificate is for")
    # mu and d are fixed for the whole search: d is checked once here, and
    # the candidates are tested on their parts
    d = tuple(map(frac, d))
    require_diagonal_derivation(d, mu)
    if cert.kind == POSITIVE_DERIVATION:
        s, h = ONE, (ONE,) * mu.dim
        while not _ricci_negative(mu, d, s, h):
            s /= 2
        return MetricExtension(mu, d, s, h)
    w = _bracket_weights(mu, cert)
    # P is b / bden in integers, in the order of w, and top / bden is max P
    slack = cert.slack
    b, bden = _over_lcm(_raised_combination(w, cert.coefficients, slack).values())
    top = max(b)
    c, e = ONE, d
    if slack.numerator * bden << 20 < slack.denominator * top:
        # the rounding of h moves P by about max P 2^-20, more than the
        # slack the LP caps at 1: solve for E = D / c, c = 2^k >= max |d|
        c = 1 << (math.ceil(max(map(abs, d))) - 1).bit_length()
        e = tuple(x / c for x in d)
        sol = strict_cone_membership(e, w)
        if sol is None:  # a certificate made up by hand: D is not in its cone
            return None
        slack, coefficients = sol
        b, bden = _over_lcm(_raised_combination(w, coefficients, slack).values())
        top = max(b)
    # the objective over 2 tr E max P: the same minimizer, and no float
    # overflows or underflows whatever the scale of D or of the constants
    # tr E is sum(tre) / eden in integers
    tre, eden = _over_lcm(e)
    shift = _log_ratio(2 * sum(tre) * top, eden * bden)
    terms = [
        ([(r, float(v)) for r, v in enumerate(wt) if v],
         2 * _log_abs(mu.constants[key]) - shift,
         _log_ratio(bw, top))
        for (key, wt), bw in zip(w.items(), b)
    ]
    # a millionth of tr D slack, over the same 2 tr D max P: the float
    # error is then far below the rounding's
    tol = 5e-7 * (slack.numerator * bden / (slack.denominator * top))
    x = _newton_log_metric(terms, mu.dim, tol, budget)
    alpha = integer_row(cert.degeneration[0]) if cert.degeneration else (0,) * mu.dim
    for q in (64, 4096, 2 ** 20):
        h = [_round_exp(v, q) for v in x]
        for t in (0, 1, 2, 4, 8, 16) if cert.degeneration else (0,):
            scaled = tuple(_times_power_of_two(hr, t * a) for hr, a in zip(h, alpha))
            if _ricci_negative(mu, d, c, scaled):
                return MetricExtension(mu, d, c, scaled)
    return None


def _over_lcm(q) -> tuple[list[int], int]:
    """Rationals as integers over one denominator L, the lcm of theirs:
    ([L x for x in q], L)."""
    q = list(q)
    den = math.lcm(*[x.denominator for x in q])
    return [x.numerator * (den // x.denominator) for x in q], den


def _raised_combination(w: Weights, coefficients: dict[Key, Fraction], slack: Fraction):
    """P: the coefficient of each weight, a zero one raised to slack / (4 #zeros)."""
    zeros = sum(1 for key in w if not coefficients.get(key))
    eps = slack / (4 * zeros) if zeros else ZERO
    return {key: coefficients.get(key) or eps for key in w}


def _bracket_weights(mu: LieBracket, cert: Certificate) -> Weights:
    """The weights of the certificate's nice bracket: those of mu, kept to
    J for a degeneration, in ``mu.keys()`` order."""
    w = weight_set(mu)
    if cert.degeneration is None:
        return w
    return {key: v for key, v in w.items() if key in cert.degeneration[1]}


def _newton_log_metric(terms, n: int, tol: float, budget: int) -> list[float]:
    """Damped Newton on the sum over terms (F, log c^2, log b) of
    1/2 e^(log c^2 + 2 <F, x>) - e^(log b) <F, x>.

    Starts at the least-squares solution of <F, x> = (log b - log c^2) / 2,
    where each term's gradient vanishes; with independent F that point is
    the minimizer.  Then at most ``budget`` steps, stopping once every
    gradient entry is at most ``tol``.  A tiny ridge keeps both systems
    invertible along the directions every F annihilates.
    """
    def value(x):
        try:
            return sum(0.5 * math.exp(lc2 + 2 * y) - math.exp(lb) * y
                       for f, lc2, lb in terms for y in [sum(v * x[r] for r, v in f)])
        except OverflowError:
            return math.inf

    def ridged(a):
        for r in range(n):
            a[r][r] += 1e-9 * (1 + a[r][r])
        return a

    def outer(weighted):
        # sum over (F, z) of z F F^T
        a = [[0.0] * n for _ in range(n)]
        for f, z in weighted:
            for r, v in f:
                row = a[r]
                for s, u in f:
                    row[s] += z * v * u
        return a

    rhs = [0.0] * n
    for f, lc2, lb in terms:
        for r, v in f:
            rhs[r] += (lb - lc2) / 2 * v
    x = _solve_positive_definite(ridged(outer([(f, 1.0) for f, _, _ in terms])), rhs)
    for _ in range(budget):
        grad = [0.0] * n
        zs = []
        for f, lc2, lb in terms:
            z = math.exp(lc2 + 2 * sum(v * x[r] for r, v in f))
            g = z - math.exp(lb)
            for r, v in f:
                grad[r] += g * v
            zs.append((f, 2 * z))
        if max(map(abs, grad)) <= tol:
            break
        # the Hessian only when a step is taken: the start is usually the minimizer
        step = _solve_positive_definite(ridged(outer(zs)), [-g for g in grad])
        slope, f0, t = sum(g * s for g, s in zip(grad, step)), value(x), 1.0
        # backtracking (Armijo) line search
        while value(trial := [xr + t * sr for xr, sr in zip(x, step)]) > f0 + t * slope / 4:
            t /= 2
            if t < 1e-12:
                return x
        x = trial
    return x


def _solve_positive_definite(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve a x = b for positive definite ``a`` by Cholesky, a = L L^T,
    in floats and in place: L overwrites the lower triangle of ``a``, and
    the forward and back substitutions overwrite ``b``."""
    n = len(b)
    for j in range(n):
        aj = a[j]
        lj = aj[:j]  # row j of L left of the diagonal; map stops at its end
        aj[j] = ljj = math.sqrt(aj[j] - sum(map(operator.mul, lj, lj)))
        for i in range(j + 1, n):
            ai = a[i]
            ai[j] = (ai[j] - sum(map(operator.mul, ai, lj))) / ljj
    for i in range(n):
        ai = a[i]
        b[i] = (b[i] - sum(map(operator.mul, ai, b[:i]))) / ai[i]
    for i in reversed(range(n)):
        b[i] = (b[i] - sum([a[k][i] * b[k] for k in range(i + 1, n)])) / a[i][i]
    return b


def _log_abs(q: Fraction) -> float:
    """log |q| from its integers, so no float overflows or underflows on the way."""
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def _log_ratio(n: int, m: int) -> float:
    """``_log_abs(Fraction(n, m))`` for m > 0: the logs of the ratio's
    integers once reduced by their gcd, so the float is the same."""
    g = math.gcd(n, m)
    return math.log(abs(n) // g) - math.log(m // g)


def _round_exp(v: float, q: int) -> Fraction:
    """e^v as 2^k times a mantissa in about [1/2, 1] of denominator <= q.

    The mantissa is ``Fraction(m).limit_denominator(q)`` for the float m =
    e^(v - k log 2): the best approximation of denominator <= q, from the
    continued fraction of m's exact ratio, run here on that ratio's
    integers.  Of the last convergent p1/q1 and the semiconvergent
    (p0 + j p1) / (q0 + j q1), j as large as q allows, the nearer is taken,
    p1/q1 on a tie.  2^k is a shift, and one Fraction is built at the end.
    """
    k = math.floor(v / math.log(2)) + 1
    num, den = math.exp(v - k * math.log(2)).as_integer_ratio()
    if den > q:
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, m = num, den
        while q0 + (a := n // m) * q1 <= q:
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, m = m, n - a * m
        j = (q - q0) // q1
        # |p1/q1 - num/den| = m / (q1 den), and the two bounds lie
        # 1 / (q1 (q0 + j q1)) apart
        if 2 * m * (q0 + j * q1) <= den:
            num, den = p1, q1
        else:
            num, den = p0 + j * p1, q0 + j * q1
    return Fraction(num << k, den) if k >= 0 else Fraction(num, den << -k)


def _times_power_of_two(x: Fraction, k: int) -> Fraction:
    """x 2^k, by a shift of the numerator or of the denominator."""
    if k < 0:
        return Fraction(x.numerator, x.denominator << -k)
    return Fraction(x.numerator << k, x.denominator) if k else x


# ---------------------------------------------------------------------------
# Certificate verification and serialization
# ---------------------------------------------------------------------------


def verify_certificate(mu: LieBracket, cert: Certificate) -> tuple[bool, str]:
    """Exact re-check of a stored certificate; no search is re-run.

    The data of the certificate's kind is checked first.  A metric
    attached to a certificate of any kind must then match it and make the
    extension Ricci negative definite.
    """
    ok, reason = _verify_kind_data(mu, cert)
    if ok and cert.witness is not None:
        if cert.witness.mu != mu or tuple(cert.witness.d) != tuple(cert.d):
            return False, "metric data does not match the algebra or derivation"
        if not is_ricci_negative(cert.witness):
            return False, "attached metric is not negative definite"
    return ok, reason


def _verify_kind_data(mu: LieBracket, cert: Certificate) -> tuple[bool, str]:
    d = cert.d
    if not is_diagonal_derivation(d, mu):
        return False, "stored D is not a diagonal derivation"
    if sum(d, ZERO) <= 0:
        return False, "stored D has non-positive trace"

    if cert.kind == POSITIVE_DERIVATION:
        if cert.coefficients or cert.degeneration is not None:
            return False, "a positive derivation carries no coefficients or degeneration"
        if not all(x > 0 for x in d):
            return False, "entries are not all positive"
        if cert.slack <= 0:
            return False, f"claimed slack {cert.slack} is not positive"
        if cert.slack > min(d):
            return False, f"claimed slack {cert.slack} exceeds the least entry {min(d)}"
        return True, "all diagonal entries positive"

    if cert.kind == NICE_CONE:
        if cert.degeneration is not None:
            return False, "a nice basis cone carries no degeneration"
        if not is_nice_basis(mu.keys()):
            return False, "basis is not nice"
    elif cert.kind == DEGENERATION_CONE:
        if cert.degeneration is None:
            return False, "missing degeneration data"
        alpha, j_set = cert.degeneration
        if not j_set <= set(mu.keys()):
            return False, "kept set is not a subset of the index set"
        for (i, j, k) in mu.keys():
            pr = pairing(alpha, i, j, k)
            if (i, j, k) in j_set:
                if pr != 0:
                    return False, "alpha does not vanish on the kept set"
            elif pr >= 0:
                return False, "alpha is not negative on the dropped set"
        if not is_nice_basis(j_set):
            return False, "degenerate bracket is not nice"
        # D is a derivation of lambda_J: its equations are a subset of mu's
    else:
        return False, f"unknown certificate kind {cert.kind!r}"

    w = _bracket_weights(mu, cert)
    extra = set(cert.coefficients) - w.keys()
    if extra:
        return False, f"coefficients on absent weights {sorted(extra)}"
    slack = verify_membership(d, w, cert.coefficients)
    if slack is None:
        return False, "coefficients do not witness strict membership"
    if cert.slack <= 0:
        return False, f"claimed slack {cert.slack} is not positive"
    if slack < cert.slack:
        return False, f"claimed slack {cert.slack} exceeds actual {slack}"
    return True, f"membership verified with slack {slack}"


def serialize_certificate(mu: LieBracket, cert: Certificate) -> str:
    """Self-contained text block: the algebra, the derivation, and the data."""
    lines = ["certificate", f"kind {cert.kind}"]
    for line in emit_bracket(mu).strip().splitlines():
        lines.append(line)
    lines.append("derivation " + " ".join(fmt_rational(x) for x in cert.d))
    if cert.degeneration is not None:
        alpha, j_set = cert.degeneration
        lines.append("alpha " + " ".join(fmt_rational(x) for x in alpha))
        for (i, j, k) in sorted(j_set):
            lines.append(f"keep {i} {j} {k}")
    for (i, j, k) in sorted(cert.coefficients):
        lines.append(f"coeff {i} {j} {k} {fmt_rational(cert.coefficients[(i, j, k)])}")
    if cert.slack:
        lines.append(f"slack {fmt_rational(cert.slack)}")
    if cert.witness is not None:
        lines.append(f"metric-scale {fmt_rational(cert.witness.s)}")
        lines.append("metric-h " + " ".join(fmt_rational(x) for x in cert.witness.h))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[LieBracket, Certificate]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "certificate" or lines[-1] != "end":
        raise ParseError("certificate block must start with 'certificate' and end with 'end'")
    kind = None
    bracket_lines = []
    d = None
    alpha = None
    keep: list[Key] = []
    coeffs: dict[Key, Fraction] = {}
    slack = ZERO
    scale = None
    h = None
    for ln in lines[1:-1]:
        parts = ln.split()
        try:
            if parts[0] == "kind" and len(parts) == 2:
                kind = parts[1]
            elif parts[0] in ("dim", "bracket"):
                bracket_lines.append(ln)
            elif parts[0] == "derivation":
                d = tuple(Fraction(x) for x in parts[1:])
            elif parts[0] == "alpha":
                alpha = tuple(Fraction(x) for x in parts[1:])
            elif parts[0] == "keep" and len(parts) == 4:
                keep.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "coeff" and len(parts) == 5:
                coeffs[(int(parts[1]), int(parts[2]), int(parts[3]))] = Fraction(parts[4])
            elif parts[0] == "slack" and len(parts) == 2:
                slack = Fraction(parts[1])
            elif parts[0] == "metric-scale" and len(parts) == 2:
                scale = Fraction(parts[1])
            elif parts[0] == "metric-h":
                h = tuple(Fraction(x) for x in parts[1:])
            else:
                raise ParseError(f"unrecognized certificate line {ln!r}")
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed certificate line {ln!r}")
    if kind is None or d is None or not bracket_lines:
        raise ParseError("certificate is missing kind, algebra, or derivation")
    mu = parse_bracket("\n".join(bracket_lines))
    if len(d) != mu.dim:
        raise ParseError("derivation length does not match the dimension")
    degeneration = None
    if alpha is not None or keep:
        if alpha is None or not keep:
            raise ParseError("degeneration needs both alpha and kept triples")
        if len(alpha) != mu.dim:
            raise ParseError("alpha length does not match the dimension")
        degeneration = (alpha, frozenset(keep))
    witness = None
    if scale is not None or h is not None:
        if scale is None or h is None or len(h) != mu.dim:
            raise ParseError("metric data needs both scale and a full h vector")
        witness = MetricExtension(mu, d, scale, h)
    return mu, Certificate(kind, d, degeneration, coeffs, slack, witness)
