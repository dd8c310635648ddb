"""Weights of the torus action, convex-hull membership, and degenerations.

Every verdict produced here is exact: feasibility comes from a rational
simplex with a strictness slack, or, where the simplex's answer is
already fixed, from a rank test (``is_face``) or the signs of a single
column (``interior_point``), and cone projections come from
Fourier-Motzkin elimination with LP-certified redundancy removal.  A
weight has entries in {-1, 0, 1}, so weights are ``int`` tuples and reach
the simplex as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .derivations import DiagonalDerivationSpace
from .errors import InputError, InvariantViolation
from .liecore import Key, LieBracket
from .linalg import Echelon, Vec, ZERO, frac, integer_row, primitive
from .simplex import feasible_nonneg, max_margin


Weights = dict[Key, tuple[int, ...]]


def weight_set(mu: LieBracket) -> Weights:
    """The weight F_(i,j,k) = e_k - e_i - e_j of each nonzero constant, in
    ``mu.keys()`` order, as an ``int`` tuple."""
    w = {}
    for (i, j, k) in mu.keys():
        v = [0] * mu.dim
        v[k - 1] += 1
        v[i - 1] -= 1
        v[j - 1] -= 1
        w[(i, j, k)] = tuple(v)
    return w


def strict_cone_membership(d: Vec, w: Weights) -> tuple[Fraction, dict[Key, Fraction]] | None:
    """Decide D - sum(a F) > 0 entrywise for some a >= 0, exactly.

    Maximizes the entrywise slack eps (capped at 1) as ``max_margin``
    does; returns (eps, nonzero a by key) when the optimal eps > 0, else
    None.  The coefficients re-verify by substitution.
    """
    vecs = list(w.values())
    sol = max_margin([[v[r] for v in vecs] for r in range(len(d))], d)
    if sol is None:
        return None
    eps, a = sol
    return eps, {key: a[q] for q, key in enumerate(w) if a[q]}


def verify_membership(d: Vec, w: Weights, assignment: dict[Key, Fraction]) -> Fraction | None:
    """Exact re-check of a membership certificate; returns min slack or None."""
    n = len(d)
    residual = list(map(frac, d))
    for key, vec in w.items():
        a = frac(assignment.get(key, ZERO))
        if a < 0:
            return None
        for r in range(n):
            residual[r] -= a * vec[r]
    m = min(residual)
    return m if m > 0 else None


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection of the certificate system onto the d-space
# ---------------------------------------------------------------------------


def _is_conic_combination(target: tuple[int, ...], rows: list[tuple[int, ...]]) -> bool:
    """target = sum c_i row_i with c >= 0 (Farkas redundancy test)."""
    if not rows:
        return False
    return feasible_nonneg([[r[c] for r in rows] for c in range(len(target))], target) is not None


def remove_redundant(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal subsystem with the same strict solution set, lex sorted."""
    rows = sorted(set(rows))
    kept = rows
    for r in rows:
        rest = [x for x in kept if x != r]
        if _is_conic_combination(r, rest):
            kept = rest
    return kept


@dataclass(frozen=True)
class ProjectedCone:
    """Strict inequalities (integer vectors, gcd 1, lex sorted) in d-space
    parameter coordinates; ``empty`` marks an empty cone."""

    inequalities: tuple[tuple[int, ...], ...]
    empty: bool = False


def fourier_motzkin(rows: list[tuple[int, ...]], nelim: int) -> ProjectedCone:
    """Project {(a, t) : row . (a, t) > 0 for every row, a >= 0} onto t.

    Each row is a primitive ``int`` tuple, its first ``nelim`` entries the
    coefficients of a.  Eliminating a_q keeps each row without an a_q
    term, drops the a_q term of each row where it is negative (a_q = 0
    serves that row best), and adds, for each pair of a positive and a
    negative row, the primitive combination that cancels a_q.  A row is
    its own duplicate key, so the rows are kept as a set.
    """
    work = set(rows)
    for q in range(nelim):
        pos = [v for v in work if v[q] > 0]
        neg = [v for v in work if v[q] < 0]
        work = {v for v in work if not v[q]}
        work.update(primitive(v[:q] + (0,) + v[q + 1:]) for v in neg)
        for vp in pos:
            a = vp[q]
            for vn in neg:
                b = -vn[q]
                work.add(primitive([b * x + a * y for x, y in zip(vp, vn)]))
    out = set()
    for v in work:
        if any(v[:nelim]):
            raise InvariantViolation("Fourier-Motzkin left an eliminated variable behind")
        if not any(v[nelim:]):
            return ProjectedCone((), empty=True)  # derived 0 > 0
        out.add(v[nelim:])
    kept = tuple(remove_redundant(out))
    return ProjectedCone(kept, empty=bool(kept) and interior_point(kept) is None)


def interior_point(rows) -> Vec | None:
    """Some t with row . t > 0 for every (int) row, or None if there is none (t free, exact LP).

    A single column c needs no LP: c_r t > 0 on every row exactly when
    every c_r is nonzero and of one sign s, and the max-margin optimum is
    then the one vertex t = s / min |c_r| of its optimal face (eps = 1 and
    t c_r >= 1 on every row), which is the point the simplex returns.
    """
    if len(rows[0]) == 1:
        col = [c for c, in rows]
        if all(c > 0 for c in col):
            return (Fraction(1, min(col)),)
        if all(c < 0 for c in col):
            return (Fraction(1, max(col)),)
        return None
    sol = max_margin([[-x for x in row] for row in rows], [0] * len(rows), free=len(rows[0]))
    return None if sol is None else sol[1]


def project_certificate_cone(
    w: Weights, dspace: DiagonalDerivationSpace
) -> ProjectedCone:
    """Strict inequality description of {t : exists a >= 0, D(t) - sum aF > 0}.

    Output is canonical: integer coefficient vectors with content 1 over
    the d-space parameters, lexicographically sorted, irredundant.
    """
    if dspace.dim == 0:
        raise InputError("empty diagonal-derivation space")
    rows = [
        integer_row([-v[r] for v in w.values()] + [b[r] for b in dspace.basis])
        for r in range(len(dspace.basis[0]))
    ]
    return fourier_motzkin(rows, len(w))


# ---------------------------------------------------------------------------
# Toral degenerations
# ---------------------------------------------------------------------------


def pairing(alpha, i: int, j: int, k: int):
    """<alpha, F_(i,j,k)>, for an int or a rational alpha."""
    return alpha[k - 1] - alpha[i - 1] - alpha[j - 1]


def is_face(j_set, w: Weights) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether CH(F_w : w in J) is a face of the full hull.

    Searches alpha with <alpha, F> = 0 on J and < 0 on the complement by
    exact LP (maximizing the complement margin, capped at 1).  Returns
    the separating alpha as a primitive ``int`` tuple on success.
    A rank test comes first: a dropped weight in the span of the kept ones
    pairs to 0 with every alpha that vanishes on J, so J is no face and
    no LP runs.  Only the LP finds an alpha.
    """
    j_set = set(j_set)
    if not j_set <= w.keys():
        raise InputError("J is not a subset of the index set")
    comp = [v for key, v in w.items() if key not in j_set]
    n = len(next(iter(w.values()))) if w else 0
    if not comp:
        return True, (0,) * n
    kept = [v for key, v in w.items() if key in j_set]
    if _dropped_in_span(kept, comp, n):
        return False, None
    sol = max_margin(comp, [0] * len(comp), kept, free=n)
    if sol is None:
        return False, None
    return True, integer_row(sol[1])


def _dropped_in_span(kept, comp, n: int) -> bool:
    """Whether some weight of comp lies in the span of those of kept.

    Only a weight that is zero at every index where every kept weight is
    zero can, so only such weights are reduced, and with none the echelon
    is never built.
    """
    untouched = [not x for x in map(any, zip(*kept))]
    suspects = [v for v in comp if not any(itertools.compress(v, untouched))]
    if not suspects:
        return False
    span = Echelon(n)
    for v in kept:
        span.add_row(dict(enumerate(v)))
    return any(not span.reduce_scaled({c: v[c] for c in itertools.compress(range(n), v)})[0]
               for v in suspects)


def iter_face_candidates(mu: LieBracket):
    """Nonempty subsets of I_mu, smallest complement first, lex within size."""
    idx = mu.keys()
    for drop in range(len(idx)):
        for comp in itertools.combinations(idx, drop):
            yield frozenset(idx) - frozenset(comp)


def require_budget(budget: int) -> None:
    """A face budget counts ``is_face`` tests, so a negative one is an input fault."""
    if budget < 0:
        raise InputError(f"face budget must be nonnegative, got {budget}")


def iter_faces(mu: LieBracket, budget: int, keep=None):
    """The face walk: (J, alpha, weights of J) for each face J among the
    candidates ``keep`` accepts.

    Walks ``iter_face_candidates`` and runs ``is_face`` on each candidate
    J with ``keep(J)`` true (every candidate when ``keep`` is None).  The
    weights of J are those of ``weight_set(mu)`` at the keys in J, in the
    same order: the weights of lambda_J, the bracket keeping the constants
    of mu indexed by J, which is never built.
    ``budget`` bounds the candidates tested, i.e. the ``is_face`` calls,
    whether the rank test or the LP settles each; once it is spent with
    an accepted candidate left, yields None and stops.
    """
    require_budget(budget)
    w = weight_set(mu)
    tested = 0
    for j_set in iter_face_candidates(mu):
        if keep is not None and not keep(j_set):
            continue
        if tested >= budget:
            yield None
            return
        tested += 1
        face, alpha = is_face(j_set, w)
        if face:
            yield j_set, alpha, {key: v for key, v in w.items() if key in j_set}
