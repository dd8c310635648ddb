"""Weights of the torus action, convex-hull membership, and degenerations.

Every verdict produced here is exact: feasibility comes from a rational
simplex with a strictness slack, or, where the simplex's answer is
already fixed, from the remainders of the weights a face drops
(``face_by_remainders``) or the signs of a single column
(``interior_point``), and cone projections come from Fourier-Motzkin
elimination with LP-certified redundancy removal.  Faces are decided by
one walk (``walk_faces``), over every subset for ``iter_faces`` and over
the nice ones for the certifiers.  A
weight has entries in {-1, 0, 1}, so weights are ``int`` tuples and reach
the simplex as they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .derivations import DiagonalDerivationSpace
from .errors import InputError, InvariantViolation
from .liecore import Key, LieBracket, nice_conflicts
from .linalg import Echelon, Vec, ZERO, frac, integer_row, nullspace, primitive
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
    eps, num, den = sol
    return eps, {key: Fraction(num[q], den) for q, key in enumerate(w) if num[q]}


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


def interior_point(rows) -> tuple[tuple[int, ...], int] | None:
    """Some t with row . t > 0 for every (int) row, as (num, den) with
    t = num / den, or None if there is none (t free, exact LP).

    A single column c needs no LP: c_r t > 0 on every row exactly when
    every c_r is nonzero and of one sign s, and the max-margin optimum is
    then the one vertex t = s / min |c_r| of its optimal face (eps = 1 and
    t c_r >= 1 on every row), which is the point the simplex returns.
    """
    if len(rows[0]) == 1:
        col = [c for c, in rows]
        if all(c > 0 for c in col):
            return (1,), min(col)
        if all(c < 0 for c in col):
            return (-1,), -max(col)
        return None
    sol = max_margin([[-x for x in row] for row in rows], [0] * len(rows), free=len(rows[0]))
    return None if sol is None else sol[1:]


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

    The decision of the face walk (``walk_faces``) on J alone: the
    remainders of the dropped weights (``face_by_remainders``), then,
    where they leave it open, the LP ``separating_alpha``, which searches
    alpha with <alpha, F> = 0 on J and < 0 on the complement.  Returns
    the separating alpha as a primitive ``int`` tuple on success.
    """
    j_set = frozenset(j_set)
    if not j_set <= w.keys():
        raise InputError("J is not a subset of the index set")
    positions = tuple(q for q, key in enumerate(w) if key not in j_set)
    for _, alpha, _ in walk_faces(w, [(j_set, positions)], 1):
        return True, alpha()
    return False, None


def separating_alpha(kept, dropped, n: int) -> tuple[int, ...] | None:
    """The LP of ``is_face``: alpha with <alpha, F> = 0 on the kept weights
    and < 0 on the dropped ones, maximizing the margin (capped at 1), as a
    primitive ``int`` tuple; None when there is none.  With no dropped
    weight, J is the whole hull and alpha = 0."""
    if not dropped:
        return (0,) * n
    sol = max_margin(dropped, [0] * len(dropped), kept, free=n)
    return None if sol is None else primitive(sol[1])


def weight_relations(w: Weights) -> list[dict[int, int]]:
    """A basis of the linear relations among the weights: integer vectors
    lambda, by position in w, with sum lambda_q F_q = 0 (``nullspace``)."""
    vecs = list(w.values())
    n = len(vecs[0]) if vecs else 0
    return nullspace([{q: v[r] for q, v in enumerate(vecs) if v[r]} for r in range(n)], len(vecs))


def face_by_remainders(kept, dropped, positions, relations) -> bool | None:
    """Whether J is a face, read off the remainders r_q of its dropped
    weights modulo the span of its kept ones; None when only the LP can
    tell.  ``kept`` and ``dropped`` are the weights J keeps and drops,
    ``positions`` those of the dropped ones in the full weight set, and
    ``relations`` a function of no arguments that returns
    ``weight_relations`` of the full set; it is called only when the
    supports of the dropped weights leave the answer open.

    Every alpha vanishing on J has <alpha, F_q> = <alpha, r_q>, and q -> r_q
    is linear with kernel the span of the kept weights.  So by Gordan's
    alternative, on the quotient by that span (whose dual is the alpha
    vanishing on J), either some such alpha is negative on every dropped
    weight, and J is a face, or some nonzero c >= 0 has sum c_q r_q = 0,
    not both.  A c with one nonzero entry is a zero remainder, one with
    two a pair of negatively proportional remainders; either makes J no
    face, whatever the number of dropped weights.  With one or two dropped
    weights there are no others, so J is otherwise a face: r != 0 decides
    for one, and for two r_1, r_2 != 0 and not negatively proportional.

    A remainder agrees with its weight at the indices where every kept
    weight is zero.  So only a weight that is zero there can have
    remainder 0, and only two that are zero there, or there the negative
    of each other, negatively proportional remainders (a weight has
    entries in {-1, 0, 1}, so a positive multiple of one is the other only
    at factor 1).  Without such weights J is a face, or for three or more
    dropped weights is left to the LP, and no relation is read.

    Otherwise the c are read off the relations: sum c_q r_q = 0 says that
    sum c_q F_q lies in the span of the kept weights, i.e. that c extends
    to a relation among all the weights, so the c form the space L of the
    relations restricted to the dropped positions.  L is reduced to its
    echelon form (``linalg.Echelon``: primitive rows, each positive at its
    pivot and zero at the other pivots).  A c in L is the combination of
    the rows whose pivots lie in its support, so a c >= 0 with at most two
    nonzero entries is a row with at most two entries, all positive, or a
    positive combination of two rows whose entries off their pivots are
    negatively proportional.  A dropped weight in the span of the kept
    ones is such a row, with one entry.
    """
    untouched = [not x for x in map(any, zip(*kept))]
    # tuples from lists, built at their final size: a tuple built from an
    # iterator is resized, and that filled the tuple free lists, about
    # 1 MB more peak memory on the bench's faces workload
    parts = [tuple([x for x, u in zip(v, untouched) if u]) for v in dropped]
    if all(map(any, parts)) and not {tuple([-x for x in p]) for p in parts}.intersection(parts):
        return True if len(dropped) <= 2 else None
    span = Echelon(len(positions))
    for lam in relations():
        span.add_row({i: lam[q] for i, q in enumerate(positions) if q in lam})
    rests = []
    for p, row in span.pivots.items():
        if len(row) <= 2 and min(row.values()) > 0:
            return False
        g = math.gcd(*[x for c, x in row.items() if c != p])
        rest = {c: x // g for c, x in row.items() if c != p}
        if {c: -x for c, x in rest.items()} in rests:
            return False
        rests.append(rest)
    return True if len(dropped) <= 2 else None


def walk_faces(w: Weights, candidates, budget: int):
    """The face walk: (J, alpha, weights of J) for each face J of the hull
    of the weights ``w`` among ``candidates``, in their order.

    ``candidates`` yields (J, positions of the complement of J in ``w``).
    ``face_by_remainders`` decides each, with ``weight_relations(w)``
    solved at most once per walk, and only when first needed; only a
    candidate it leaves open reaches the LP (``separating_alpha``), which
    then also finds alpha.  alpha is a function of no arguments: for a
    face the remainders found, its LP runs only when it is called, and an
    LP that finds none there is an ``InvariantViolation``.  The weights of
    J are those of ``w`` at the keys in J, in the same order.  ``budget``
    bounds the candidates tested, whether the remainders or the LP
    settles each; once it is spent with a candidate left, yields None and
    stops.
    """
    vecs = list(w.values())
    n = len(vecs[0]) if vecs else 0
    relations = functools.cache(lambda: weight_relations(w))
    for tested, (j_set, positions) in enumerate(candidates):
        if tested >= budget:
            yield None
            return
        kept = [v for q, v in enumerate(vecs) if q not in positions]
        dropped = [vecs[q] for q in positions]
        face = face_by_remainders(kept, dropped, positions, relations)
        if face is False:
            continue
        if face:
            alpha = functools.partial(_found_alpha, kept, dropped, n)
        else:
            found = separating_alpha(kept, dropped, n)
            if found is None:
                continue
            alpha = lambda found=found: found
        yield j_set, alpha, {key: v for key, v in w.items() if key in j_set}


def _found_alpha(kept, dropped, n: int) -> tuple[int, ...]:
    """``separating_alpha`` of a face ``face_by_remainders`` found."""
    alpha = separating_alpha(kept, dropped, n)
    if alpha is None:
        raise InvariantViolation("the LP finds no alpha for a face the remainders found")
    return alpha


def iter_nice_candidates(keys: Sequence[Key]):
    """The nice nonempty subsets of the index set ``keys`` in the order of
    the full face walk, without visiting the others: (J, positions of the
    complement of J in keys).  A nice J is an independent set of the
    conflict graph (``liecore.nice_conflicts``), so its complement is a
    vertex cover, and these are the covers of ``iter_covers``."""
    return iter_covers(keys, nice_conflicts(keys))


def iter_covers(keys: Sequence[Key], adj: Sequence[int]):
    """The nonempty subsets J of ``keys`` whose complements C are vertex
    covers of the graph ``adj`` (one bitmask of earlier neighbour
    positions per position, as ``liecore.nice_conflicts`` builds it), as
    (J, positions of C): size by size, smallest first, each size in lex
    order of positions.  On the edgeless graph every subset is a cover, so
    that lists every nonempty J, the full face walk.

    A branch picks the positions of C in increasing order and keeps those
    it passes over; it ends as soon as a kept position conflicts with an
    earlier kept one, since every later pick keeps it too.  A greedy
    maximal matching of the graph bounds the picks still needed: each
    matching edge whose later end is not yet passed and whose earlier end
    is not picked needs a pick of its own, the edges being disjoint.
    Keeping a position leaves that count as it is (an edge it ends was
    covered by a pick, or the branch ends there), and a pick lowers it by
    the edge it covers, if any; a branch is not entered once the count
    exceeds the picks left.  No cover is smaller than the matching, so the
    sizes start there.
    """
    m = len(keys)
    full = frozenset(keys)
    # a greedy maximal matching of the graph, as partner positions
    partner, matched, pairs = [-1] * m, 0, 0
    for q in range(m):
        free = adj[q] & ~matched
        if free and partner[q] < 0:
            p = (free & -free).bit_length() - 1
            partner[p], partner[q] = q, p
            matched |= 1 << p | 1 << q
            pairs += 1
    for size in range(pairs, m):
        # frames of the search: [next position to pick, picks, kept mask,
        # picks left over beyond the uncovered matching edges]
        frames = [[0, (), 0, size - pairs]]
        while frames:
            frame = frames[-1]
            c, picks, kept, slack = frame
            left = size - len(picks)
            if not left:
                frames.pop()
                for q in range(c, m):
                    if adj[q] & kept:
                        break
                    kept |= 1 << q
                else:
                    yield full.difference([keys[q] for q in picks]), picks
                continue
            if c > m - left:
                frames.pop()
                continue
            # after the branch that picks c, this frame keeps c, unless
            # that conflicts with a kept position (all of them earlier);
            # picking c covers its matching edge unless an earlier pick did
            frame[0] = m if adj[c] & kept else c + 1
            frame[2] = kept | 1 << c
            p = partner[c]
            slack += p >= 0 and (p > c or kept >> p & 1)
            if slack > 0:
                frames.append([c + 1, picks + (c,), kept, slack - 1])


def require_budget(budget: int) -> None:
    """A face budget counts face candidates tested, so a negative one is an input fault."""
    if budget < 0:
        raise InputError(f"face budget must be nonnegative, got {budget}")


def iter_faces(mu: LieBracket, budget: int):
    """The full face walk: (J, alpha, weights of J) for each face J of the
    hull, over every nonempty subset J of ``mu.keys()``, smallest
    complement first and in lex order within a size (``iter_covers`` on
    the edgeless graph).

    ``walk_faces`` decides each subset, and alpha is solved for each face,
    so the walk solves one LP per face other than the full set.  The
    weights of J are those of ``weight_set(mu)`` at the keys in J, in the
    same order: the weights of lambda_J, the bracket keeping the constants
    of mu indexed by J, which is never built.  ``budget`` bounds the
    subsets tested, whether the remainders or the LP settles each; once
    it is spent with a subset left, yields None and stops.
    """
    require_budget(budget)
    w = weight_set(mu)
    for face in walk_faces(w, iter_covers(list(w), [0] * len(w)), budget):
        yield None if face is None else (face[0], face[1](), face[2])
