"""Weights of the torus action, convex-hull membership, and degenerations.

Every verdict produced here is exact: feasibility comes from a rational
simplex with a strictness slack, and cone projections come from
Fourier-Motzkin elimination with LP-certified redundancy removal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .derivations import DiagonalDerivationSpace
from .errors import InputError, InvariantViolation
from .liecore import Key, LieBracket, is_nice_basis
from .linalg import ONE, Vec, ZERO, frac, integer_row, primitive
from .simplex import feasible_nonneg, max_margin

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Weight:
    i: int
    j: int
    k: int
    vec: Vec

    @staticmethod
    def of(i: int, j: int, k: int, n: int) -> "Weight":
        v = [ZERO] * n
        v[k - 1] += ONE
        v[i - 1] -= ONE
        v[j - 1] -= ONE
        return Weight(i, j, k, tuple(v))


@dataclass(frozen=True)
class WeightSet:
    weights: tuple[Weight, ...]

    @property
    def index_set(self) -> tuple[Key, ...]:
        return tuple((w.i, w.j, w.k) for w in self.weights)

    def __len__(self):
        return len(self.weights)


def weight_set(mu: LieBracket) -> WeightSet:
    return WeightSet(
        tuple(Weight.of(i, j, k, mu.dim) for (i, j, k) in mu.keys())
    )


@dataclass(frozen=True)
class LPResult:
    status: str
    assignment: dict[Key, Fraction]
    slack: Fraction

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def strict_cone_membership(d: Vec, w: WeightSet) -> LPResult:
    """Decide D - sum(a F) > 0 entrywise for some a >= 0, exactly.

    Maximizes the entrywise slack eps (capped at 1); strictly feasible
    means optimal eps > 0.  The returned assignment re-verifies by
    substitution.
    """
    sol = max_margin([[wt.vec[r] for wt in w.weights] for r in range(len(d))], d)
    if sol is None:
        return LPResult(INFEASIBLE, {}, ZERO)
    eps, a = sol
    assignment = {(wt.i, wt.j, wt.k): a[q] for q, wt in enumerate(w.weights) if a[q]}
    return LPResult(FEASIBLE, assignment, eps)


def verify_membership(d: Vec, w: WeightSet, assignment: dict[Key, Fraction]) -> Fraction | None:
    """Exact re-check of a membership certificate; returns min slack or None."""
    n = len(d)
    residual = list(map(frac, d))
    for wt in w.weights:
        a = frac(assignment.get((wt.i, wt.j, wt.k), ZERO))
        if a < 0:
            return None
        for r in range(n):
            residual[r] -= a * wt.vec[r]
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
    """Minimal subsystem with the same strict solution set, deterministic order."""
    rows = sorted(set(rows))
    kept = list(rows)
    for r in list(rows):
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


def fourier_motzkin(
    rows: list[tuple[tuple[Fraction, ...], tuple[Fraction, ...], bool]],
    nelim: int,
) -> ProjectedCone:
    """Eliminate the first block of variables from a homogeneous system.

    Each row is (elim_coeffs, kept_coeffs, strict) meaning
    elim.x + kept.t > 0 (strict) or >= 0.  Every row is scaled once to a
    primitive integer vector; a positive scaling keeps its direction, so
    the elimination runs in ``int`` and a row is its own duplicate key.
    """
    split = len(rows[0][0]) if rows else 0
    work = [(integer_row(e + t), s) for e, t, s in rows]
    for var in range(nelim):
        zero, pos, neg = [], [], []
        for v, s in work:
            c = v[var]
            if c == 0:
                zero.append((v, s))
            elif c > 0:
                pos.append((v, s))
            else:
                neg.append((v, s))
        new = zero
        for (vp, sp) in pos:
            a = vp[var]
            for (vn, sn) in neg:
                b = -vn[var]
                new.append((primitive([b * x + a * y for x, y in zip(vp, vn)]), sp or sn))
        # prune duplicates to tame growth; a duplicate keeps the first place
        # and is strict if any copy is
        pruned: dict[tuple[int, ...], bool] = {}
        for v, s in new:
            pruned[v] = pruned.get(v, False) or s
        work = list(pruned.items())
    out = set()
    for v, s in work:
        if any(v[:split]):
            raise InvariantViolation("Fourier-Motzkin left an eliminated variable behind")
        t = v[split:]
        if not any(t):
            if s:
                return ProjectedCone((), empty=True)  # derived 0 > 0
            continue
        # rows with a nonzero kept part always trace back to a strict row
        out.add(t)
    kept = remove_redundant(sorted(out))
    if kept and interior_point(kept) is None:
        return ProjectedCone(tuple(sorted(kept)), empty=True)
    return ProjectedCone(tuple(sorted(kept)))


def interior_point(rows) -> Vec | None:
    """Some t with row . t > 0 for every row, or None if there is none (t free, exact LP)."""
    sol = max_margin([[-x for x in row] for row in rows], [ZERO] * len(rows), free=len(rows[0]))
    return None if sol is None else sol[1]


def project_certificate_cone(
    w: WeightSet, dspace: DiagonalDerivationSpace
) -> ProjectedCone:
    """Strict inequality description of {t : exists a >= 0, D(t) - sum aF > 0}.

    Output is canonical: integer coefficient vectors with content 1 over
    the d-space parameters, lexicographically sorted, irredundant.
    """
    if dspace.dim == 0:
        raise InputError("empty diagonal-derivation space")
    n = len(dspace.basis[0])
    m = len(w)
    p = dspace.dim
    rows = []
    for r in range(n):
        e = tuple(-w.weights[q].vec[r] for q in range(m))
        t = tuple(dspace.basis[mm][r] for mm in range(p))
        rows.append((e, t, True))
    for q in range(m):
        e = tuple(ONE if qq == q else ZERO for qq in range(m))
        rows.append((e, (ZERO,) * p, False))
    return fourier_motzkin(rows, m)


# ---------------------------------------------------------------------------
# Toral degenerations
# ---------------------------------------------------------------------------


def pairing(alpha: Vec, i: int, j: int, k: int) -> Fraction:
    return frac(alpha[k - 1]) - frac(alpha[i - 1]) - frac(alpha[j - 1])


def sub_bracket(mu: LieBracket, j_set) -> LieBracket:
    """lambda_J: the bracket keeping only the constants indexed by J."""
    j_set = set(j_set)
    return LieBracket(
        mu.dim, {key: v for key, v in mu.constants.items() if key in j_set}
    )


def is_face(j_set, w: WeightSet) -> tuple[bool, Vec | None]:
    """Decide whether CH(F_w : w in J) is a face of the full hull.

    Searches alpha with <alpha, F> = 0 on J and < 0 on the complement by
    exact LP (maximizing the complement margin, capped at 1).  Returns
    the separating alpha, scaled to integers, on success.
    """
    j_set = set(j_set)
    idx = w.index_set
    if not j_set <= set(idx):
        raise InputError("J is not a subset of the index set")
    comp = [q for q, key in enumerate(idx) if key not in j_set]
    n = len(w.weights[0].vec) if w.weights else 0
    if not comp:
        return True, (ZERO,) * n
    sol = max_margin(
        [w.weights[q].vec for q in comp],
        [ZERO] * len(comp),
        [wt.vec for key, wt in zip(idx, w.weights) if key in j_set],
        free=n,
    )
    if sol is None:
        return False, None
    alpha = sol[1]
    return True, tuple(frac(x) for x in integer_row(alpha)) if any(alpha) else alpha


@dataclass(frozen=True)
class FaceDegeneration:
    j_set: frozenset[Key]
    alpha: Vec
    limit: LieBracket

    @property
    def is_nice(self) -> bool:
        return is_nice_basis(self.limit)


@dataclass(frozen=True)
class DegenerationEnumeration:
    faces: tuple[FaceDegeneration, ...]
    complete: bool
    tested: int


def iter_face_candidates(mu: LieBracket):
    """Nonempty subsets of I_mu, smallest complement first, lex within size."""
    idx = mu.keys()
    for drop in range(len(idx)):
        for comp in itertools.combinations(idx, drop):
            yield frozenset(idx) - frozenset(comp)


def enumerate_face_degenerations(
    mu: LieBracket, budget: int = 4096
) -> DegenerationEnumeration:
    """All nonempty face subsets (including the full index set), each
    certified by a separating alpha, up to the subset-test budget."""
    w = weight_set(mu)
    faces = []
    tested = 0
    complete = True
    for j_set in iter_face_candidates(mu):
        if tested >= budget:
            complete = False
            break
        tested += 1
        ok, alpha = is_face(j_set, w)
        if ok:
            faces.append(FaceDegeneration(j_set, alpha, sub_bracket(mu, j_set)))
    return DegenerationEnumeration(tuple(faces), complete, tested)
