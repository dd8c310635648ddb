from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from nilcone.catalog import catalog_get
from nilcone.derivations import diagonal_derivations
from nilcone.liecore import LieBracket
from nilcone.linalg import integer_row
from nilcone.polytope import (
    ProjectedCone,
    interior_point,
    is_face,
    iter_faces,
    pairing,
    project_certificate_cone,
    strict_cone_membership,
    verify_membership,
    weight_set,
)

HEIS = LieBracket(3, {(1, 2, 3): F(1)})


@dataclass(frozen=True)
class NoLimit:
    triple: tuple[int, int, int]


def limit_along(mu: LieBracket, alpha) -> LieBracket | NoLimit:
    """Oracle: the limit of exp(t alpha) . mu as t -> infinity, when it exists.

    Keeps exactly the structure constants with <alpha, F> = 0; any
    positive pairing means the flow diverges (NoLimit).
    """
    kept = {}
    for (i, j, k), v in mu.constants.items():
        pr = pairing(alpha, i, j, k)
        if pr > 0:
            return NoLimit((i, j, k))
        if pr == 0:
            kept[(i, j, k)] = v
    return LieBracket(mu.dim, kept)


def limit_bracket(mu: LieBracket, j_set) -> LieBracket:
    """Oracle: lambda_J as a bracket, keeping the constants indexed by J."""
    return LieBracket(mu.dim, {key: v for key, v in mu.constants.items() if key in j_set})


def evaluate_cone(cone: ProjectedCone, t) -> bool:
    """Oracle: t satisfies every projected inequality strictly."""
    if cone.empty:
        return False
    return all(sum(F(c) * x for c, x in zip(row, t)) > 0 for row in cone.inequalities)


def test_weight_vectors():
    assert weight_set(HEIS) == {(1, 2, 3): (F(-1), F(-1), F(1))}
    # ints, so they reach the simplex with no conversion
    assert all(type(x) is int for v in weight_set(HEIS).values() for x in v)


def test_weight_of():
    # one weight per key, in mu.keys() order
    mu = catalog_get("n4nonice")
    w = weight_set(mu)
    assert list(w) == mu.keys()
    assert w[(1, 3, 4)] == (F(-1), F(0), F(-1), F(1))


def test_membership_feasible_and_verified():
    w = weight_set(HEIS)
    slack, coefficients = strict_cone_membership((F(1), F(1), F(2)), w)
    assert slack > 0
    assert verify_membership((F(1), F(1), F(2)), w, coefficients) >= slack


def test_membership_uses_weights():
    # (-1, 2, 2) needs a > 1 on F_12^3 to fix the first entry
    w = weight_set(HEIS)
    _, coefficients = strict_cone_membership((F(-1), F(2), F(2)), w)
    assert coefficients[(1, 2, 3)] > 1


def test_membership_infeasible():
    w = weight_set(HEIS)
    assert strict_cone_membership((F(1), F(1), F(-3)), w) is None


def test_verify_rejects_bad_assignment():
    w = weight_set(HEIS)
    assert verify_membership((F(1), F(1), F(2)), w, {(1, 2, 3): F(5)}) is None
    assert verify_membership((F(1), F(1), F(2)), w, {(1, 2, 3): F(-1)}) is None


def test_heis_cone():
    cone = project_certificate_cone(weight_set(HEIS), diagonal_derivations(HEIS))
    assert cone.inequalities == ((1, 2), (2, 1))
    assert not cone.empty


def test_n4nice_cone():
    mu = catalog_get("n4nice")
    cone = project_certificate_cone(weight_set(mu), diagonal_derivations(mu))
    assert cone.inequalities == ((1, 1), (2, 1))


def test_cone_membership_agreement_heis():
    mu = HEIS
    dsp = diagonal_derivations(mu)
    cone = project_certificate_cone(weight_set(mu), dsp)
    for t in [(F(1), F(1)), (F(3), F(-1)), (F(-1), F(3)), (F(-1), F(-1)),
              (F(5, 2), F(-1)), (F(1), F(-2))]:
        direct = strict_cone_membership(dsp.point(t), weight_set(mu)) is not None
        assert evaluate_cone(cone, t) == direct


def test_limit_along_keeps_zero_pairing():
    mu = catalog_get("dim7-alg1")
    alpha = tuple(map(F, (-1, 0, -2, -1, -2, -3, -4)))
    lam = limit_along(mu, alpha)
    assert set(mu.keys()) - set(lam.keys()) == {(2, 3, 7)}


def test_limit_along_diverges_on_positive_pairing():
    res = limit_along(HEIS, (F(0), F(0), F(1)))
    assert isinstance(res, NoLimit)
    assert res.triple == (1, 2, 3)


def test_is_face_vertex_and_nonface():
    mu = catalog_get("n4nonice")
    w = weight_set(mu)
    ok, alpha = is_face({(1, 2, 4)}, w)
    assert ok
    for (i, j, k) in mu.keys():
        p = alpha[k - 1] - alpha[i - 1] - alpha[j - 1]
        assert (p == 0) == ((i, j, k) == (1, 2, 4))
    # the barycenter of a triangle edge midpoint set is not a face here:
    # {(1,2,3),(1,2,4)} and {(1,3,4)} are faces, but a vertex cannot pair
    # with the opposite vertex without capturing the middle one
    ok2, _ = is_face({(1, 2, 3), (1, 3, 4)}, w)
    assert ok2  # this edge is a face (checked against the explicit alpha)


def test_face_requires_subset():
    with pytest.raises(ValueError):
        is_face({(9, 9, 9)}, weight_set(HEIS))


def test_face_counts():
    # triangle: 3 vertices + 3 edges + full set
    faces = list(iter_faces(catalog_get("n4nonice"), 4096))
    assert None not in faces
    assert len(faces) == 7
    full = frozenset(catalog_get("n4nonice").keys())
    assert sum(1 for j_set, *_ in faces if j_set != full) == 6
    # rectangle: 4 vertices + 4 edges + full set
    faces5 = list(iter_faces(catalog_get("n5nonice"), 4096))
    full5 = frozenset(catalog_get("n5nonice").keys())
    assert sum(1 for j_set, *_ in faces5 if j_set != full5) == 8


def test_face_budget():
    # the first two candidates of n4nonice are faces; the third is left untested
    faces = list(iter_faces(catalog_get("n4nonice"), 2))
    assert len(faces) == 3 and faces[-1] is None


def test_interior_point_is_strictly_inside_or_none():
    rows = [(1, 0, -1), (0, 1, 0), (F(1, 2), 0, 1)]
    # interior_point takes int rows; a positive row scaling keeps row . t > 0
    num, den = interior_point([integer_row(row) for row in rows])
    assert type(den) is int and den > 0 and all(type(v) is int for v in num)
    t = [F(v, den) for v in num]
    assert all(sum(r * x for r, x in zip(row, t)) > 0 for row in rows)
    assert interior_point([(1, 0), (-1, 0), (0, 1)]) is None  # d1 > 0 and -d1 > 0
    assert interior_point([(1, 1), (-1, -1)]) is None


def test_empty_cone_detected():
    # weights force d > 0 and -d > 0 simultaneously: impossible
    mu = LieBracket(4, {(1, 2, 3): F(1), (3, 4, 1): F(1), (1, 3, 2): F(1), (2, 3, 4): F(1)})
    dsp = diagonal_derivations(mu)
    if dsp.dim:
        cone = project_certificate_cone(weight_set(mu), dsp)
        for t in [(F(1),) * dsp.dim, (F(-1),) * dsp.dim]:
            assert evaluate_cone(cone, t) == (strict_cone_membership(
                dsp.point(t), weight_set(mu)
            ) is not None)
