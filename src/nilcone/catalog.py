"""Built-in library of example algebras with expected properties.

Each entry records its bracket, the derivations quoted with it, and a
list of expected properties carrying a provenance tag: ``trivial`` facts
are asserted directly, ``derived`` values were recomputed independently,
and ``printed`` values come from the source presentation of the algebra.
Where a printed value disagrees with recomputation, the regression
asserts the recomputed value and flags the discrepancy instead of
failing; the bracket itself is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .certifier import (
    CERTIFIED_NOT_RN,
    CERTIFIED_RN,
    certify_derivation,
    necessary_condition,
    nilradical_verdict,
)
from .derivations import Analysis, is_diagonal_derivation, solve_phi
from .errors import UnknownCatalogEntry
from .liecore import LieBracket, center, check_jacobi, emit_bracket, is_nice_basis, lower_central_series
from .linalg import Vec, frac
from .polytope import iter_faces, project_certificate_cone, weight_set

F = Fraction

TRIVIAL = "trivial"
DERIVED = "derived"
PRINTED = "printed"


@dataclass(frozen=True)
class Expected:
    name: str
    value: object
    tag: str
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    summary: str
    build: Callable[..., LieBracket]
    params: tuple[str, ...] = ()
    derivations: tuple[Vec, ...] = ()
    expected: tuple[Expected, ...] = ()
    notes: str = ""

    def bracket(self, **params) -> LieBracket:
        missing = [p for p in self.params if p not in params]
        if missing:
            raise UnknownCatalogEntry(
                f"entry {self.id!r} needs parameter(s) {', '.join(missing)}"
            )
        unknown = [p for p in params if p not in self.params]
        if unknown:
            raise UnknownCatalogEntry(
                f"entry {self.id!r} takes no parameter(s) {', '.join(unknown)}"
            )
        return self.build(**params)


def _b(dim, constants):
    return LieBracket(dim, {k: F(v) for k, v in constants.items()})


def _vec(*xs) -> Vec:
    return tuple(frac(x) for x in xs)


_X7 = {  # filiform-type block reused by several entries
    (1, 3, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (1, 6, 7): 1,
    (2, 3, 5): 1, (2, 4, 6): 1, (3, 4, 7): -1, (2, 5, 7): 1,
}


def _shift(block: dict, offset: int) -> dict:
    return {(i + offset, j + offset, k + offset): v for (i, j, k), v in block.items()}


_ENTRIES: list[CatalogEntry] = []


def _add(entry: CatalogEntry):
    _ENTRIES.append(entry)


_add(CatalogEntry(
    id="heis3", dim=3, summary="Heisenberg algebra, [e1,e2]=e3",
    build=lambda: _b(3, {(1, 2, 3): 1}),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("dspace-basis", (_vec(1, 0, 1), _vec(0, 1, 1)), PRINTED),
        Expected("cone", ((1, 2), (2, 1)), PRINTED,
                 "certified cone 2d1+d2>0, d1+2d2>0"),
        Expected("phi-diagonal", _vec(F(2, 3), F(2, 3), F(4, 3)), DERIVED),
    ),
))

_add(CatalogEntry(
    id="n4nice", dim=4, summary="filiform dim 4 in its nice basis",
    build=lambda: _b(4, {(1, 2, 3): 1, (1, 3, 4): 1}),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("dspace-basis", (_vec(1, 0, 1, 2), _vec(0, 1, 1, 1)), PRINTED),
        Expected("cone", ((1, 1), (2, 1)), PRINTED,
                 "certified cone d1+d2>0, 2d1+d2>0"),
    ),
))

_add(CatalogEntry(
    id="n4nonice", dim=4, summary="same algebra, non-nice basis [e1,e2]=e3+e4",
    build=lambda: _b(4, {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): 1}),
    derivations=(_vec(0, 1, 1, 1),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", False, TRIVIAL),
        Expected("dspace-basis", (_vec(0, 1, 1, 1),), PRINTED),
        Expected("proper-faces", 6, PRINTED, "edges and vertices of a triangle"),
        Expected("certify-derivation", CERTIFIED_RN, PRINTED),
        Expected("vertex-cone", ((1,),), PRINTED,
                 "cone from the vertex keeping only (1,2,4) is {d > 0}"),
    ),
))

_add(CatalogEntry(
    id="n5nonice", dim=5, summary="dim 5, non-nice: [e1,e2]=e3+e4, [e1,e3]=[e1,e4]=e5",
    build=lambda: _b(5, {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 5): 1, (1, 4, 5): 1}),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", False, TRIVIAL),
        Expected("proper-faces", 8, PRINTED,
                 "edges and vertices of a rectangle"),
    ),
))


def _dim7(id_, constants, d, notes=""):
    _add(CatalogEntry(
        id=id_, dim=7, summary="dim 7 without positive derivation",
        build=lambda: _b(7, constants),
        derivations=(_vec(*d),),
        expected=(
            Expected("jacobi", True, TRIVIAL),
            Expected("nilpotent", True, TRIVIAL),
            Expected("listed-derivations", True, PRINTED),
            Expected("dspace-basis", (_vec(*d),), DERIVED),
            Expected("certify-derivation", CERTIFIED_RN, PRINTED),
        ),
        notes=notes,
    ))


_dim7("dim7-alg1",
      {(1, 2, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (1, 6, 7): 1,
       (2, 3, 5): 1, (2, 3, 7): 1, (3, 4, 6): -1, (3, 5, 7): -1},
      (0, 1, 0, 1, 1, 1, 1))
_dim7("dim7-alg2",
      {(1, 2, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (1, 6, 7): 1,
       (2, 3, 6): 1, (2, 3, 7): 1, (3, 4, 7): -1},
      (0, 1, 0, 1, 1, 1, 1))
_dim7("dim7-alg3",
      {(1, 2, 3): 1, (1, 3, 4): 1, (1, 5, 6): 1, (2, 3, 5): 1,
       (2, 4, 6): 1, (2, 5, 7): 1, (2, 6, 7): 1, (3, 5, 7): -1},
      (0, 1, 1, 1, 2, 2, 3),
      notes="erratum: the source prints both [e2,e5]=e7 and [e2,e5]=-e7; "
            "resolved by reading the repeated line as [e3,e5]=-e7, the "
            "minimal correction for which Jacobi holds and the listed D "
            "is a derivation")
_dim7("dim7-alg4",
      {(1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 5): 1, (1, 6, 7): 1,
       (2, 3, 6): 1, (2, 4, 7): 1, (2, 5, 7): 1, (3, 4, 7): -1},
      (0, 1, 1, 1, 1, 2, 2))


def _ex10():
    c = {(1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 5): 1, (2, 3, 5): 1,
         (6, 7, 3): -1, (6, 8, 4): -1, (6, 9, 5): -1, (7, 8, 5): -1,
         (1, 7, 8): 1, (1, 8, 9): 1, (1, 9, 10): 1, (2, 8, 10): 1,
         (2, 6, 8): -1, (3, 6, 9): -1, (4, 6, 10): -1, (3, 7, 10): -1,
         (1, 6, 11): 1, (2, 7, 11): 1}
    return _b(11, c)


_add(CatalogEntry(
    id="ex10", dim=11,
    summary="rank 0 over the reals but complex rank 1; X/Y pairs with a Z",
    build=_ex10,
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("dspace-dim", 0, PRINTED, "Diag(d_1,...,d_11) = 0"),
        Expected("traceless", True, PRINTED),
        Expected("char-nilpotent", False, PRINTED,
                 "the skew rotation-like map is a non-nilpotent derivation"),
        Expected("nilradical-verdict", CERTIFIED_NOT_RN, PRINTED),
    ),
))


def _ex3():
    c = {(1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 5): 1, (2, 3, 5): 1,
         (6, 7, 8): 1, (6, 8, 9): 1, (6, 9, 10): 1, (7, 8, 10): 1,
         (1, 6, 11): 1, (2, 7, 11): 1}
    return _b(11, c)


_add(CatalogEntry(
    id="ex3", dim=11,
    summary="rank 1 with every derivation traceless",
    build=_ex3,
    derivations=(_vec(1, 2, 3, 4, 5, -1, -2, -3, -4, -5, 0),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("traceless", True, PRINTED),
        Expected("char-nilpotent", False, DERIVED),
        Expected("nilradical-verdict", CERTIFIED_NOT_RN, PRINTED),
    ),
))


def _ex1ex2ex5_i():
    c = {(1, 2, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (1, 6, 7): 1,
         (2, 3, 6): 1, (2, 3, 7): 1, (3, 4, 7): -1, (1, 3, 8): 1}
    return _b(8, c)


_add(CatalogEntry(
    id="ex1ex2ex5-i", dim=8,
    summary="dim 8, 5-step; semisimple derivations vanish on part of the center",
    build=_ex1ex2ex5_i,
    derivations=(_vec(0, 1, 0, 1, 1, 1, 1, 0),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("center-dim", 2, PRINTED),
        Expected("lcs-dims", (8, 5, 3, 2, 1), DERIVED,
                 "printed series (8,5,4,3,1) disagrees with recomputation "
                 "from the printed bracket; the bracket is the oracle"),
        Expected("lcs-dims-printed", (8, 5, 4, 3, 1), PRINTED,
                 "flagged: see lcs-dims"),
        Expected("necessary-condition-fails", True, PRINTED,
                 "listed D has eigenvalue 0 on the center"),
    ),
))


def _ex1ex2ex5_ii():
    c = {(1, 4, 5): 1, (1, 5, 6): 1, (2, 4, 6): 1,
         (1, 7, 8): 1, (2, 7, 9): 1, (1, 8, 10): 1, (2, 9, 10): 1,
         (1, 2, 3): 1}
    return _b(10, c)


_add(CatalogEntry(
    id="ex1ex2ex5-ii", dim=10,
    summary="dim 10, 3-step, rank 2",
    build=_ex1ex2ex5_ii,
    derivations=(
        _vec(0, 0, 0, 1, 1, 1, 0, 0, 0, 0),
        _vec(0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    ),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("lcs-dims", (10, 6, 2), PRINTED),
        Expected("center-dim", 3, PRINTED),
    ),
))


def _ex1ex2ex5_iii(t):
    t = frac(t)
    c = {(1, 2, 3): F(1), (1, 3, 4): F(1), (1, 4, 5): F(1), (1, 5, 6): F(1),
         (1, 6, 7): F(1), (2, 3, 5): F(1), (2, 4, 6): F(1),
         (2, 5, 7): t, (3, 4, 7): 1 - t,
         (8, 9, 10): F(1), (8, 10, 11): F(1), (8, 11, 12): F(1), (9, 10, 12): F(1),
         (1, 8, 13): F(1), (2, 9, 13): F(1)}
    return LieBracket(13, {k: v for k, v in c.items() if v})


_add(CatalogEntry(
    id="ex1ex2ex5-iii", dim=13,
    summary="one-parameter family, dim 13, 6-step; needs parameter t",
    build=_ex1ex2ex5_iii,
    params=("t",),
    derivations=(_vec(1, 2, 3, 4, 5, 6, 7, -1, -2, -3, -4, -5, 0),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("center-dim", 3, PRINTED),
        Expected("nilpotency-class", 6, PRINTED),
    ),
    notes="family invariants are checked at t in {0, 1/2, 1, 2, -1}",
))


def _ex8ex7_i():
    c = dict(_X7)
    c.update({(8, 9, 10): 1, (8, 10, 11): 1, (8, 11, 12): 1, (9, 10, 12): 1,
              (2, 8, 13): 1, (3, 9, 13): 1})
    return _b(13, c)


_add(CatalogEntry(
    id="ex8ex7-i", dim=13,
    summary="dim 13 with a nonsingular derivation, negative on part of the center",
    build=_ex8ex7_i,
    derivations=(_vec(1, 2, 3, 4, 5, 6, 7, -1, -2, -3, -4, -5, 1),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("center-dim", 3, PRINTED),
        Expected("nilpotency-class", 5, PRINTED),
        Expected("necessary-condition-fails", True, PRINTED,
                 "listed D restricts to Diag(7,-5,1) on the center"),
    ),
))


def _ex8ex7_ii():
    c = dict(_X7)
    c.update(_shift(_X7, 7))
    c.update({(3, 9, 15): 1, (2, 8, 15): 1, (1, 10, 16): -1, (1, 16, 17): -1})
    return _b(17, c)


_add(CatalogEntry(
    id="ex8ex7-ii", dim=17,
    summary="dim 17, rank 1, trace 2 derivation negative on part of the center",
    build=_ex8ex7_ii,
    derivations=(_vec(-1, -2, -3, -4, -5, -6, -7, 1, 2, 3, 4, 5, 6, 7, -1, 2, 1),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("center-dim", 4, PRINTED),
        Expected("nilpotency-class", 5, PRINTED),
        Expected("dspace-dim", 1, DERIVED),
        Expected("listed-derivation-trace", F(2), PRINTED),
    ),
))


def _ex9():
    c = {(1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 5): 1, (1, 5, 6): 1, (2, 3, 6): 1,
         (1, 7, 8): 1, (1, 8, 10): 1, (2, 7, 9): 1, (7, 9, 10): 1}
    return _b(10, c)


_add(CatalogEntry(
    id="ex9", dim=10,
    summary="a Ricci negative nilradical whose semisimple derivations all "
            "have a negative eigenvalue",
    build=_ex9,
    derivations=(_vec(1, 3, 4, 5, 6, 7, -1, 0, 2, 1),),
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("listed-derivations", True, PRINTED),
        Expected("lcs-dims", (10, 7, 4, 2, 1), PRINTED),
        Expected("center-dim", 2, PRINTED),
        Expected("certify-derivation", CERTIFIED_RN, PRINTED),
        Expected("nilradical-verdict", CERTIFIED_RN, PRINTED),
    ),
))


def _ex4_1():
    c = {(1, 2, 4): 1, (2, 3, 5): 1, (1, 3, 6): -1,
         (1, 4, 7): 1, (2, 5, 8): 1, (3, 6, 9): 1,
         (1, 7, 10): 1, (2, 8, 11): 1, (3, 9, 12): 1,
         (1, 6, 12): 1, (2, 4, 10): 1, (3, 5, 11): 1}
    return _b(12, c)


_add(CatalogEntry(
    id="ex4-1", dim=12,
    summary="characteristically nilpotent with a nice basis, cyclic X/Y/Z/U blocks",
    build=_ex4_1,
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("lcs-dims", (12, 9, 6, 3), PRINTED),
        Expected("char-nilpotent", True, PRINTED),
        Expected("nilradical-verdict", CERTIFIED_NOT_RN, PRINTED),
    ),
))


def _ex4_2():
    c = {(1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 5): 1, (2, 3, 5): 1,
         (6, 7, 8): 1, (6, 8, 9): 1, (6, 9, 10): 1, (7, 8, 10): 1,
         (1, 6, 11): 1, (2, 7, 11): 1, (1, 7, 12): 1, (2, 6, 12): 1}
    return _b(12, c)


_add(CatalogEntry(
    id="ex4-2", dim=12,
    summary="characteristically nilpotent with a nice basis, twin filiform blocks",
    build=_ex4_2,
    expected=(
        Expected("jacobi", True, TRIVIAL),
        Expected("nilpotent", True, TRIVIAL),
        Expected("nice", True, TRIVIAL),
        Expected("char-nilpotent", True, PRINTED),
        Expected("nilradical-verdict", CERTIFIED_NOT_RN, PRINTED),
    ),
))


_BY_ID = {e.id: e for e in _ENTRIES}

FAMILY_SAMPLES = (F(0), F(1, 2), F(1), F(2), F(-1))


def catalog_list() -> list[tuple[str, int, str]]:
    return [(e.id, e.dim, e.summary) for e in _ENTRIES]


def catalog_entry(id_: str) -> CatalogEntry:
    if id_ not in _BY_ID:
        raise UnknownCatalogEntry(f"unknown catalog entry {id_!r}")
    return _BY_ID[id_]


def catalog_get(id_: str, **params) -> LieBracket:
    return catalog_entry(id_).bracket(**params)


def catalog_export(id_: str, **params) -> str:
    return emit_bracket(catalog_get(id_, **params))


# ---------------------------------------------------------------------------
# Regression checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    entry: str
    name: str
    ok: bool
    detail: str = ""
    flagged: bool = False


def _check(entry: CatalogEntry, a: Analysis, exp: Expected) -> CheckResult:
    mu = a.mu
    name = exp.name
    want = exp.value
    flagged = False
    if name == "jacobi":
        got = check_jacobi(mu)[0]
    elif name == "nilpotent":
        got = a.nilpotent
    elif name == "nice":
        got = is_nice_basis(mu.keys())
    elif name == "dspace-basis":
        got = a.dspace.basis
    elif name == "dspace-dim":
        got = a.dspace.dim
    elif name == "cone":
        got = project_certificate_cone(weight_set(mu), a.dspace).inequalities
    elif name == "vertex-cone":
        got = project_certificate_cone(
            {(1, 2, 4): weight_set(mu)[(1, 2, 4)]}, a.dspace
        ).inequalities
    elif name == "phi-diagonal":
        got = solve_phi(a)
    elif name == "proper-faces":
        full = len(mu.keys())
        got = sum(1 for f in iter_faces(mu, 4096) if f and len(f[0]) < full)
    elif name == "traceless":
        got = a.traceless
    elif name == "char-nilpotent":
        got = a.characteristically_nilpotent
    elif name == "listed-derivations":
        got = all(is_diagonal_derivation(d, mu) for d in entry.derivations)
    elif name == "listed-derivation-trace":
        got = sum(entry.derivations[0], F(0))
    elif name == "lcs-dims":
        got = lower_central_series(mu).dims
    elif name == "lcs-dims-printed":
        got = lower_central_series(mu).dims
        if got != want:
            # discrepancy is expected and flagged, not failed
            return CheckResult(entry.id, name, True,
                               f"printed {want} vs recomputed {got}; {exp.note}",
                               flagged=True)
        return CheckResult(entry.id, name, True, "printed value confirmed")
    elif name == "center-dim":
        got = len(center(mu))
    elif name == "nilpotency-class":
        got = lower_central_series(mu).nilpotency_class
    elif name == "necessary-condition-fails":
        got = not necessary_condition(mu, entry.derivations[0])[0]
    elif name == "certify-derivation":
        got = certify_derivation(mu, entry.derivations[0]).status
    elif name == "nilradical-verdict":
        got = nilradical_verdict(a).status
    else:
        return CheckResult(entry.id, name, False, f"unknown property {name!r}")
    ok = got == want
    detail = "" if ok else f"expected {want!r}, got {got!r}"
    return CheckResult(entry.id, name, ok, detail, flagged)


@dataclass(frozen=True)
class RegressionReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "ok" if r.ok else "FAIL"
            if r.flagged:
                mark = "flag"
            line = f"{mark:4} {r.entry}: {r.name}"
            if r.detail:
                line += f" ({r.detail})"
            out.append(line)
        out.append(("PASS" if self.ok else "FAIL")
                   + f" {sum(r.ok for r in self.results)}/{len(self.results)} checks")
        return out


def run_regression(ids: list[str] | None = None) -> RegressionReport:
    results = []
    entries = _ENTRIES if ids is None else [catalog_entry(i) for i in ids]
    for entry in entries:
        if entry.params:
            for t in FAMILY_SAMPLES:
                a = Analysis(entry.bracket(t=t))
                for exp in entry.expected:
                    r = _check(entry, a, exp)
                    results.append(CheckResult(
                        f"{entry.id}(t={t})", r.name, r.ok, r.detail, r.flagged))
        else:
            a = Analysis(entry.bracket())
            for exp in entry.expected:
                results.append(_check(entry, a, exp))
    return RegressionReport(tuple(results))
