"""The four benchmark workloads: seeded request lists with an oracle per request.

A workload is built by ``WORKLOADS[name](nc, seed, tiny)`` from the
imported ``nilcone`` package ``nc``.  It returns one *pass*: a list of
requests that a single client sends one after another.  Each request is
one call into the library's public API (looked up on ``nc`` at call
time, so an outside tracer that rebinds the names sees it) and an oracle
that checks the result and says whether the request was *decided*.

Why each workload exists, and what it runs into, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from algebras import (
    F,
    catalog_sum,
    direct_sum,
    filiform,
    filiform_derivation,
    free_two_step,
    heisenberg,
    positive_scale,
    relabel,
)


class OracleError(Exception):
    """A request returned a result its oracle rejects."""


@dataclass(frozen=True)
class Request:
    kind: str
    label: str
    call: Callable[[], object]
    # Raises OracleError on a wrong result; returns whether it was decided.
    check: Callable[[object], bool]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


# ---------------------------------------------------------------------------
# Oracles shared by the workloads
# ---------------------------------------------------------------------------


def negative_definite(a) -> bool:
    """Exact test by symmetric elimination: every pivot of -A is positive.

    Independent of the library's leading-minor code, which it re-checks.
    """
    m = [[-x for x in row] for row in a]
    n = len(m)
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return True


def round_trip(nc, mu, cert) -> None:
    """serialize -> parse -> verify_certificate must accept the certificate."""
    mu2, cert2 = nc.parse_certificate(nc.serialize_certificate(mu, cert))
    _require(mu2 == mu, "parsed certificate carries another algebra")
    _require(cert2.kind == cert.kind and tuple(cert2.d) == tuple(cert.d),
             "parsed certificate changed kind or derivation")
    ok, why = nc.verify_certificate(mu2, cert2)
    _require(ok, f"verify_certificate rejects the round trip: {why}")


def _decided(nc, verdict) -> bool:
    return verdict.status in (nc.CERTIFIED_RN, nc.CERTIFIED_NOT_RN)


def _check_verdict(nc, mu, want_status, verdict) -> bool:
    if want_status is not None:
        _require(verdict.status == want_status,
                 f"verdict {verdict.status}, expected {want_status}")
    if verdict.status == nc.CERTIFIED_RN:
        round_trip(nc, mu, verdict.certificate)
    return _decided(nc, verdict)


# Calls are module-level functions bound with partial, so that every
# library name is looked up on ``nc`` when the request runs.


def _certify_nilradical(nc, mu):
    return nc.certify_nilradical(mu)


def _certify_derivation(nc, mu, d, budget=None):
    if budget is None:
        return nc.certify_derivation(mu, d)
    return nc.certify_derivation(mu, d, budget=budget)


# ---------------------------------------------------------------------------
# catalog: the paper's own examples
# ---------------------------------------------------------------------------

# Certify rounds per pass.  Three would give the 100 requests a p90 needs;
# five make the single regress a smaller share of the pass and put p90
# inside a cluster of repeated requests.
CATALOG_ROUNDS = 5
CATALOG_TINY = ("heis3", "n4nonice", "dim7-alg1", "ex9")


def _check_nilradical(nc, mu, expected, verdict) -> bool:
    want = expected.get("nilradical-verdict")
    if expected.get("char-nilpotent") is True or expected.get("traceless") is True:
        want = nc.CERTIFIED_NOT_RN
    return _check_verdict(nc, mu, want, verdict)


def _check_listed_derivation(nc, mu, d, expected, verdict) -> bool:
    want = expected.get("certify-derivation")
    if expected.get("necessary-condition-fails") is True:
        want = nc.CERTIFIED_NOT_RN
    if verdict.status == nc.CERTIFIED_NOT_RN:
        _require(not nc.necessary_condition(mu, d)[0],
                 "CertifiedNotRN although the necessary condition holds")
    return _check_verdict(nc, mu, want, verdict)


def _regress(nc, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nc.cli.main(argv)
    return rc, out.getvalue()


def _check_regress(result) -> bool:
    rc, text = result
    lines = text.strip().splitlines()
    _require(rc == 0 and bool(lines) and lines[-1].startswith("PASS"),
             f"catalog regress exit {rc}: {lines[-1] if lines else 'no output'}")
    return False


def catalog(nc, seed: int, tiny: bool = False) -> list[Request]:
    """Every catalog entry (the family at its samples): certify_nilradical,
    certify_derivation on each listed derivation, and one ``catalog regress``.

    Listed derivations with trace <= 0 are skipped: certify_derivation
    rejects them by contract (ValueError), which is not a verdict.
    """
    rng = random.Random(seed)
    ids = CATALOG_TINY if tiny else [i for i, _, _ in nc.catalog_list()]
    one_round = []
    for id_ in ids:
        entry = nc.catalog.catalog_entry(id_)
        expected = {e.name: e.value for e in entry.expected}
        samples = nc.catalog.FAMILY_SAMPLES if entry.params else (None,)
        for t in samples:
            mu = entry.bracket() if t is None else entry.bracket(t=t)
            label = id_ if t is None else f"{id_}(t={t})"
            one_round.append(Request(
                "certify_nilradical", label,
                partial(_certify_nilradical, nc, mu),
                partial(_check_nilradical, nc, mu, expected)))
            for idx, d in enumerate(entry.derivations):
                if sum(d) <= 0:
                    continue
                # Expected verdicts in the catalog refer to the first listed derivation.
                exp = expected if idx == 0 else {}
                one_round.append(Request(
                    "certify_derivation", f"{label} d{idx}",
                    partial(_certify_derivation, nc, mu, d),
                    partial(_check_listed_derivation, nc, mu, d, exp)))
    argv = ["catalog", "regress"] + (["heis3"] if tiny else [])
    requests = [Request("cli.main", " ".join(argv), partial(_regress, nc, argv), _check_regress)]
    for _ in range(1 if tiny else CATALOG_ROUNDS):
        rnd = list(one_round)
        rng.shuffle(rnd)
        requests.extend(rnd)
    return requests


# ---------------------------------------------------------------------------
# scale: generated nice algebras large enough to show growth
# ---------------------------------------------------------------------------

FILIFORM_SIZES = (12, 16, 20)
# The twelve multisets of 2 to 4 nice catalog entries with a positive
# derivation, and the six smallest again (relabelled differently), so that
# a pass holds 25 algebras and 100 requests.
CATALOG_SUMS = (
    ("heis3", "heis3"), ("heis3", "n4nice"), ("n4nice", "n4nice"),
    ("heis3", "heis3", "heis3"), ("heis3", "heis3", "n4nice"),
    ("heis3", "n4nice", "n4nice"), ("n4nice", "n4nice", "n4nice"),
    ("heis3", "heis3", "heis3", "heis3"), ("heis3", "heis3", "heis3", "n4nice"),
    ("heis3", "heis3", "n4nice", "n4nice"), ("heis3", "n4nice", "n4nice", "n4nice"),
    ("n4nice", "n4nice", "n4nice", "n4nice"),
    ("heis3", "heis3"), ("heis3", "n4nice"), ("n4nice", "n4nice"),
    ("heis3", "heis3", "heis3"), ("heis3", "heis3", "n4nice"), ("heis3", "n4nice", "n4nice"),
)


def _jacobi_lcs(nc, mu):
    return nc.check_jacobi(mu), nc.lower_central_series(mu)


def _check_jacobi_lcs(g, result) -> bool:
    (ok, bad), lcs = result
    _require(ok, f"Jacobi fails at {bad}")
    _require(lcs.terminates and tuple(lcs.dims) == g.lcs_dims,
             f"central series {lcs.dims}, expected {g.lcs_dims}")
    return False


def _moment_map(nc, mu):
    return nc.moment_map(mu)


def _check_moment_map(nc, mu, m) -> bool:
    diag = nc.momentricci.moment_diagonal(mu)
    n = mu.dim
    want = tuple(tuple(diag[a] if a == b else F(0) for b in range(n)) for a in range(n))
    _require(tuple(tuple(r) for r in m) == want, "moment map differs from Diag(moment_diagonal)")
    return False


def _extension(nc, mu, d):
    ext = nc.MetricExtension(mu, d, 1, (1,) * mu.dim)
    ric = nc.extension_ricci(ext)
    return ric, nc.is_negative_definite(ric)


def _check_extension(nc, mu, d, result) -> bool:
    """Closed form on a nice basis: the nilpotent block is diagonal,
    |mu|^2/2 * moment_diagonal - tr(D) D (criterion 09 of the test suite)."""
    ric, neg = result
    n = mu.dim
    nsq = sum((v * v for v in mu.constants.values()), F(0))
    diag = nc.momentricci.moment_diagonal(mu)
    trd = sum(d, F(0))
    want = [[F(0)] * (n + 1) for _ in range(n + 1)]
    want[0][0] = -sum((x * x for x in d), F(0))
    for i in range(1, n + 1):
        want[0][i] = want[i][0] = -sum((d[k - 1] * mu.c(i, k, k) for k in range(1, n + 1)), F(0))
        want[i][i] = nsq / 2 * diag[i - 1] - trd * d[i - 1]
    _require(tuple(tuple(r) for r in ric) == tuple(tuple(r) for r in want),
             "extension Ricci differs from the closed form")
    _require(neg == negative_definite(ric), "is_negative_definite disagrees with elimination")
    return False


def scale(nc, seed: int, tiny: bool = False) -> list[Request]:
    """Filiform m_0(n), free 2-step, Heisenberg and sums of nice catalog
    entries, each relabelled by the seed; four requests per algebra."""
    rng = random.Random(seed)
    if tiny:
        gens = [filiform(nc, 6), heisenberg(nc, 2), catalog_sum(nc, ["heis3", "n4nice"])]
    else:
        gens = [filiform(nc, n) for n in FILIFORM_SIZES]
        gens += [free_two_step(nc, 4), free_two_step(nc, 5), heisenberg(nc, 2), heisenberg(nc, 3)]
        gens += [catalog_sum(nc, list(ids)) for ids in CATALOG_SUMS]
    requests = []
    for g in gens:
        g = relabel(nc, g, rng)
        mu, d = g.mu, g.positive_d
        requests += [
            Request("check_jacobi+lower_central_series", g.label,
                    partial(_jacobi_lcs, nc, mu), partial(_check_jacobi_lcs, g)),
            Request("certify_nilradical", g.label,
                    partial(_certify_nilradical, nc, mu),
                    partial(_check_verdict, nc, mu, nc.CERTIFIED_RN)),
            Request("moment_map", g.label,
                    partial(_moment_map, nc, mu),
                    partial(_check_moment_map, nc, mu)),
            Request("extension_ricci+is_negative_definite", g.label,
                    partial(_extension, nc, mu, d), partial(_check_extension, nc, mu, d)),
        ]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# faces: non-nice sums where the face search and the simplex dominate
# ---------------------------------------------------------------------------

FACE_BUDGETS = (512, 4096)
# (summands, derivation directions) per sum; 7 to 12 structure constants.
FACE_SUMS = (
    (("n4nonice", "n5nonice"), 16),
    (("n5nonice", "n5nonice"), 4),
    (("n4nonice", "n4nonice", "n4nonice"), 28),
    (("n4nonice", "n4nonice", "n5nonice"), 4),
    (("n4nonice", "n5nonice", "n5nonice"), 3),
    (("n5nonice", "n5nonice", "n5nonice"), 1),
)
# Directions are drawn once from this fixed stream, so the verdicts and the
# number of face LPs per request are the same for every --seed; the seed
# rescales each derivation (verdicts are scale invariant, the exact
# arithmetic is not) and orders the requests.
FACE_DESIGN_SEED = 2017


def face_directions(nc, mu, count: int, rng: random.Random) -> list[tuple]:
    """Diagonal derivations with positive trace, some entry <= 0, passing
    the necessary condition: the cases only the face search can decide."""
    space = nc.diagonal_derivations(mu)
    out = []
    while len(out) < count:
        d = space.point([rng.randint(-3, 5) for _ in range(space.dim)])
        if sum(d) <= 0 or all(x > 0 for x in d):
            continue
        if nc.necessary_condition(mu, d)[0] and d not in out:
            out.append(d)
    return out


def _check_face_verdict(nc, mu, verdict) -> bool:
    _require(verdict.status != nc.CERTIFIED_NOT_RN,
             "CertifiedNotRN although the necessary condition holds")
    return _check_verdict(nc, mu, None, verdict)


def faces(nc, seed: int, tiny: bool = False) -> list[Request]:
    rng = random.Random(seed)
    sums = FACE_SUMS[:1] if tiny else FACE_SUMS
    requests = []
    for ids, count in sums:
        mu = direct_sum(nc, [nc.catalog_get(i) for i in ids])
        design = random.Random(f"{FACE_DESIGN_SEED}:{'+'.join(ids)}")
        for d in face_directions(nc, mu, 2 if tiny else count, design):
            t = positive_scale(rng)
            d = tuple(t * x for x in d)
            for budget in FACE_BUDGETS:
                requests.append(Request(
                    f"certify_derivation@{budget}", "+".join(ids),
                    partial(_certify_derivation, nc, mu, d, budget),
                    partial(_check_face_verdict, nc, mu)))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# witness: many small exact Ricci / Sylvester evaluations
# ---------------------------------------------------------------------------

WITNESS_BUDGET = 40


def _find_witness(nc, mu, d, cert):
    return nc.find_witness_metric(mu, d, cert, budget=WITNESS_BUDGET)


def _check_witness(nc, mu, d, cert, ext) -> bool:
    if ext is None:
        return False
    _require(ext.mu == mu and tuple(ext.d) == tuple(d), "witness is for another input")
    _require(negative_definite(nc.extension_ricci(ext)),
             "returned metric is not Ricci negative")
    round_trip(nc, mu, dataclasses.replace(cert, witness=ext))
    return True


def witness_inputs(nc, rng: random.Random, tiny: bool = False) -> list[tuple]:
    """(label, bracket, derivation) triples, each with a cone certificate.

    ex9 and m_0(8) at a = 7 are fixed and fail at WITNESS_BUDGET on every
    seed.  The drawn m_0(n) parameters are whole numbers a in [n + 1, n + 4],
    where the search succeeds; nearer the cone boundary it may fail, which
    would make the cost of a pass depend on the seed.
    """
    cat = nc.catalog.catalog_entry
    out = []
    if not tiny:
        out.append(("ex9", cat("ex9").bracket(), cat("ex9").derivations[0]))
        out.append(("m0(8) a=7", filiform(nc, 8).mu, filiform_derivation(8, -1, 7)))
    # Draws per m_0(n), of heis3, of n4nonice, and per dim7 algebra.
    counts = (1, 3, 2, 2) if tiny else (3, 35, 20, 5)
    for n in ((5, 6) if tiny else range(5, 11)):
        # Eight draws of m_0(8): p90 then falls inside that group rather
        # than on the edge between two single requests.
        for _ in range(8 if n == 8 and not tiny else counts[0]):
            a = n + rng.randint(1, 4)
            out.append((f"m0({n}) a={a}", filiform(nc, n).mu, filiform_derivation(n, -1, a)))
    heis3 = nc.catalog_get("heis3")
    for _ in range(counts[1]):
        # For b >= 5 the grid succeeds at once; below, the search takes
        # more steps, and the cost of a pass would follow the draw.
        b = 5 + F(rng.randint(0, 12), 4)
        out.append((f"heis3 b={b}", heis3, (F(-1), b, b - 1)))
    for id_, count in [("n4nonice", counts[2])] + [
            (f"dim7-alg{i}", counts[3]) for i in ((1,) if tiny else (1, 2, 3, 4))]:
        entry = cat(id_)
        mu = entry.bracket()
        for _ in range(count):
            t = F(rng.randint(2, 8), 2)
            out.append((f"{id_} t={t}", mu, tuple(t * x for x in entry.derivations[0])))
    return out


def witness(nc, seed: int, tiny: bool = False) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for label, mu, d in witness_inputs(nc, rng, tiny):
        verdict = nc.certify_derivation(mu, d)
        cert = verdict.certificate
        if cert is None or cert.kind not in ("NiceCone", "DegenerationCone"):
            raise RuntimeError(f"witness input {label} has no cone certificate")
        requests.append(Request("find_witness_metric", label,
                                partial(_find_witness, nc, mu, d, cert),
                                partial(_check_witness, nc, mu, d, cert)))
    rng.shuffle(requests)
    return requests


WORKLOADS = {"catalog": catalog, "scale": scale, "faces": faces, "witness": witness}
