"""Command line interface.

Algebras are given either as a file in the line-based bracket format or
as a built-in catalog id (family parameters via --param t=VALUE).  Exit
codes: 0 verdict produced, 1 input error, 2 internal error (an
invariant violation or any other ValueError), 3 regression failure, 141
stdout closed before all output was written (as by ``| head``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .catalog import (
    catalog_entry,
    catalog_export,
    catalog_get,
    catalog_list,
    run_regression,
)
from .certifier import (
    CERTIFIED_RN,
    certify_derivation,
    certify_nilradical,
    find_witness_metric,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .derivations import INFEASIBLE, Analysis, diagonal_derivations, solve_phi
from .errors import InputError, InvariantViolation, NilconeError, ParseError
from .liecore import (
    LieBracket,
    center,
    check_jacobi,
    is_nice_basis,
    is_nilpotent,
    lower_central_series,
    parse_bracket,
)
from .momentricci import (
    MetricExtension,
    extension_ricci,
    is_negative_definite,
    moment_map,
)
from .linalg import fmt_rational, leading_principal_minors
from .polytope import iter_faces, project_certificate_cone, weight_set

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_REGRESSION = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer killed by a closed pipe


def _fmt_vec(v) -> str:
    return ",".join(map(fmt_rational, v))


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise ParseError(f"parameter must look like name=value, got {p!r}")
        name, _, val = p.partition("=")
        try:
            out[name] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad parameter value {val!r}")
    return out


def _read_input(path: str) -> str:
    """The text of an input file; a file that cannot be read is an input fault."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc


def load_algebra(spec: str, params: list[str]) -> LieBracket:
    if os.path.exists(spec):
        return parse_bracket(_read_input(spec))
    return catalog_get(spec, **_parse_params(params))


def _parse_vec(text: str, n: int, what: str):
    try:
        v = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {what} {text!r}")
    if len(v) != n:
        raise ParseError(f"{what} needs {n} entries, got {len(v)}")
    return v


class Printer:
    def __init__(self, fmt: str):
        self.kv = fmt == "kv"

    def emit(self, key: str, value):
        if self.kv:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")

    def raw(self, text: str):
        print(text)

    def matrix(self, key: str, m):
        if self.kv:
            for i, row in enumerate(m):
                print(f"{key}.{i}=" + _fmt_vec(row))
        else:
            print(f"{key}:")
            for row in m:
                print("  " + "  ".join(map(fmt_rational, row)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    ok, bad = check_jacobi(mu)
    out.emit("dim", mu.dim)
    out.emit("jacobi", ok)
    if not ok:
        out.emit("jacobi-violation", ",".join(map(str, bad)))
        return EXIT_OK
    lcs = lower_central_series(mu)
    out.emit("nilpotent", lcs.terminates)
    out.emit("lower-central-series", ",".join(map(str, lcs.dims)))
    if lcs.terminates:
        out.emit("nilpotency-class", lcs.nilpotency_class)
    out.emit("center-dim", len(center(mu)))
    return EXIT_OK


def cmd_der(args, out: Printer) -> int:
    a = Analysis(load_algebra(args.algebra, args.param))
    out.emit("der-dim", len(a.der))
    out.emit("diagonal-dim", a.dspace.dim)
    for i, v in enumerate(a.dspace.basis):
        out.emit(f"diagonal-basis.{i}", _fmt_vec(v))
    out.emit("traceless", a.traceless)
    engel = a.engel
    out.emit("characteristically-nilpotent", engel.is_nilpotent)
    if not engel.is_nilpotent and engel.witness_stage is not None:
        out.emit("engel-witness-stage", engel.witness_stage)
    phi = solve_phi(a)
    if phi == INFEASIBLE:
        out.emit("phi-diagonal", "infeasible")
    else:
        out.emit("phi-diagonal", _fmt_vec(phi))
    return EXIT_OK


def cmd_nice(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    out.emit("nice", is_nice_basis(mu.keys()))
    return EXIT_OK


def cmd_weights(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    w = weight_set(mu)
    out.emit("count", len(w))
    for (i, j, k), vec in w.items():
        out.emit(f"weight.{i}.{j}.{k}", _fmt_vec(vec))
    return EXIT_OK


def cmd_cone(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    dsp = diagonal_derivations(mu)
    if dsp.dim == 0:
        out.emit("cone", "empty (no diagonal derivations)")
        return EXIT_OK
    cone = project_certificate_cone(weight_set(mu), dsp)
    out.emit("parameters", dsp.dim)
    for i, v in enumerate(dsp.basis):
        out.emit(f"parameter-direction.{i}", _fmt_vec(v))
    out.emit("empty", cone.empty)
    for row in cone.inequalities:
        terms = []
        for i, c in enumerate(row):
            if c:
                coeff = "" if c == 1 else ("-" if c == -1 else str(c))
                terms.append(f"{'+' if c > 0 and terms else ''}{coeff}d{i + 1}")
        out.emit("inequality", "".join(terms) + " > 0")
    return EXIT_OK


def cmd_degenerate(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    faces = list(iter_faces(mu, args.budget))
    complete = None not in faces
    if not complete:
        faces.pop()
    # the walk tests each of the 2^m - 1 candidate subsets until the budget is spent
    out.emit("tested", 2 ** len(mu.keys()) - 1 if complete else args.budget)
    out.emit("complete", complete)
    out.emit("faces", len(faces))
    for i, (j_set, alpha, _) in enumerate(faces):
        out.emit(f"face.{i}.kept", ";".join(",".join(map(str, k)) for k in sorted(j_set)))
        out.emit(f"face.{i}.alpha", _fmt_vec(alpha))
        out.emit(f"face.{i}.nice", is_nice_basis(j_set))
    return EXIT_OK


def cmd_momentmap(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    if args.h:
        h = _parse_vec(args.h, mu.dim, "h")
        if any(x <= 0 for x in h):
            raise ParseError("h entries must be positive")
        mu = mu.diagonal_act(h)
    if mu.is_zero():
        raise ParseError("moment map is undefined at the zero bracket")
    out.matrix("moment-map", moment_map(mu))
    return EXIT_OK


def cmd_ricci(args, out: Printer) -> int:
    mu = load_algebra(args.algebra, args.param)
    d = _parse_vec(args.derivation, mu.dim, "derivation")
    s = _parse_vec(args.scale, 1, "scale")[0]
    h = _parse_vec(args.h, mu.dim, "h") if args.h else (Fraction(1),) * mu.dim
    ext = MetricExtension(mu, d, s, h)
    ric = extension_ricci(ext)
    out.matrix("ricci", ric)
    minors = leading_principal_minors(ric)
    out.emit("leading-minors", _fmt_vec(minors))
    out.emit("negative-definite", is_negative_definite(ric))
    return EXIT_OK


def _unsupported(mu: LieBracket) -> str | None:
    """Why the theory behind a verdict does not cover mu, or None.

    Verdicts, witnesses and certificates speak of nilpotent Lie algebras,
    so ``certify``, ``witness`` and ``verify`` refuse a bracket that fails
    Jacobi or is not nilpotent; the other commands describe any bracket.
    """
    ok, bad = check_jacobi(mu)
    if not ok:
        return "bracket fails the Jacobi identity at " + ",".join(map(str, bad))
    if not is_nilpotent(mu):
        return "algebra is not nilpotent"
    return None


def _load_nilpotent(args) -> LieBracket:
    mu = load_algebra(args.algebra, args.param)
    why = _unsupported(mu)
    if why:
        raise InputError(why)
    return mu


def _print_verdict(mu, verdict, out: Printer):
    out.emit("status", verdict.status)
    out.emit("scope", verdict.scope)
    if verdict.d is not None:
        out.emit("derivation", _fmt_vec(verdict.d))
    if verdict.obstruction:
        out.emit("obstruction", verdict.obstruction)
    if verdict.notes:
        out.emit("notes", verdict.notes)
    if verdict.certificate is not None:
        out.emit("certificate-kind", verdict.certificate.kind)
        out.raw(serialize_certificate(mu, verdict.certificate).rstrip())


def cmd_certify(args, out: Printer) -> int:
    mu = _load_nilpotent(args)
    if args.derivation:
        d = _parse_vec(args.derivation, mu.dim, "derivation")
        verdict = certify_derivation(mu, d, budget=args.budget)
    else:
        verdict = certify_nilradical(mu, budget=args.budget)
    if args.witness and verdict.status == CERTIFIED_RN:
        cert = verdict.certificate
        verdict = replace(verdict, certificate=replace(
            cert, witness=find_witness_metric(mu, cert.d, cert)))
    _print_verdict(mu, verdict, out)
    return EXIT_OK


def cmd_verify(args, out: Printer) -> int:
    mu, cert = parse_certificate(_read_input(args.certificate))
    reason = _unsupported(mu)
    ok = reason is None
    if ok:
        ok, reason = verify_certificate(mu, cert)
    out.emit("valid", ok)
    out.emit("reason", reason)
    return EXIT_OK if ok else EXIT_INPUT


def cmd_witness(args, out: Printer) -> int:
    mu = _load_nilpotent(args)
    d = _parse_vec(args.derivation, mu.dim, "derivation")
    verdict = certify_derivation(mu, d, budget=args.budget)
    if verdict.status != CERTIFIED_RN:
        out.emit("status", verdict.status)
        out.emit("notes", "a witness metric needs a CertifiedRN verdict for this derivation")
        return EXIT_OK
    ext = find_witness_metric(mu, d, verdict.certificate)
    if ext is None:
        out.emit("found", False)
        out.emit("notes", "no rounded metric passed the exact test; the certificate still holds")
        return EXIT_OK
    out.emit("found", True)
    out.emit("scale", fmt_rational(ext.s))
    out.emit("h", _fmt_vec(ext.h))
    ric = extension_ricci(ext)
    out.matrix("ricci", ric)
    out.emit("negative-definite", is_negative_definite(ric))
    return EXIT_OK


def cmd_catalog(args, out: Printer) -> int:
    if args.action == "list":
        for id_, dim, summary in catalog_list():
            out.emit(id_, f"dim {dim}: {summary}")
        return EXIT_OK
    if args.action == "show":
        entry = catalog_entry(args.id)
        out.emit("id", entry.id)
        out.emit("dim", entry.dim)
        out.emit("summary", entry.summary)
        if entry.params:
            out.emit("parameters", ",".join(entry.params))
        if entry.notes:
            out.emit("notes", entry.notes)
        for i, d in enumerate(entry.derivations):
            out.emit(f"derivation.{i}", _fmt_vec(d))
        for exp in entry.expected:
            out.emit(f"expected.{exp.name}", f"{exp.value!r} [{exp.tag}]")
        return EXIT_OK
    if args.action == "export":
        out.raw(catalog_export(args.id, **_parse_params(args.param)).rstrip())
        return EXIT_OK
    if args.action == "regress":
        report = run_regression(args.id_list or None)
        for line in report.lines():
            out.raw(line)
        return EXIT_OK if report.ok else EXIT_REGRESSION
    raise ParseError(f"unknown catalog action {args.action!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_algebra_arg(p):
    p.add_argument("algebra", help="bracket file or catalog id")
    p.add_argument("--param", action="append", default=[],
                   help="family parameter, e.g. t=1/2 (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcone",
        description="exact certificates for Ricci negative derivations "
        "of nilpotent Lie algebras",
    )
    parser.add_argument("--format", choices=("text", "kv"), default="text")
    parser.add_argument("--budget", type=int, default=4096,
                        help="nice face subsets tested (degenerate: every subset)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
        ("check", cmd_check, "Jacobi, nilpotency, central series, center"),
        ("der", cmd_der, "derivation algebra and diagonal derivations"),
        ("nice", cmd_nice, "nice-basis test"),
        ("weights", cmd_weights, "weight vectors of the nonzero constants"),
        ("cone", cmd_cone,
         "cone of the full weight hull in derivation parameters; certified on a nice basis"),
        ("degenerate", cmd_degenerate, "face degenerations of the weight hull"),
        ("momentmap", cmd_momentmap, "exact moment-map matrix"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_algebra_arg(p)
        if name == "momentmap":
            p.add_argument("--h", help="positive diagonal h1,...,hn")
        p.set_defaults(fn=fn)

    p = sub.add_parser("ricci", help="Ricci matrix of the one-dimensional extension")
    _add_algebra_arg(p)
    p.add_argument("--derivation", required=True, help="d1,...,dn")
    p.add_argument("--scale", default="1")
    p.add_argument("--h", help="positive diagonal h1,...,hn")
    p.set_defaults(fn=cmd_ricci)

    p = sub.add_parser("certify", help="verdict pipeline with certificate output")
    _add_algebra_arg(p)
    p.add_argument("--derivation", help="certify this diagonal derivation")
    p.add_argument("--witness", action="store_true",
                   help="also build an explicit metric")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="re-check a stored certificate file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("witness", help="explicit negative-Ricci metric from the certificate")
    _add_algebra_arg(p)
    p.add_argument("--derivation", required=True, help="d1,...,dn")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("catalog", help="built-in example library")
    p.add_argument("action", choices=("list", "show", "export", "regress"))
    p.add_argument("id", nargs="?")
    p.add_argument("id_list", nargs="*")
    p.add_argument("--param", action="append", default=[])
    p.set_defaults(fn=cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call of ``main`` rather than at
    import, and kept: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "catalog" and args.action in ("show", "export") and not args.id:
        print("error: catalog action needs an id", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "catalog" and args.action == "regress":
        args.id_list = ([args.id] if args.id else []) + list(args.id_list)
    out = Printer(args.format)
    try:
        code = args.fn(args, out)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull, or the flush at interpreter exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NilconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # input faults raise InputError, so this is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
