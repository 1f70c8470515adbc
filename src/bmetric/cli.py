"""Command-line front end: reproducible analysis runs with JSON reports.

Exit codes: 0 = certified success, 1 = usage/structural/precondition error
or an allocation that ran out of memory, 2 = a certified inequality failed on
this instance (a falsification finding, kept distinct from ordinary errors on
purpose).  An internal error is never 2.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

from . import __version__
from .certify import CertificateViolation
from .constants import constants_report
from .doubling import (
    DOUBLING_EXACT_LIMIT,
    WEAK_EXACT_CAP,
    doubling_constant,
    sandwich_doubling_check,
    snowflake_doubling_check,
    weak_doubling_constant,
)
from .embed import assouad_embed, bmetric_assouad_pipeline, converse_bound
from .remetrize import chain_metric, epsilon_remetrize, frink_verify
from .spaces import FAMILIES, SemimetricSpace, StructuralError, validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract reserves
    # 2 for certified bound violations, so usage errors map to 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _read_space(path: str) -> SemimetricSpace:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        space = SemimetricSpace.from_csv(text)
    else:
        space = SemimetricSpace.from_json(text)
    report = validate(space)
    if not report.ok:
        bad = report.s1_witness if not report.s1_ok else report.s2_witness
        raise StructuralError(f"input is not a semimetric space (witness pair {bad})")
    return space


def _manifest(args, command: str, parameters: dict) -> dict:
    manifest = {
        "command": command,
        "input": getattr(args, "in_path", None),
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "out": getattr(args, "out", None),
    }
    if command == "generate":
        manifest["space_out"] = args.space_out
    return manifest


def _dump(payload: dict, f) -> None:
    # encoded chunk by chunk into f: no whole-document string is built
    json.dump(payload, f, sort_keys=True, indent=2)
    f.write("\n")


def _emit(args, payload: dict) -> None:
    if args.out:
        with open(args.out, "w") as f:
            _dump(payload, f)
        if not args.quiet:
            print(args.out)
    elif not args.quiet:
        _dump(payload, sys.stdout)


def _write_space(space: SemimetricSpace, path: str) -> None:
    """Write space to path in the format that _read_space reads back from it."""
    with open(path, "w") as f:
        if path.endswith(".csv"):
            f.write(space.to_csv())
        else:
            f.writelines(space._json_chunks())
            f.write("\n")


def _read_flags(args, option: str, names, reads) -> dict:
    """The flags among names that args sets.  Each must be in reads, the
    parameters of what --option chose: a flag it does not read is an error."""
    flags = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    unread = [k for k in flags if k not in reads]
    if unread:
        raise ValueError(f"--{option} {getattr(args, option)} does not read "
                         f"--{unread[0].replace('_', '-')}")
    return flags


GENERATE_FLAGS = ("n", "m", "K", "k", "p", "dim", "seed")


# Each cmd_* function returns (parameters, report): the parameters its
# manifest records and its report.  main writes both, and exits 2 when the
# report says a claim does not hold.
def cmd_generate(args) -> tuple[dict, dict]:
    make = FAMILIES[args.family]
    reads = inspect.signature(make).parameters
    params = _read_flags(args, "family", GENERATE_FLAGS, reads)
    for name, param in reads.items():
        if param.default is param.empty and name not in params:
            raise ValueError(f"family {args.family!r} is missing parameter {name!r}")
    space = make(**params)
    _write_space(space, args.space_out)
    return params, {"points": space.n, "family": args.family}


def cmd_constants(args) -> tuple[dict, dict]:
    space = _read_space(args.in_path)
    return {}, constants_report(space).to_dict()


def cmd_remetrize(args) -> tuple[dict, dict]:
    space = _read_space(args.in_path)
    if args.eps is None:
        rem = chain_metric(space)
    else:
        rem = epsilon_remetrize(space, args.eps)
    if args.matrix_out:
        _write_space(space.with_dist(rem.D), args.matrix_out)
    return {"eps": args.eps}, rem.to_dict()


def cmd_doubling(args) -> tuple[dict, dict]:
    space = _read_space(args.in_path)
    report: dict = {"doubling": doubling_constant(space, args.exact_max).to_dict()}
    if args.weak:
        report["weak"] = weak_doubling_constant(space, args.exact_max).to_dict()
    return {"exact_max": args.exact_max, "weak": args.weak}, report


def cmd_embed(args) -> tuple[dict, dict]:
    space = _read_space(args.in_path)
    emb = assouad_embed(space, args.alpha)
    if args.coords_out:
        Path(args.coords_out).write_text(emb.coords_csv())
    report = emb.to_dict()
    return report["config"], report


def cmd_pipeline(args) -> tuple[dict, dict]:
    space = _read_space(args.in_path)
    result = bmetric_assouad_pipeline(space, args.alpha)
    return {"alpha": args.alpha}, result.to_dict()


def _epsilon(space, *, eps=1.0):
    rem = epsilon_remetrize(space, eps)
    return {"holds": True, "p": rem.p, "eps": eps, "sandwich_hi": rem.sandwich_hi}


def _sandwich_doubling(space, *, exact_max=DOUBLING_EXACT_LIMIT):
    rem = chain_metric(space)
    alpha = rem.sandwich_hi
    check = sandwich_doubling_check(space, space.with_dist(rem.D), alpha, exact_max)
    return check.to_dict() | {"alpha": alpha}


def _converse(space, *, alpha=0.75):
    result = bmetric_assouad_pipeline(space, alpha)
    return converse_bound(space, result.norms, result.alpha_prime).to_dict()


# Each claim of `verify --theorem` maps to a function of the space that returns
# the report fields, "holds" among them.  Its keyword-only parameters, with
# their defaults, are the only flags that claim reads.  The sandwich claims 2.2
# and 4.3 hold once their remetrization exists, which certifies itself.
THEOREMS = {
    "2.1": lambda space: frink_verify(space).to_dict(),
    "2.2": _epsilon,
    "3.3": lambda space, *, p=0.5, exact_max=DOUBLING_EXACT_LIMIT:
        snowflake_doubling_check(space, p, exact_max).to_dict(),
    "3.4": _sandwich_doubling,
    "3.5": lambda space, *, alpha=0.75:
        {"holds": True} | bmetric_assouad_pipeline(space, alpha).to_dict(),
    "4.1": _converse,
    "4.3": lambda space: {"holds": True, "c": chain_metric(space).sandwich_hi},
}
VERIFY_FLAGS = ("eps", "p", "alpha", "exact_max")


def cmd_verify(args) -> tuple[dict, dict]:
    check = THEOREMS[args.theorem]
    flags = _read_flags(args, "theorem", VERIFY_FLAGS, check.__kwdefaults__ or {})
    space = _read_space(args.in_path)
    try:
        report = check(space, **flags)
    except CertificateViolation as exc:
        report = {"holds": False, "detail": str(exc)}
    return {"theorem": args.theorem}, {"theorem": args.theorem, **report}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and it holds no input or result."""
    parser = _Parser(prog="bmetric", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--quiet", action="store_true")

    g = sub.add_parser("generate", help="write a generated space to a file")
    g.add_argument("--family", required=True, choices=tuple(FAMILIES))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--K", type=float)
    g.add_argument("--k", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--dim", type=int)
    g.add_argument("--space-out", required=True,
                   help="path for the generated space file: CSV if it ends in .csv, else JSON")
    g.add_argument("--seed", type=int, default=None)
    common(g)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("constants", help="relaxation and polygonal constants")
    c.add_argument("in_path")
    common(c)
    c.set_defaults(func=cmd_constants)

    r = sub.add_parser("remetrize", help="chain metric, optionally with a snowflake exponent")
    r.add_argument("in_path")
    r.add_argument("--eps", type=float, default=None,
                   help="search for p with a (1+eps) sandwich; omit for the plain chain metric")
    r.add_argument("--matrix-out", default=None,
                   help="write the metric matrix as a space file: CSV if the path ends in .csv, "
                        "else JSON")
    common(r)
    r.set_defaults(func=cmd_remetrize)

    db = sub.add_parser("doubling", help="doubling constant (and optionally the weak analog)")
    db.add_argument("in_path")
    db.add_argument("--exact-max", type=int, default=DOUBLING_EXACT_LIMIT,
                    help="solve covers of target balls with at most this many points exactly; "
                         "bracket larger ones")
    db.add_argument("--weak", action="store_true",
                    help="also the weak doubling constant: exact when the space has at most "
                         f"min(--exact-max, {WEAK_EXACT_CAP}) points, otherwise a bracket from "
                         "sampled subsets of at most that many points")
    common(db)
    db.set_defaults(func=cmd_doubling)

    e = sub.add_parser("embed", help="snowflake embedding of a metric space into R^N")
    e.add_argument("in_path")
    e.add_argument("--alpha", type=float, required=True, help="in the open interval (0, 1)")
    e.add_argument("--coords-out", default=None, help="write coordinates as CSV")
    common(e)
    e.set_defaults(func=cmd_embed)

    pl = sub.add_parser("pipeline", help="remetrize then embed an arbitrary semimetric space")
    pl.add_argument("in_path")
    pl.add_argument("--alpha", type=float, required=True, help="in the open interval (0, 1)")
    common(pl)
    pl.set_defaults(func=cmd_pipeline)

    v = sub.add_parser("verify", help="certify one of the toolkit's supported claims")
    v.add_argument("in_path")
    v.add_argument("--theorem", required=True, choices=tuple(THEOREMS), help="claim identifier")
    v.add_argument("--eps", type=float,
                   help="read by --theorem 2.2 only: the target of the (1+eps) sandwich")
    v.add_argument("--p", type=float, help="read by --theorem 3.3 only: the snowflake power")
    v.add_argument("--alpha", type=float,
                   help="read by --theorem 3.5 and 4.1 only: the embedding exponent")
    v.add_argument("--exact-max", type=int,
                   help="exact-cover limit of both doubling constants in --theorem 3.3 and 3.4, "
                        "the only claims that read it: solve covers of target balls with at most "
                        "this many points exactly; bracket larger ones")
    common(v)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        parameters, report = args.func(args)
        _emit(args, {"manifest": _manifest(args, args.command, parameters), "report": report})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""  # numpy names the allocation that failed
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_ERROR
    except CertificateViolation as exc:
        print(f"falsification finding: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK if report.get("holds", True) else EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
