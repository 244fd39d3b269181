"""Command-line front end: compute, verify, sweep, structure, identity.

Exit codes: 0 success (all unique/corrected variants matched where that
applies), 1 verification mismatch (VariantResult.failed; compute also prints
one "error:" line per failed variant), 2 usage error, 3 closed-form request
for an off-family ring, 4 I/O failure.  Every compute, verify and sweep
output is read off the CaseResults of verify_case.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import closed_forms as cf
from . import verify as vf
from .graphs import (
    DEFAULT_CEILING,
    TOTAL,
    UNIT,
    predicted_degrees,
    row_source,
    write_edge_list,
)
from .rings import TruncatedPolyRing, ZnRing, z_prime_power

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_OFF_FAMILY = 3
EXIT_IO = 4


class OffFamilyError(Exception):
    pass


# Each ring kind: the flags it takes, in its constructor's order, the
# constructor, and whether it is a local-ring entry point (zppow and fpxk)
# or uses the modulus-family formulas (zn).
_RING_KINDS = {
    "zn": (("n",), ZnRing, False),
    "zppow": (("p", "alpha"), z_prime_power, True),
    "fpxk": (("p", "k"), TruncatedPolyRing, True),
}
_RING_FLAGS = ("n", "p", "alpha", "k")


def _add_ring_flags(parser, required=True):
    parser.add_argument("--ring", choices=tuple(_RING_KINDS), required=required,
                        help="ring kind: Z_n, Z_{p^alpha}, or F_p[x]/(x^k)")
    parser.add_argument("--n", type=int, help="modulus for --ring zn")
    parser.add_argument("--p", type=int, help="prime for zppow/fpxk")
    parser.add_argument("--alpha", type=int, help="exponent for zppow")
    parser.add_argument("--k", type=int, help="truncation degree for fpxk")


def _given(args, names) -> list[str]:
    """The flags among names that were given on the command line."""
    return [f"--{name}" for name in names if getattr(args, name) is not None]


def _build_ring(args):
    """Returns (ring, use_local_forms).  A flag of another ring kind is a
    usage error, not ignored."""
    flags, make, use_local = _RING_KINDS[args.ring]
    if any(getattr(args, name) is None for name in flags):
        raise ValueError(f"--ring {args.ring} requires "
                         + " and ".join(f"--{name}" for name in flags))
    stray = _given(args, (name for name in _RING_FLAGS if name not in flags))
    if stray:
        raise ValueError(f"--ring {args.ring} does not take {', '.join(stray)}")
    return make(*(getattr(args, name) for name in flags)), use_local


def _kinds(arg: str):
    return {"total": (TOTAL,), "unit": (UNIT,), "both": (TOTAL, UNIT)}[arg]


# ----------------------------------------------------------------------
# compute

def _compute_text(payload: dict) -> str:
    """The text form of a compute result, read off its JSON payload."""
    lines = [f"ring = {payload['ring']}", f"graph = {payload['graph']}"]
    if "family" in payload:
        lines.append(f"family = {payload['family']}")
    lines.append("degrees: zero={zero} unit={unit}".format(**payload["degrees"]))
    if "partition" in payload:
        lines.append(
            "partition: alpha={alpha} beta={beta} gamma={gamma} edges={edges}".format(
                **payload["partition"]
            )
        )
    for side in ("oracle", "closed"):
        if f"{side}_exact" in payload:
            lines.append(f"{side} = {payload[side + '_exact']}")
        if f"{side}_float" in payload:
            lines.append(f"{side}_float = {payload[side + '_float']:.12g}")
    if "match" in payload:
        lines.append(f"match = {'true' if payload['match'] else 'false'}")
    return "\n".join(lines)


def cmd_compute(args) -> int:
    ring, use_local = _build_ring(args)
    # The oracle runs in oracle and both modes, and in closed mode to check a
    # printed form within the ceiling (not for csv, which closed mode refuses).
    case = None
    if args.mode != "closed" or (
        args.variant == cf.PRINTED and ring.order <= args.ceiling and args.format != "csv"
    ):
        case = vf.verify_case(ring, args.graph, use_local_forms=use_local,
                              ceiling=args.ceiling)
        forms = case.variants  # a VariantResult starts with the ring_forms triple
    else:
        _, forms = cf.ring_forms(ring, args.graph, use_local)

    # the form shown: a ring has either one unique form or a corrected/printed pair
    shown = None
    if args.mode != "oracle":
        shown = next((f for f in forms if f[0] in (args.variant, cf.UNIQUE)), None)
        if shown is None:
            raise OffFamilyError(
                f"{ring.name} is outside every closed-form family; use --mode oracle"
            )
    if args.format == "csv" and case is None:
        raise ValueError("--format csv needs the oracle; use --mode both or oracle")

    if args.dump_graph:
        source = row_source(ring, args.graph, ceiling=args.ceiling)
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            write_edge_list(source, fh)

    for v in case.variants if case is not None else ():
        if v.failed:
            print(f"error: the {v.variant} form disagrees with the oracle on {ring.name} "
                  f"({args.graph})", file=sys.stderr)
        elif v is shown and v.variant == cf.PRINTED and not v.match:
            print(f"warning: printed variant disagrees with the oracle on {ring.name} "
                  f"({args.graph}): printed {v.closed_value.render()}, "
                  f"oracle {case.oracle_value.render()}", file=sys.stderr)
    code = EXIT_OK if case is None or case.ok else EXIT_MISMATCH

    if args.format == "csv":  # the sweep row shape for the oracle-backed case
        vf.write_csv_rows(sys.stdout, vf.SWEEP_COLUMNS, vf.sweep_rows([vf.case_record(case)]))
        return code

    d_zero, d_unit = predicted_degrees(ring, args.graph)
    payload = {
        "ring": ring.name,
        "n": ring.order,
        "graph": args.graph,
        "degrees": {"zero": d_zero, "unit": d_unit},
    }
    # closed mode reports the closed form alone, even when the oracle checked it
    sides = {}
    if args.mode == "closed":
        part = shown[2]
    else:
        payload["family"] = case.family
        sides["oracle"], part = case.oracle_value, case.oracle_partition
    if part is not None:
        payload["partition"] = vf.partition_payload(part)
    if shown is not None:
        payload["variant"] = args.variant
        sides["closed"] = shown[1]
    for side, value in sides.items():
        if args.float:
            try:
                payload[f"{side}_float"] = value.to_float()
            except OverflowError:
                raise ValueError(f"the {side} value is beyond the float range; "
                                 "leave out --float for its exact value") from None
        else:
            payload[f"{side}_exact"] = value.render()
    if len(sides) == 2:
        payload["match"] = shown.match
    if args.format == "json":
        vf.write_json(sys.stdout, payload)
    else:
        print(_compute_text(payload))
    return code


# ----------------------------------------------------------------------
# verify / sweep / structure / identity

def _write_report(args, write):
    """write(fh) to --out, or to stdout when --out is absent or "-"; returns
    what write returns."""
    if args.out in (None, "-"):
        return write(sys.stdout)
    with open(args.out, "w", encoding="utf-8") as out:
        return write(out)


def _write_sweep(args, family, max_n, kinds, cases) -> int:
    """The sweep report of cases in --format, built for that format alone
    and written as the cases are read; the exit code is its fold's."""
    ok = _write_report(
        args, lambda fh: vf.write_sweep(fh, args.format, family, max_n, kinds, cases)
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_verify(args) -> int:
    ring, use_local = _build_ring(args)
    kinds = _kinds(args.graph)
    cases = tuple(vf.verify_case(ring, kind, use_local_forms=use_local, ceiling=args.ceiling)
                  for kind in kinds)
    return _write_sweep(args, "single", ring.order, kinds, cases)


def cmd_sweep(args) -> int:
    kinds = _kinds(args.graph)
    # checked here, before --out is opened; the cases run as they are written
    cases = vf.sweep_cases(args.family, args.max_n, kinds, workers=args.workers,
                           ceiling=args.ceiling)
    return _write_sweep(args, args.family, args.max_n, kinds, cases)


def cmd_structure(args) -> int:
    ring_flags = _given(args, ("ring", *_RING_FLAGS))
    if args.max_n is not None and ring_flags:
        raise ValueError("structure takes --max-n or ring flags, not both; "
                         f"got --max-n with {', '.join(ring_flags)}")
    elif args.max_n is not None:
        results = vf.structure_sweep(args.max_n, ceiling=args.ceiling)
    elif args.ring is not None:
        results = [vf.check_structure(_build_ring(args)[0], ceiling=args.ceiling)]
    elif ring_flags:
        verb = "needs" if len(ring_flags) == 1 else "need"
        raise ValueError(f"{', '.join(ring_flags)} {verb} --ring")
    else:
        raise ValueError("structure needs --max-n or ring flags")
    rows = vf.structure_rows(results)
    _write_report(args, lambda fh: vf.write_report(fh, args.format, vf.STRUCTURE_COLUMNS, rows))
    return EXIT_OK if all(r.consistent for r in results) else EXIT_MISMATCH


def cmd_identity(args) -> int:
    results = vf.identity_sweep(args.max_n, args.circulant_max_n)
    rows = [r._asdict() for r in results]
    _write_report(args, lambda fh: vf.write_report(fh, args.format, vf.IDENTITY_COLUMNS, rows))
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


# ----------------------------------------------------------------------

def _read_exact(sub, argv):
    """The Namespace sub.parse_args(argv) makes, read off sub's action table
    when argv is in exact form: exact `--flag value` and `--switch` tokens
    alone, each flag at most once, each value converting and in its
    choices, each required flag given.  None for any other argv, such as
    an abbreviation, `--flag=value`, a repeat, a value starting with "-",
    an unknown token, help, or an action other than plain store or
    store_true.  Reads argparse's private _actions, _option_string_actions
    and _defaults; tests/test_cli.py checks it against argparse's parse."""
    values = {}
    tokens = iter(argv)
    for token in tokens:
        action = sub._option_string_actions.get(token)
        if action is None or action.dest in values:
            return None
        kind = type(action)
        if kind is argparse._StoreTrueAction:
            values[action.dest] = action.const
        elif kind is argparse._StoreAction and action.nargs is None:
            value = next(tokens, "-")  # a missing value reads as "-", refused
            if value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        else:
            return None  # help, or an action that argparse alone reads
    for action in sub._actions:
        if action.dest not in values:
            if action.required:
                return None
            if action.default is not argparse.SUPPRESS:
                values[action.dest] = action.default
    return argparse.Namespace(**{**sub._defaults, **values})


class _Parser(argparse.ArgumentParser):
    """The top-level parser.  parse_args reads a known command's arguments
    in exact form straight off its subparser's action table (_read_exact);
    any other call takes argparse's full two-level parse, which reports
    errors and help as usual.  build_parser sets commands, the subparser
    of each command name."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        sub = self.commands.get(args[0]) if args and namespace is None else None
        parsed = _read_exact(sub, args[1:]) if sub is not None else None
        if parsed is None:
            return super().parse_args(args, namespace)
        parsed.command = args[0]
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on every call; main reuses one through _parser."""
    ceiling_help = ("largest ring order to read, a bound on time (n rows of n bits), not memory "
                    f"(default 2^{DEFAULT_CEILING.bit_length() - 1} = {DEFAULT_CEILING})")
    parser = _Parser(
        prog="ringsombor",
        description="Sombor index of total and unit graphs of finite commutative "
        "rings: exact brute force, closed forms, and cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    parser.commands = sub.choices

    p = sub.add_parser("compute", help="one ring, one graph: oracle and/or closed form")
    _add_ring_flags(p)
    p.add_argument("--graph", choices=(TOTAL, UNIT), required=True)
    p.add_argument("--mode", choices=("oracle", "closed", "both"), default="both")
    p.add_argument("--variant", choices=(cf.PRINTED, cf.CORRECTED), default=cf.CORRECTED)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--float", action="store_true",
                   help="print 12-significant-digit floats instead of exact radical text")
    p.add_argument("--dump-graph", metavar="FILE", help="write a DIMACS-like edge list")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING, help=ceiling_help)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="verify one ring against its closed forms")
    _add_ring_flags(p)
    p.add_argument("--graph", choices=("total", "unit", "both"), default="both")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE", help="report file (default stdout)")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING, help=ceiling_help)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="verify a whole family up to a bound")
    p.add_argument("--family", choices=vf.FAMILIES, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--graph", choices=("total", "unit", "both"), default="total")
    p.add_argument("--workers", type=int, default=1,
                   help=f"worker processes, 1..{vf.MAX_WORKERS} (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING, help=ceiling_help)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("structure", help="degree, duality, and zero-divisor-clique checks")
    p.add_argument("--max-n", type=int, help="check Z_n for all 2 <= n <= max-n")
    _add_ring_flags(p, required=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING, help=ceiling_help)
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("identity", help="complement identity for regular graphs")
    p.add_argument("--max-n", type=int, required=True,
                   help=f"largest n, at most {vf.IDENTITY_MAX_N}")
    p.add_argument("--circulant-max-n", type=int, default=None,
                   help="explicit circulant checks up to this order (default min(max-n, 100))")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_identity)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call uses, built on first use.  parse_args
    keeps no state between calls: each makes a fresh Namespace, and an
    error writes to the sys.stderr of that moment."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except OffFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OFF_FAMILY
    except ValueError as exc:  # usage, ceiling and empty-sweep errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
