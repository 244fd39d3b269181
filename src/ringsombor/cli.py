"""Command-line front end: compute, verify, sweep, structure, identity.

Exit codes: 0 success (all unique/corrected variants matched where that
applies), 1 verification mismatch (VariantResult.failed; compute also prints
one "error:" line per failed variant), 2 usage error, 3 closed-form request
for an off-family ring, 4 I/O failure.  Every compute, verify and sweep
output is read off the CaseResults of verify_case.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from types import SimpleNamespace

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
    else:  # the shown variant alone, of a pair
        _, forms = cf.ring_forms(ring, args.graph, use_local, pair=(args.variant,))

    # the form shown: a ring has either one unique form or a corrected/printed
    # pair, of which the closed path evaluates only the variant it shows
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


def _write_checks(args, columns, results, verdict: str, record) -> int:
    """The structure or identity report of results in --format, a row written
    as each result is read; exit 1 if any result's verdict attribute is false."""
    failed = 0

    def rows():
        nonlocal failed
        for result in results:
            failed += not getattr(result, verdict)
            yield record(result)

    _write_report(args, lambda fh: vf.write_report(fh, args.format, columns, rows()))
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_structure(args) -> int:
    ring_flags = _given(args, ("ring", *_RING_FLAGS))
    if args.max_n is not None and ring_flags:
        raise ValueError("structure takes --max-n or ring flags, not both; "
                         f"got --max-n with {', '.join(ring_flags)}")
    elif args.max_n is not None:
        # checked here, before --out is opened; the rings run as they are written
        results = vf.structure_cases(args.max_n, ceiling=args.ceiling)
    elif args.ring is not None:
        results = [vf.check_structure(_build_ring(args)[0], ceiling=args.ceiling)]
    elif ring_flags:
        verb = "needs" if len(ring_flags) == 1 else "need"
        raise ValueError(f"{', '.join(ring_flags)} {verb} --ring")
    else:
        raise ValueError("structure needs --max-n or ring flags")
    return _write_checks(args, vf.STRUCTURE_COLUMNS, results, "consistent", vf.structure_record)


def cmd_identity(args) -> int:
    results = vf.identity_cases(args.max_n, args.circulant_max_n)
    return _write_checks(args, vf.IDENTITY_COLUMNS, results, "ok", vf.IdentityCase._asdict)


# ----------------------------------------------------------------------
# The flag schema: each command once, as data.  build_parser declares it to
# argparse, and _read_exact reads an exact-form argv straight off it.

class _Flag(namedtuple("_Flag", "option type choices default required switch metavar help",
                       defaults=(None, None, None, False, False, None, None))):
    """One flag: a `--switch` (store true) or a `--flag value` of type
    (str when None) among choices (any when None)."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.option[2:].replace("-", "_")


# flags: option -> _Flag, in order; defaults: dest -> default, for every flag;
# required: the dests of the required flags
_Command = namedtuple("_Command", "help fn flags defaults required")

_CEILING = _Flag("--ceiling", int, default=DEFAULT_CEILING, help=(
    "largest ring order to read, a bound on time (n rows of n bits), not memory "
    f"(default 2^{DEFAULT_CEILING.bit_length() - 1} = {DEFAULT_CEILING})"))
_REPORT_FORMAT = _Flag("--format", choices=("csv", "json"), default="csv")
_OUT = _Flag("--out", metavar="FILE")
_GRAPHS = _Flag("--graph", choices=("total", "unit", "both"), default="both")


def _ring_flags(required=True) -> tuple[_Flag, ...]:
    return (
        _Flag("--ring", choices=tuple(_RING_KINDS), required=required,
              help="ring kind: Z_n, Z_{p^alpha}, or F_p[x]/(x^k)"),
        _Flag("--n", int, help="modulus for --ring zn"),
        _Flag("--p", int, help="prime for zppow/fpxk"),
        _Flag("--alpha", int, help="exponent for zppow"),
        _Flag("--k", int, help="truncation degree for fpxk"),
    )


def _command(help, fn, *flags) -> _Command:
    return _Command(help, fn, {flag.option: flag for flag in flags},
                    {flag.dest: flag.default for flag in flags},
                    frozenset(flag.dest for flag in flags if flag.required))


_COMMANDS = {
    "compute": _command(
        "one ring, one graph: oracle and/or closed form", cmd_compute,
        *_ring_flags(),
        _Flag("--graph", choices=(TOTAL, UNIT), required=True),
        _Flag("--mode", choices=("oracle", "closed", "both"), default="both"),
        _Flag("--variant", choices=(cf.PRINTED, cf.CORRECTED), default=cf.CORRECTED),
        _Flag("--format", choices=("text", "json", "csv"), default="text"),
        _Flag("--float", switch=True, default=False,
              help="print 12-significant-digit floats instead of exact radical text"),
        _Flag("--dump-graph", metavar="FILE", help="write a DIMACS-like edge list"),
        _CEILING,
    ),
    "verify": _command(
        "verify one ring against its closed forms", cmd_verify,
        *_ring_flags(),
        _GRAPHS,
        _REPORT_FORMAT,
        _OUT._replace(help="report file (default stdout)"),
        _CEILING,
    ),
    "sweep": _command(
        "verify a whole family up to a bound", cmd_sweep,
        _Flag("--family", choices=vf.FAMILIES, required=True),
        _Flag("--max-n", int, required=True),
        _GRAPHS._replace(default="total"),
        _Flag("--workers", int, default=1,
              help=f"worker processes, 1..{vf.MAX_WORKERS} (default 1)"),
        _REPORT_FORMAT,
        _OUT,
        _CEILING,
    ),
    "structure": _command(
        "degree, duality, and zero-divisor-clique checks", cmd_structure,
        _Flag("--max-n", int, help="check Z_n for all 2 <= n <= max-n"),
        *_ring_flags(required=False),
        _REPORT_FORMAT,
        _OUT,
        _CEILING,
    ),
    "identity": _command(
        "complement identity for regular graphs", cmd_identity,
        _Flag("--max-n", int, required=True, help=f"largest n, at most {vf.IDENTITY_MAX_N}"),
        _Flag("--circulant-max-n", int,
              help="explicit circulant checks up to this order (default min(max-n, 100))"),
        _REPORT_FORMAT,
        _OUT,
    ),
}


def _read_exact(argv):
    """The namespace the full parse of argv makes, with the same vars(),
    read off _COMMANDS when argv is in exact form: a known command, then
    exact `--flag value` and `--switch` tokens alone, each flag at most
    once, each value converting to its type and among its choices, and
    each required flag given.  None for any other argv, such as an
    abbreviation, `--flag=value`, a repeat, a value starting with "-", an
    unknown token or help, all of which argparse reads or reports."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = command.flags.get(token)
        if flag is None or (dest := flag.dest) in values:
            return None
        if flag.switch:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as "-", refused
        if value.startswith("-"):
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except ValueError:
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[dest] = value
    if not command.required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], fn=command.fn, **{**command.defaults, **values})


def build_parser():
    """A fresh argparse parser declared from _COMMANDS on every call; main
    builds one for each argv that _read_exact leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ringsombor",
        description="Sombor index of total and unit graphs of finite commutative "
        "rings: exact brute force, closed forms, and cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags.values():
            if flag.switch:
                p.add_argument(flag.option, action="store_true", default=flag.default,
                               help=flag.help)
            else:
                p.add_argument(flag.option, type=flag.type, choices=flag.choices,
                               default=flag.default, required=flag.required,
                               metavar=flag.metavar, help=flag.help)
        p.set_defaults(fn=command.fn)
    return parser


def _parse_args(argv):
    """argv's namespace: read off _COMMANDS when argv is in exact form, else
    parsed by argparse, which exits with its message on an error or help."""
    args = _read_exact(argv)
    return build_parser().parse_args(argv) if args is None else args


def _error(exc: Exception, code: int) -> int:
    """Print exc's error line to stderr and return code.  A stderr that
    cannot take the line, such as a pipe shared with a stdout whose reader
    has gone, leaves the exit code as it is."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except OffFamilyError as exc:
        return _error(exc, EXIT_OFF_FAMILY)
    except ValueError as exc:  # usage, ceiling and empty-sweep errors
        return _error(exc, EXIT_USAGE)
    except OSError as exc:
        return _error(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
