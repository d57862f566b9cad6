"""Command line interface: solve, verify, oracle-suite, wagner-check, parse.

Every run emits one JSON report object with the shape

    {command, inputs{...}, outputs{...},
     checks[{name, pass, value, tolerance}], wall_time_ms}

to stdout (or --output FILE).  Reports are byte-identical across runs with
identical inputs; wall_time_ms is null unless --timing is given, since a
measured time would break that determinism.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 parse or usage error (including a
zero polynomial P, a wagner-check center, width or cutoff out of float
range, and an input, or a solution to print, over a stated size limit), 3
internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .atoms import Delta, MonLog
from .errors import (
    CoordinateConflict,
    DimensionError,
    EulerDistError,
    FloatOverflow,
    InputTooLarge,
    ParseError,
    ZeroPolynomial,
)
from .gausspoly import GaussPoly
from .grammar import check_orders, format_dist, format_poly, parse_dist, parse_poly
from .limits import MAX_SOLUTION_ORDER, MAX_SUITE_N, MAX_SUITE_ORDER
from .oracle import adjoint_check
from .poly import Polynomial
from .solver import solve, verify
from .wagner import WagnerParams, me_check


def _check(name: str, ok: bool, value, tolerance) -> dict:
    return {"name": name, "pass": bool(ok), "value": value, "tolerance": tolerance}


def _report(command: str, inputs: dict, outputs: dict, checks: list[dict]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "checks": checks,
        "wall_time_ms": None,
    }


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) for str-keyed reports, without json's
    pure-Python indenting encoder: that is a set of mutually recursive
    closures, a reference cycle every call would leave to the cyclic garbage
    collector, whose full passes then land inside later calls."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = [
                f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()
            ]
            left, right = "{", "}"
        else:
            items = [_json(v, inner) for v in value]
            left, right = "[", "]"
        return f"{left}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{right}"
    return json.dumps(value)


def _emit(report: dict, args) -> int:
    if args.timing:
        report["wall_time_ms"] = round((time.monotonic() - args._t0) * 1000.0, 3)
    text = _json(report) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["pass"] for c in report["checks"]) else 1


def _fraction_list(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _cmd_solve(args) -> int:
    P = parse_poly(args.P, args.dim)
    T = parse_dist(args.T, args.dim)
    rep = solve(P, T)
    # What solve prints, verify -U reads back.
    check_orders(rep.solution, MAX_SOLUTION_ORDER)
    outputs = {
        "solution": format_dist(rep.solution),
        "verified": rep.verified,
        "escalation_depth": rep.escalation_depth,
        "recursion_trace": [list(map(str, ev)) for ev in rep.recursion_trace],
    }
    checks = [_check("verified", rep.verified, rep.verified, None)]
    return _emit(
        _report("solve", {"P": args.P, "T": args.T, "d": args.dim}, outputs, checks),
        args,
    )


def _cmd_verify(args) -> int:
    P = parse_poly(args.P, args.dim)
    U = parse_dist(args.U, args.dim, MAX_SOLUTION_ORDER)
    T = parse_dist(args.T, args.dim)
    ok = verify(P, U, T)
    checks = [_check("verified", ok, ok, None)]
    return _emit(
        _report(
            "verify",
            {"P": args.P, "U": args.U, "T": args.T, "d": args.dim},
            {"verified": ok},
            checks,
        ),
        args,
    )


def _cmd_oracle_suite(args) -> int:
    suite = [
        GaussPoly.gaussian(1, (Fraction(0),), Fraction(1)),
        GaussPoly.gaussian(1, (Fraction(1, 2),), Fraction(3, 2)),
        GaussPoly(
            Polynomial(1, {(2,): Fraction(1), (0,): Fraction(1)}),
            (Fraction(-1, 3),),
            Fraction(1),
        ),
    ]
    atoms = [Delta(k) for k in range(args.kmax + 1)]
    atoms += [
        MonLog(n, p, s)
        for n in range(-args.nmax, args.nmax + 1)
        for p in range(args.pmax + 1)
        for s in (1, -1)
    ]
    worst = 0.0
    worst_name = ""
    rows = []
    for a in atoms:
        r = max(adjoint_check(a, phi) for phi in suite)
        rows.append({"atom": repr(a), "residual": r})
        if r > worst:
            worst, worst_name = r, repr(a)
    checks = [_check("adjoint_worst", worst <= args.tol, worst, args.tol)]
    outputs = {"worst_atom": worst_name, "rows": rows}
    inputs = {
        "nmax": args.nmax,
        "pmax": args.pmax,
        "kmax": args.kmax,
        "tol": args.tol,
    }
    return _emit(_report("oracle-suite", inputs, outputs, checks), args)


def _cmd_wagner_check(args) -> int:
    P = parse_poly(args.P, args.dim)
    d = P.dim
    N = args.grid if args.grid is not None else 4096 if d == 1 else 512
    center = tuple(Fraction(v) for v in args.center.split(",")) if args.center else (
        Fraction(0),
    ) * d
    if len(center) != d:
        raise DimensionError(f"center has {len(center)} entries for dimension {d}")
    phi = GaussPoly.gaussian(d, center, Fraction(args.width))
    params = WagnerParams.for_polynomial(P)
    residual = me_check(P, params, phi, (N, args.cutoff))
    outputs = {
        "residual": residual,
        "N": N,
        "R": args.cutoff,
        "eta": list(params.eta),
        "lambda": _fraction_list(params.lam),
        "a": _fraction_list(params.a),
    }
    checks = [_check("me_residual", residual <= args.tol, residual, args.tol)]
    inputs = {
        "P": args.P,
        "d": d,
        "center": args.center or ",".join(["0"] * d),
        "width": args.width,
        "grid": N,
        "cutoff": args.cutoff,
    }
    return _emit(_report("wagner-check", inputs, outputs, checks), args)


def _cmd_parse(args) -> int:
    if (args.P is None) == (args.T is None):
        raise DimensionError("parse needs exactly one of -P or -T")
    if args.P is not None:
        key, text, parse, fmt = "P", args.P, parse_poly, format_poly
    else:
        key, text, parse, fmt = "T", args.T, parse_dist, format_dist
    dim = args.dim if args.dim is not None or key == "P" else 1
    value = parse(text, dim)
    canonical = fmt(value)
    # Without -d a polynomial's dimension is its largest t<j>, which the
    # canonical text may no longer name (t2^0, 0*t3): re-parse at value.dim.
    ok = parse(canonical, value.dim) == value
    inputs = {key: text, "d": dim}
    checks = [_check("round_trip", ok, ok, None)]
    return _emit(_report("parse", inputs, {"canonical": canonical}, checks), args)


def _ascii(convert):
    """The option type convert, refusing non-ASCII text: int, float and
    Fraction would read any Unicode decimal digit (Arabic-Indic ones, say)."""

    def ascii_only(text: str, *args, **kwargs):
        if not text.isascii():
            raise argparse.ArgumentTypeError(f"must be ASCII, got {text!r}")
        return convert(text, *args, **kwargs)

    ascii_only.__name__ = convert.__name__
    return ascii_only


def _int_in(least: int, most: float = math.inf):
    @_ascii
    def int_in(text: str) -> int:
        n = int(text)
        if not least <= n <= most:
            raise argparse.ArgumentTypeError(f"must be in [{least}, {most}], got {n}")
        return n

    return int_in


def _finite(positive: bool):
    """The option type of a finite float, > 0 if positive and >= 0 if not."""

    @_ascii
    def finite(text: str) -> float:
        x = float(text)
        if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
            least = "> 0" if positive else ">= 0"
            raise argparse.ArgumentTypeError(f"must be finite and {least}, got {text}")
        return x

    return finite


@_ascii
def _rationals_text(text: str, positive: bool = False) -> str:
    """Keep text if it is comma-separated rationals in float range (exactly
    one, > 0, if positive); empty text means no value."""
    try:
        values = [float(Fraction(v)) for v in text.split(",")] if text else []
        ok = not positive or (len(values) == 1 and values[0] > 0)
    except (ValueError, ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        what = "one rational > 0" if positive else "comma-separated rationals"
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return text


# Options whose value is an expression that may start with '-' (a negative
# leading coefficient); argparse would read such a token as an option.
_SIGNED_VALUE_OPTIONS = frozenset({"-P", "-T", "-U", "--center"})


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite `-U -x1` as `-U=-x1` so a leading '-' stays part of the value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eulerdist",
        description="Euler operator equations on structured temperate distributions.",
    )
    ap.add_argument("--timing", action="store_true", help="record wall_time_ms")
    ap.add_argument("--output", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve P(theta) U = T")
    p.add_argument("-P", required=True)
    p.add_argument("-T", required=True)
    p.add_argument("-d", dest="dim", type=_ascii(int), required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check P(theta) U = T exactly")
    p.add_argument("-P", required=True)
    p.add_argument("-U", required=True)
    p.add_argument("-T", required=True)
    p.add_argument("-d", dest="dim", type=_ascii(int), required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-suite", help="adjoint-identity quadrature sweep")
    p.add_argument("--tol", type=_finite(positive=False), default=1e-6)
    # Past these a pairing leaves the float range or its error estimate
    # passes the oracle's gate.
    n, order = _int_in(0, MAX_SUITE_N), _int_in(0, MAX_SUITE_ORDER)
    p.add_argument("--nmax", type=n, default=3, help=f"at most {MAX_SUITE_N}")
    p.add_argument("--pmax", type=order, default=2, help=f"at most {MAX_SUITE_ORDER}")
    p.add_argument("--kmax", type=order, default=3, help=f"at most {MAX_SUITE_ORDER}")
    p.set_defaults(func=_cmd_oracle_suite)

    p = sub.add_parser("wagner-check", help="Malgrange-Ehrenpreis desk check")
    p.add_argument("-P", required=True)
    p.add_argument("-d", dest="dim", type=_ascii(int), default=None)
    p.add_argument("--center", type=_rationals_text, help="comma-separated rationals")
    p.add_argument(
        "--width",
        type=lambda text: _rationals_text(text, positive=True),
        default="1",
        help="Gaussian width (rational)",
    )
    p.add_argument("--grid", type=_int_in(2), default=None, help="nodes per axis")
    p.add_argument(
        "--cutoff",
        type=_finite(positive=True),
        default=40.0,
        help="frequency box radius",
    )
    p.add_argument("--tol", type=_finite(positive=False), default=1e-3)
    p.set_defaults(func=_cmd_wagner_check)

    p = sub.add_parser("parse", help="parse and canonically reprint an expression")
    p.add_argument("-P", default=None)
    p.add_argument("-T", default=None)
    p.add_argument("-d", dest="dim", type=_ascii(int), default=None)
    p.set_defaults(func=_cmd_parse)
    return ap


_PARSER = _build_parser()

# Errors in the input, not in the program: exit 2; every other error exits 3.
_USAGE_ERRORS = (
    ParseError,
    CoordinateConflict,
    DimensionError,
    FloatOverflow,
    InputTooLarge,
    ZeroPolynomial,
)


def _write_error(name: str, message: str, **extra) -> None:
    err = {"type": name, "message": message, **extra}
    sys.stdout.write(_json({"error": err}) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _PARSER.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except EulerDistError as exc:
        extra = {"position": exc.position} if isinstance(exc, ParseError) else {}
        _write_error(type(exc).__name__, str(exc), **extra)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 3
    except Exception as exc:  # pragma: no cover - defensive
        _write_error("InternalError", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
