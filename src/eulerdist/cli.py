"""Command line interface: solve, verify, oracle-suite, wagner-check, parse.

Every run emits one JSON report object with the shape

    {command, inputs{...}, outputs{...},
     checks[{name, pass, value, tolerance}], wall_time_ms}

to stdout (or --output FILE).  Reports are byte-identical across runs with
identical inputs; wall_time_ms is null unless --timing is given, since a
measured time would break that determinism.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 parse or usage error (including a
zero polynomial P, a wagner-check center or width out of float range, and
an input over a stated size limit), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

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
from .grammar import format_dist, format_poly, parse_dist, parse_poly
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


def _emit(report: dict, args) -> int:
    if args.timing:
        report["wall_time_ms"] = round((time.monotonic() - args._t0) * 1000.0, 3)
    text = json.dumps(report, indent=2) + "\n"
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
    U = parse_dist(args.U, args.dim)
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
    center = tuple(Fraction(v) for v in args.center.split(",")) if args.center else (
        Fraction(0),
    ) * d
    if len(center) != d:
        raise DimensionError(f"center has {len(center)} entries for dimension {d}")
    phi = GaussPoly.gaussian(d, center, Fraction(args.width))
    params = WagnerParams.for_polynomial(P)
    residual = me_check(P, params, phi, (args.grid, args.cutoff))
    outputs = {
        "residual": residual,
        "N": args.grid,
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
        "grid": args.grid,
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
    value = parse(text, args.dim)
    canonical = fmt(value)
    # Without -d a polynomial's dimension is its largest t<j>, which the
    # canonical text may no longer name (t2^0, 0*t3): re-parse at value.dim.
    ok = parse(canonical, value.dim) == value
    inputs = {key: text, "d": args.dim}
    checks = [_check("round_trip", ok, ok, None)]
    return _emit(_report("parse", inputs, {"canonical": canonical}, checks), args)


def _int_at_least(least: int):
    def int_at_least(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return int_at_least


def _cutoff_radius(text: str) -> float:
    r = float(text)
    if not (r > 0 and math.isfinite(r)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return r


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
    p.add_argument("-d", dest="dim", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check P(theta) U = T exactly")
    p.add_argument("-P", required=True)
    p.add_argument("-U", required=True)
    p.add_argument("-T", required=True)
    p.add_argument("-d", dest="dim", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-suite", help="adjoint-identity quadrature sweep")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--nmax", type=_int_at_least(0), default=3)
    p.add_argument("--pmax", type=_int_at_least(0), default=2)
    p.add_argument("--kmax", type=_int_at_least(0), default=3)
    p.set_defaults(func=_cmd_oracle_suite)

    p = sub.add_parser("wagner-check", help="Malgrange-Ehrenpreis desk check")
    p.add_argument("-P", required=True)
    p.add_argument("-d", dest="dim", type=int, default=None)
    p.add_argument("--center", type=_rationals_text, help="comma-separated rationals")
    p.add_argument(
        "--width",
        type=lambda text: _rationals_text(text, positive=True),
        default="1",
        help="Gaussian width (rational)",
    )
    p.add_argument("--grid", type=_int_at_least(2), default=None, help="nodes per axis")
    p.add_argument(
        "--cutoff", type=_cutoff_radius, default=40.0, help="frequency box radius"
    )
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_wagner_check)

    p = sub.add_parser("parse", help="parse and canonically reprint an expression")
    p.add_argument("-P", default=None)
    p.add_argument("-T", default=None)
    p.add_argument("-d", dest="dim", type=int, default=None)
    p.set_defaults(func=_cmd_parse)
    return ap


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _PARSER.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._t0 = time.monotonic()
    if args.command == "parse" and args.dim is None:
        args.dim = None if args.P is not None else 1
    try:
        if args.command == "wagner-check":
            if args.dim is None:
                args.dim = parse_poly(args.P).dim
            if args.grid is None:
                args.grid = 4096 if args.dim == 1 else 512
        return args.func(args)
    except (
        ParseError,
        CoordinateConflict,
        DimensionError,
        FloatOverflow,
        InputTooLarge,
        ZeroPolynomial,
    ) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ParseError):
            err["error"]["position"] = exc.position
        sys.stdout.write(json.dumps(err, indent=2) + "\n")
        return 2
    except EulerDistError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(err, indent=2) + "\n")
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        err = {"error": {"type": "InternalError", "message": str(exc)}}
        sys.stdout.write(json.dumps(err, indent=2) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
