"""Seeded workload generators and the per-op user calls and checks.

A workload is a deterministic stream of rounds.  Round r of workload W under
seed s is drawn from its own `random.Random(f"{W}:{s}:{r}")`, so any round
can be regenerated on its own.  Every round covers the same fixed grid of
strata (dimension, degree, log power, grid size, ...) and only the
coefficients, eigenvalues, signs, centers and widths inside each stratum come
from the seed.  The work per round therefore hardly depends on the seed, and
a run that measures whole rounds sees the same mix of op shapes every time.

Option values are passed as `-T=<text>`: a value that starts with '-', such
as a solution with a negative leading coefficient, would otherwise be read
by argparse as an option.

An op has two halves: `call()` is the user path that is timed (one or two
`eulerdist.cli.main(argv)` invocations with stdout captured, or the public
`oracle.adjoint_check` API where the CLI cannot vary the test function), and
`check(raw)` turns its output into a pass flag and the exact fields that go
into the output digest.  Float residuals never enter the digest.

The generators never drop an instance: whatever the program does with it,
pass or fail, is what the run reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from eulerdist import cli, oracle
from eulerdist.atoms import Delta, MonLog
from eulerdist.gausspoly import GaussPoly
from eulerdist.poly import Polynomial

ADJOINT_TOL = 1e-6

# Generation parameters, one entry per workload.  `perfbench/README.md`
# explains each choice; the runner prints this table with every result.
PARAMS = {
    "solve-escalate": {
        "op": "cli solve",
        "P": "L^m * Q, L linear with L(mu) = 0, Q = t_i^2 + linear + e",
        "strata_per_round": "d in (2, 3) x m in (2..5) x p in (0, 1, 2), "
        "but d=3 m=5 only with p=0 (22 ops)",
        "mu_j": "0..2",
        "rhs_terms": "1 or 2 (alternating), half-line x^n log^p H(+-x) at mu",
        "p": "total log power of each term, spread over random coordinates",
        "Q(mu)": "nonzero, so the vanishing order at mu is m",
    },
    "solve-fanout": {
        "op": "cli solve, then cli verify of the printed solution",
        "strata_per_round": "d in (5..9) x variant in (plain x3, mono, resonant)",
        "T": "one delta(xj,k), k 0..1; other coordinates implicit or mono(xi,n)",
        "P": "random degree <= 2, 3-4 monomials + constant; "
        "resonant variant (t_j + k + 1)^r * Q, r 1..2",
        "canonical_terms": "2^(d-1)",
    },
    "desk-checks": {
        "op": "alternating oracle.adjoint_check sweep and cli wagner-check",
        "adjoint_atoms": "Delta k<=2, MonLog |n|<=2, p<=2, s=+-1 (33 atoms)",
        "adjoint_phi": "fresh (c0 + c1 x + c2 x^2) Gaussian, seeded center and width",
        "wagner_strata": "(d, N, R) in (1, 4096, 40), (2, 256, 40), (2, 512, 40), "
        "(3, 64, 12), (3, 96, 12) twice",
        "wagner_default_left_out": "d=3 N=512 needs ~2.1 GB per complex array",
    },
}


@dataclass
class Op:
    """One closed-loop request: a timed user call and its untimed check."""

    label: str
    inputs: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`eulerdist argv` in-process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _exact_report(code: int, text: str, drop: tuple[str, ...] = ()) -> tuple[bool, dict]:
    """Pass flag and the exact (non-float) fields of one CLI report.

    Usage errors print nothing to stdout; other errors print {"error": ...}.
    """
    rep = json.loads(text) if text.strip() else {}
    if "checks" not in rep:
        return False, {"exit": code, "error": rep.get("error")}
    checks = [{"name": c["name"], "pass": c["pass"]} for c in rep["checks"]]
    outputs = {k: v for k, v in rep["outputs"].items() if k not in drop}
    ok = code == 0 and all(c["pass"] for c in checks)
    return ok, {"exit": code, "outputs": outputs, "checks": checks}


# -- text helpers ------------------------------------------------------------


def _num(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _linear(coeffs: list[int], const: int) -> str:
    """'(2*t1 - t2 + 3)' from integer coefficients."""
    parts = []
    for j, a in enumerate(coeffs, start=1):
        if a == 0:
            continue
        mag = "" if abs(a) == 1 else f"{abs(a)}*"
        parts.append(("- " if a < 0 else "+ ") + f"{mag}t{j}")
    if const:
        parts.append(("- " if const < 0 else "+ ") + str(abs(const)))
    head = parts[0]
    head = ("-" + head[2:]) if head.startswith("- ") else head[2:]
    return "(" + " ".join([head] + parts[1:]) + ")"


def _signed_sum(terms: list[tuple[Fraction, str]]) -> str:
    out = []
    for c, body in terms:
        mag = "" if abs(c) == 1 else _num(abs(c)) + "*"
        out.append(("- " if c < 0 else "+ ") + mag + body)
    head = out[0]
    head = ("-" + head[2:]) if head.startswith("- ") else head[2:]
    return " ".join([head] + out[1:])


def _halfline(j: int, n: int, p: int, s: int) -> str:
    parts = []
    if n:
        parts.append(f"x{j}" if n == 1 else f"x{j}^{n}")
    if p:
        parts.append(f"log(x{j})" if p == 1 else f"log(x{j})^{p}")
    parts.append(f"H(x{j})" if s == 1 else f"H(-x{j})")
    return "*".join(parts)


def _coeff(rng: random.Random) -> Fraction:
    return rng.choice([1, 1, -1, 2, -3]) * Fraction(1, rng.choice([1, 1, 2, 3]))


def _split_power(rng: random.Random, total: int, d: int) -> list[int]:
    p = [0] * d
    for _ in range(total):
        p[rng.randrange(d)] += 1
    return p


# -- solve-escalate ------------------------------------------------------------


def _escalate_op(rng: random.Random, d: int, m: int, p: int, nterms: int) -> Op:
    mu = [rng.randint(0, 2) for _ in range(d)]
    a = [rng.choice([1, 2, -1, -2]) for _ in range(d)]
    L = _linear(a, -sum(aj * mj for aj, mj in zip(a, mu)))
    # Q(mu) != 0, so the vanishing order at mu is exactly m.
    b = [rng.randint(-2, 2) for _ in range(d)]
    i = rng.randint(1, d)
    q_mu = mu[i - 1] ** 2 + sum(bj * mj for bj, mj in zip(b, mu))
    e = rng.choice([e for e in range(1, 7) if q_mu + e != 0])
    Q = f"(t{i}^2 + " + _linear(b, e)[1:]
    P = f"{L}^{m}*{Q}"
    signs = [rng.choice([1, -1]) for _ in range(d)]
    terms = [(_coeff(rng), _split_power(rng, p, d), signs)]
    if nterms == 2:
        other = list(signs)
        other[rng.randrange(d)] *= -1
        terms.append((_coeff(rng), _split_power(rng, p, d), other))
    T = _signed_sum(
        [
            (c, "*".join(_halfline(j + 1, mu[j], ps[j], ss[j]) for j in range(d)))
            for c, ps, ss in terms
        ]
    )
    argv = ["solve", f"-P={P}", f"-T={T}", f"-d={d}"]
    return Op(
        label=f"escalate d={d} m={m} p={p} terms={nterms}",
        inputs=json.dumps(argv),
        call=lambda: run_cli(argv),
        check=lambda raw: _solve_check(*raw),
    )


def _solve_check(code: int, text: str) -> tuple[bool, str]:
    ok, exact = _exact_report(code, text)
    ok = ok and exact["outputs"]["verified"] is True
    return ok, json.dumps(exact, sort_keys=True)


# (d, m, p) strata of one round.  At d = 3, m = 5 runs with p = 0 only: with
# p = 2 one op takes 0.5-0.7 s, as long as a dozen others together, and a
# run would average over too few of them to be steady.
ESCALATE_STRATA = [
    (d, m, p) for d in (2, 3) for m in (2, 3, 4, 5) for p in (0, 1, 2)
    if not (d == 3 and m == 5 and p > 0)
]


def escalate_round(rng: random.Random) -> list[Op]:
    return [
        _escalate_op(rng, d, m, p, 1 + i % 2)
        for i, (d, m, p) in enumerate(ESCALATE_STRATA)
    ]


# -- solve-fanout ----------------------------------------------------------------


def _random_poly(rng: random.Random, d: int, skip: int | None = None) -> str:
    """Random degree <= 2 polynomial text in t1..td, with a nonzero constant."""
    pieces: list[tuple[Fraction, str]] = []
    coords = [j for j in range(1, d + 1) if j != skip]
    for _ in range(rng.randint(3, 4)):
        i = rng.choice(coords)
        shape = rng.randrange(3)
        if shape == 0:
            body = f"t{i}"
        elif shape == 1:
            body = f"t{i}^2"
        else:
            body = f"t{i}*t{rng.choice(coords)}"
        pieces.append((Fraction(rng.choice([1, 2, 3, -1, -2])), body))
    return f"({_signed_sum(pieces)} + {rng.randint(1, 7)})"


def _fanout_op(rng: random.Random, d: int, variant: str) -> Op:
    j = rng.randint(1, d)
    k = rng.randint(0, 1)
    factors = [f"delta(x{j},{k})"]
    if variant == "mono":
        for i in rng.sample([i for i in range(1, d + 1) if i != j], 2):
            factors.append(f"mono(x{i},{rng.randint(1, 2)})")
    T = _signed_sum([(_coeff(rng), "*".join(factors))])
    if variant == "resonant":
        r = rng.randint(1, 2)
        P = f"(t{j} + {k + 1})^{r}*{_random_poly(rng, d, skip=j)}"
    else:
        P = _random_poly(rng, d)
    solve_argv = ["solve", f"-P={P}", f"-T={T}", f"-d={d}"]

    def call():
        solved = run_cli(solve_argv)
        if solved[0] != 0:
            return solved, None
        U = json.loads(solved[1])["outputs"]["solution"]
        return solved, run_cli(["verify", f"-P={P}", f"-U={U}", f"-T={T}", f"-d={d}"])

    def check(raw):
        solved, verified = raw
        ok, exact = _exact_report(*solved)
        ok = ok and exact["outputs"]["verified"] is True
        if verified is not None:
            vok, vexact = _exact_report(*verified)
            ok = ok and vok and vexact["outputs"]["verified"] is True
            exact["verify"] = vexact
        return ok, json.dumps(exact, sort_keys=True)

    return Op(f"fanout d={d} {variant}", json.dumps(solve_argv), call, check)


# Three plain ops per d, so that op_ms.p50 and op_ms.p90 fall inside the
# plain group of d = 7 and d = 9, not on the edge to the slower variants.
FANOUT_VARIANTS = ("plain", "plain", "plain", "mono", "resonant")


def fanout_round(rng: random.Random) -> list[Op]:
    return [
        _fanout_op(rng, d, variant) for d in range(5, 10) for variant in FANOUT_VARIANTS
    ]


# -- desk-checks -------------------------------------------------------------------

ADJOINT_ATOMS = [Delta(k) for k in range(3)] + [
    MonLog(n, p, s) for n in range(-2, 3) for p in range(3) for s in (1, -1)
]

# (d, N, R): nodes per axis and frequency box radius.  At d = 3 the CLI
# default (N = 512) is left out: one complex xi-grid array would take 2.1 GB.
# The smaller N there needs the smaller box to keep the trapezoid spacing fine.
# N = 96, the slowest op, comes twice: 2 of 12 ops, so that op_ms.p90 falls
# inside its group rather than on the edge between it and the next.
WAGNER_STRATA = [
    (1, 4096, 40), (2, 256, 40), (2, 512, 40), (3, 64, 12), (3, 96, 12), (3, 96, 12)
]


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    q = rng.randint(1, den)
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def _adjoint_op(rng: random.Random) -> Op:
    # Every coefficient is nonzero, so each op pairs the same slices.
    poly = Polynomial(
        1,
        {
            (0,): Fraction(rng.randint(1, 3)),
            (1,): Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), 3),
            (2,): Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 4),
        },
    )
    # Center and width take ~10^6 distinct values, so no two ops in a run
    # share the 1-D slices that key the oracle's module-level cache.
    center = Fraction(rng.randint(-997, 997), 997)
    width = Fraction(rng.randint(600, 1800), 899)
    phi = GaussPoly(poly, (center,), width)

    def call():
        return [oracle.adjoint_check(a, phi) for a in ADJOINT_ATOMS]

    def check(residuals):
        flags = [r <= ADJOINT_TOL for r in residuals]
        return all(flags), json.dumps({"adjoint_pass": flags})

    return Op("adjoint sweep", repr(phi), call, check)


def _wagner_poly(rng: random.Random, d: int) -> str:
    c = rng.randint(1, 4)
    if d == 1:
        return rng.choice([f"t1 + {c}", f"t1^2 - {c}", f"2*t1^2 + t1 - {c}"])
    squares = " + ".join(
        _signed_sum([(Fraction(rng.randint(1, 3)), f"t{j}^2")]) for j in range(1, d + 1)
    )
    return rng.choice([f"{squares} - {c}", f"t1*t2 + {c}" if d == 2 else f"{squares} + t1"])


def _wagner_op(rng: random.Random, d: int, N: int, R: int) -> Op:
    center = ",".join(
        _num(_rational(rng, Fraction(-1, 2), Fraction(1, 2), 4)) for _ in range(d)
    )
    width = _num(_rational(rng, Fraction(1), Fraction(3, 2), 4))
    argv = [
        "wagner-check", f"-P={_wagner_poly(rng, d)}", f"-d={d}",
        f"--center={center}", f"--width={width}", f"--grid={N}", f"--cutoff={R}",
    ]

    def check(raw):
        ok, exact = _exact_report(*raw, drop=("residual",))
        return ok, json.dumps(exact, sort_keys=True)

    return Op(f"wagner d={d} N={N}", json.dumps(argv), lambda: run_cli(argv), check)


def desk_round(rng: random.Random) -> list[Op]:
    ops = []
    for d, N, R in WAGNER_STRATA:
        ops.append(_adjoint_op(rng))
        ops.append(_wagner_op(rng, d, N, R))
    return ops


ROUNDS = {
    "solve-escalate": escalate_round,
    "solve-fanout": fanout_round,
    "desk-checks": desk_round,
}


def make_round(workload: str, seed: int, r: int) -> list[Op]:
    """Round r of a workload under a seed; independent of every other round."""
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{r}"))


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """The first two (light) ops of a round no measurement uses: they load
    every code path once, and cost too little to make set-up time vary."""
    return make_round(workload, seed, -1)[:2]
