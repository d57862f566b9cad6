"""Write the golden corpus that tests/test_golden.py replays.

    PYTHONPATH=src python3 tests/golden/generate.py

Each case is one `eulerdist` argv, run in-process through `cli.main`; the
corpus keeps its exit code and its JSON report with every float left out
(numerical residuals, tolerances, and the oracle's worst atom, which the
residuals choose).  The cases are drawn with a fixed seed and cover:

  * the README's CLI examples;
  * parse round trips of polynomials (negative coefficients, powers, unary
    minus) and distributions, and parse, dimension and size errors;
  * the benchmark's strata at corpus size: escalation solves of L^m * Q at
    d 2-3 with log right-hand sides, fan-out solves of one delta at d 5-9,
    and wagner-check's exact parameters and pass flags at d 1-3, the d = 3
    default grid included;
  * resonant finite parts ((t_j + k + 1)^r against delta(x_j, k)), log
    escalation of half-line terms at a root of P, and nested substitutions
    through deltas in two or three coordinates;
  * verify of printed solutions up to d = 7, and up to d = 3 also of the
    solution with the magnitude of its first term added;
  * the distribution reader's edge cases (whitespace, signs, zero
    denominators, leading zeros, limits, a bad character), and printed texts
    with whitespace put in or one character replaced or deleted, which pin
    its error types, messages and offsets.

Regenerating is an explicit step: state the reason and the diff of
corpus.json whenever it changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from eulerdist.cli import main
from eulerdist.grammar import format_dist, parse_dist

CORPUS = Path(__file__).with_name("corpus.json")
SEED = 20171111


def exact_part(value):
    """A JSON value with every float, and the float-chosen worst atom, left out."""
    if isinstance(value, dict):
        return {
            k: exact_part(v)
            for k, v in value.items()
            if not isinstance(v, float) and k != "worst_atom"
        }
    if isinstance(value, list):
        return [exact_part(v) for v in value if not isinstance(v, float)]
    return value


def run_case(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    report = exact_part(json.loads(out.getvalue()))
    return {"argv": argv, "exit": code, "report": report}


# -- text helpers -------------------------------------------------------------


def _signed(terms: list[tuple[Fraction, str]]) -> str:
    """'-2*a - b + 1/3*c' from (coefficient, body) pairs; an empty body is 1."""
    out = ""
    for c, body in terms:
        mag = abs(c)
        text = body if mag == 1 and body else "*".join(filter(None, [str(mag), body]))
        if out:
            out += (" - " if c < 0 else " + ") + text
        else:
            out = ("-" if c < 0 else "") + text
    return out or "0"


def _coeff(rng: random.Random) -> Fraction:
    return rng.choice([1, 1, -1, 2, -3, -1]) * Fraction(1, rng.choice([1, 1, 2, 3]))


def _monomial(rng: random.Random, d: int, degree: int) -> str:
    factors = []
    for j in sorted(rng.sample(range(1, d + 1), min(d, degree))):
        a = rng.randint(1, 2)
        factors.append(f"t{j}" if a == 1 else f"t{j}^{a}")
    return "*".join(factors)


def _poly(rng: random.Random, d: int, skip: int = 0) -> str:
    """Random degree <= 2 (per variable) polynomial text with a nonzero constant."""
    coords = [j for j in range(1, d + 1) if j != skip] or [1]
    terms = []
    for _ in range(rng.randint(1, 3)):
        j = rng.choice(coords)
        body = rng.choice([f"t{j}", f"t{j}^2", f"t{j}*t{rng.choice(coords)}"])
        terms.append((_coeff(rng), body))
    return f"({_signed(terms + [(Fraction(rng.randint(1, 5)), '')])})"


def _linear(a: list[int], const: int) -> str:
    terms = [(Fraction(aj), f"t{j}") for j, aj in enumerate(a, 1) if aj]
    return f"({_signed(terms + ([(Fraction(const), '')] if const else []))})"


def _halfline(j: int, n: int, p: int, s: int) -> str:
    parts = [f"x{j}" if n == 1 else f"x{j}^{n}"] if n else []
    if p:
        parts.append(f"log(x{j})" if p == 1 else f"log(x{j})^{p}")
    parts.append(f"H(x{j})" if s == 1 else f"H(-x{j})")
    return "*".join(parts)


def _factor(rng: random.Random, j: int) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"delta(x{j},{rng.randint(0, 2)})"
    if kind == 1:
        return f"mono(x{j},{rng.randint(0, 3)})"
    return _halfline(j, rng.randint(-3, 3), rng.randint(0, 2), rng.choice([1, -1]))


def _dist(rng: random.Random, d: int, nterms: int) -> str:
    terms = []
    for _ in range(nterms):
        coords = sorted(rng.sample(range(1, d + 1), rng.randint(1, d)))
        terms.append((_coeff(rng), "*".join(_factor(rng, j) for j in coords)))
    return _signed(terms)


# -- cases ------------------------------------------------------------------------

README = [
    ["solve", "-P", "t1+1", "-T", "delta(x1,0)", "-d", "1"],
    ["verify", "-P", "t1+1", "-U", "x1^-1*H(x1)", "-T", "delta(x1,0)", "-d", "1"],
    ["wagner-check", "-P", "t1^2+t2^2-1", "--grid", "512", "--tol", "1e-3"],
    ["oracle-suite", "--nmax", "2", "--pmax", "2", "--kmax", "2"],
    ["parse", "-T", "1/2*mono(x1,2) + delta(x1,0)", "-d", "1"],
]

PARSE_ERRORS = [
    ["parse", "-P", "t1 +"],
    ["parse", "-P", "(t1 + 1"],
    ["parse", "-P", "t10"],
    ["parse", "-P", "t3", "-d", "2"],
    ["parse", "-P", "t1", "-d", "10"],
    ["parse", "-P", "(t1+t2+t3+t4+t5+t6)^8"],
    ["parse", "-T", "delta(x1,0)*x1", "-d", "1"],
    ["parse", "-T", "log(x1)^0*H(x1)", "-d", "1"],
    ["parse", "-T", "x2*H(x2)", "-d", "1"],
    ["parse", "-T", "delta(x1,0)", "-d", "12"],
    ["solve", "-P", "0*t1", "-T", "delta(x1,0)", "-d", "1"],
    ["solve", "-P", "-t1^2+1", "-T", "delta(x1,0)", "-d", "1"],
]


def parse_cases(rng: random.Random) -> list[list[str]]:
    fixed = ["-t1^2+1", "-(t1+1)^2", "t2*-t1^2", "(-t1)^2", "- -t1^3", "-2^2*t1"]
    argvs = [["parse", "-P", src] for src in fixed]
    for _ in range(20):
        d = rng.randint(1, 4)
        terms = [
            (_coeff(rng), _monomial(rng, d, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        src = _signed(terms)
        if rng.random() < 0.3:
            src = f"-({src})^{rng.randint(2, 3)}"
        argvs.append(["parse", "-P", src, "-d", str(d)])
    for _ in range(20):
        d = rng.randint(1, 3)
        argvs.append(["parse", "-T", _dist(rng, d, rng.randint(1, 3)), "-d", str(d)])
    return argvs + PARSE_ERRORS


def escalate_cases(rng: random.Random) -> list[list[str]]:
    """L^m * Q with L(mu) = 0 != Q(mu) against half-line logs at mu."""
    argvs = []
    for d in (2, 3):
        for m in (2, 3, 4):
            for p in (0, 1, 2):
                if d == 3 and m == 4 and p == 2:
                    continue
                mu = [rng.randint(0, 2) for _ in range(d)]
                a = [rng.choice([1, 2, -1, -2]) for _ in range(d)]
                L = _linear(a, -sum(x * y for x, y in zip(a, mu)))
                b = [rng.randint(-2, 2) for _ in range(d)]
                i = rng.randint(1, d)
                q_mu = mu[i - 1] ** 2 + sum(x * y for x, y in zip(b, mu))
                e = rng.choice([e for e in range(1, 7) if q_mu + e != 0])
                Q = f"(t{i}^2 + {_linear(b, e)[1:]}"
                logs = [0] * d
                for _ in range(p):
                    logs[rng.randrange(d)] += 1
                signs = [rng.choice([1, -1]) for _ in range(d)]
                T = _signed(
                    [(_coeff(rng), "*".join(
                        _halfline(j + 1, mu[j], logs[j], signs[j]) for j in range(d)
                    ))]
                )
                argvs.append(["solve", "-P", f"{L}^{m}*{Q}", "-T", T, "-d", str(d)])
    return argvs


def fanout_cases(rng: random.Random) -> list[list[str]]:
    """One delta in d 5-9 (2^(d-1) canonical terms), solved and then verified."""
    argvs = []
    for d, variant in [(5, "plain"), (5, "mono"), (5, "resonant"), (6, "plain"),
                       (6, "resonant"), (7, "mono"), (9, "plain")]:
        j, k = rng.randint(1, d), rng.randint(0, 1)
        factors = [f"delta(x{j},{k})"]
        if variant == "mono":
            others = rng.sample([i for i in range(1, d + 1) if i != j], 2)
            factors += [f"mono(x{i},{rng.randint(1, 2)})" for i in others]
        T = _signed([(_coeff(rng), "*".join(factors))])
        if variant == "resonant":
            P = f"(t{j} + {k + 1})^{rng.randint(1, 2)}*{_poly(rng, d, skip=j)}"
        else:
            P = _poly(rng, d)
        argvs.append(["solve", "-P", P, "-T", T, "-d", str(d)])
    return argvs


def resonance_cases(rng: random.Random) -> list[list[str]]:
    """Resonant finite parts, log escalation and nested substitutions."""
    argvs = []
    for _ in range(6):  # (theta_1 + k + 1)^r against delta(x1, k)
        d, k, r = rng.randint(1, 2), rng.randint(0, 3), rng.randint(1, 3)
        rest = ""
        if d == 2:
            rest = "*" + _halfline(2, rng.randint(-2, 2), rng.randint(0, 1), 1)
        P = f"(t1 + {k + 1})^{r}*{_poly(rng, d, skip=1)}"
        argvs.append(["solve", "-P", P, "-T", f"delta(x1,{k}){rest}", "-d", str(d)])
    for _ in range(6):  # half-line terms at a root of P: log escalation
        d = rng.randint(1, 2)
        n = [rng.randint(-3, 3) for _ in range(d)]
        j = rng.randint(1, d)
        root = f"(t{j} - {n[j - 1]})".replace("- -", "+ ")
        P = f"{root}^{rng.randint(1, 2)}*{_poly(rng, d)}"
        T = "*".join(
            _halfline(i + 1, n[i], rng.randint(0, 2), rng.choice([1, -1]))
            for i in range(d)
        )
        argvs.append(["solve", "-P", P, "-T", T, "-d", str(d)])
    for _ in range(6):  # deltas in two or three coordinates: nested substitutions
        d = rng.randint(2, 3)
        T = _signed(
            [(_coeff(rng), "*".join(
                f"delta(x{j},{rng.randint(0, 2)})" if j <= 2 else _factor(rng, j)
                for j in range(1, d + 1)
            )) for _ in range(rng.randint(1, 2))]
        )
        argvs.append(["solve", "-P", _poly(rng, d), "-T", T, "-d", str(d)])
    for _ in range(8):  # small random right-hand sides
        d = rng.randint(1, 2)
        P = _poly(rng, d) + ("" if rng.random() < 0.5 else f"*{_poly(rng, d)}")
        T = _dist(rng, d, rng.randint(1, 2))
        argvs.append(["solve", "-P", P, "-T", T, "-d", str(d)])
    return argvs


def wagner_cases() -> list[list[str]]:
    return [
        ["wagner-check", "-P", "t1^2+1", "--grid", "512"],
        ["wagner-check", "-P", "t1^2+t2^2+t1", "--grid", "64", "--cutoff", "12"],
        ["wagner-check", "-P", "t1^2+t2^2+t3^2-t1+2", "--grid", "16", "--cutoff", "8"],
        ["wagner-check", "-P", "t1^2+t2^2+t3^2-1"],
    ]


def verify_cases(solved: list[dict]) -> list[list[str]]:
    """verify each solution that solve printed up to d = 7, and up to d = 3
    also with the magnitude of its first term added to it."""
    argvs = []
    for case in solved:
        _, _, P, _, T, _, d = case["argv"]
        if case["exit"] != 0 or int(d) > 7:
            continue
        U = case["report"]["outputs"]["solution"]
        argvs.append(["verify", "-P", P, "-U", U, "-T", T, "-d", d])
        if int(d) <= 3:
            changed = f"{U} + {U.split(' ')[0].lstrip('-')}"
            argvs.append(["verify", "-P", P, "-U", changed, "-T", T, "-d", d])
    return argvs


# Distribution texts at the edges of the grammar, each parsed at d = 1.
READER_EDGES = [
    "",
    " -x1*H(x1) ",
    "x1^2*H(x1)\n",
    "x1^ 2*H(x1)",
    "1/0*H(x1)",
    "0/0",
    "2 3*H(x1)",
    "x1 + -x1",
    "x1*",
    "--x1",
    "x1/2",
    "x01*H(x1)",
    "x12*H(x1)",
    "x2*H(x1)",
    "x0",
    "delta(x1,-0)",
    "mono(x1,-0)",
    "mono(x1,-1)",
    "log(x1)^0*H(x1)",
    "log(x1)^-1*H(x1)",
    "H(+x1)",
    "x1^1000*H(x1)",
    "x1^1001*H(x1)",
    "x1^10000*H(x1)",
    "x1^00002*H(x1)",
    "delta(x1,0)*H(x1)",
    "0*delta(x1,0)*delta(x1,0)",
    "1" * 3000 + "*H(x1)",
    "1" * 3001 + "*H(x1)",
    "delta(x1,0)*H(x1) + $",
]


def mutated_cases(rng: random.Random, count: int = 240) -> list[list[str]]:
    """Printed distributions with whitespace put in, or one character
    replaced or deleted, at a random place."""
    argvs = []
    for _ in range(count):
        d = rng.randint(1, 3)
        text = format_dist(parse_dist(_dist(rng, d, rng.randint(1, 3)), d))
        i = rng.randint(0, len(text))
        edit = rng.choice(["space", "replace", "delete"])
        if edit == "space":
            text = text[:i] + rng.choice(" \t\n") + text[i:]
        else:
            new = rng.choice("0123456789x-+*/^(),.H \n$t") if edit == "replace" else ""
            text = text[:i] + new + text[i + 1 :]
        argvs.append(["parse", "-T", text, "-d", str(d)])
    return argvs


def corpus() -> list[dict]:
    rng = random.Random(SEED)
    cases = [run_case(a) for a in README + parse_cases(rng) + wagner_cases()]
    solves = [run_case(a) for a in escalate_cases(rng) + resonance_cases(rng)]
    fanout = [run_case(a) for a in fanout_cases(rng)]
    verifies = [run_case(a) for a in verify_cases(fanout + solves[::3])]
    edges = [["parse", "-T", text, "-d", "1"] for text in READER_EDGES]
    reader = [run_case(a) for a in edges + mutated_cases(rng)]
    return cases + solves + fanout + verifies + reader


if __name__ == "__main__":
    cases = corpus()
    CORPUS.write_text(json.dumps(cases, separators=(",", ":")) + "\n")
    counts: dict[str, int] = {}
    for c in cases:
        counts[c["argv"][0]] = counts.get(c["argv"][0], 0) + 1
    print(f"{len(cases)} cases {counts}, {CORPUS.stat().st_size} bytes -> {CORPUS}")
