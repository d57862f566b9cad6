"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper at the
place its caller looks it up (for example `solver.apply_polynomial`, the name
`solver.verify` resolves, or `oracle.quad`, the scipy function `oracle`
imports), and `Tracer.restore()` puts every original back.  Each call of a
wrapper records one span: layer name, start, end, parent span and op id.
Spans stay in memory until `write()`.  A span's self time is its duration
minus the durations of its direct children, so in one single-threaded op the
self times of all its spans add up to the op span exactly.

Some layers also feed counters from their arguments or results (system sizes,
terms out, grid points); `Polynomial.partial` is counted without a span,
because it is called far too often for a span per call.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from eulerdist import atoms, cli, grammar, oracle, poly, solver, theta, wagner

# Layer name -> the (module, attribute) places its public functions are
# looked up from.  "op" is the benchmark's own root span around one op.
LAYERS = {
    "op": [],
    "cli.main": [(cli, "main")],
    "grammar.parse": [(cli, "parse_poly"), (cli, "parse_dist")],
    "grammar.format": [(cli, "format_dist")],
    "solver.solve": [(cli, "solve")],
    "solver.continuous": [(solver, "solve_continuous_term")],
    "solver.resonant": [(solver, "resonant_1d")],
    "theta.verify": [(cli, "verify"), (solver, "verify")],
    "theta.apply": [
        (solver, "apply_polynomial"),
        (oracle, "apply_polynomial"),
        (wagner, "apply_polynomial"),
    ],
    "atoms.dist": [(atoms, "dist"), (theta, "dist"), (solver, "dist"), (grammar, "dist")],
    "poly.shift": [(solver, "taylor_shift"), (solver, "vanishing_order")],
    "poly.factor": [(solver, "factor_out"), (solver, "substitute_coord")],
    "oracle.adjoint": [(oracle, "adjoint_check")],
    "oracle.pair": [(oracle, "pair")],
    "oracle.quad": [(oracle, "quad")],
    "wagner.me_check": [(cli, "me_check")],
    "wagner.pair_E": [(wagner, "pair_E")],
}

# Per-op counters fed by result hooks, then derived figures.
COUNTERS = [
    "solver.systems_built",
    "solver.escalation_depth.max",
    "poly.partial.calls",
    "atoms.dist.terms_out",
    "grammar.parse.terms",
    "theta.apply.terms_out",
    "wagner.grid_points",
]


def _on_continuous(counts, args, result):
    bump_used = result[2]
    counts["solver.systems_built"] += bump_used + 1


def _on_solve(counts, args, result):
    depth = result.escalation_depth
    counts["solver.escalation_depth.max"] = max(counts["solver.escalation_depth.max"], depth)


def _on_terms(key):
    def hook(counts, args, result):
        counts[key] += len(result.terms)

    return hook


def _on_parse(counts, args, result):
    if isinstance(result, atoms.DistExpr):
        counts["grammar.parse.terms"] += len(result.terms)


def _on_pair_E(counts, args, result):
    # me_check passes all four arguments of pair_E positionally.
    P, params, _chi, grid = args
    counts["wagner.grid_points"] += int(grid[0]) ** P.dim * (params.m + 1)


HOOKS = {
    "solver.continuous": _on_continuous,
    "solver.solve": _on_solve,
    "atoms.dist": _on_terms("atoms.dist.terms_out"),
    "theta.apply": _on_terms("theta.apply.terms_out"),
    "grammar.parse": _on_parse,
    "wagner.pair_E": _on_pair_E,
}

# wagner.grid_bytes_computed is grid points times one complex128 value:
# computed from the grid size, not measured.
COMPLEX_BYTES = 16


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self._open("op")

    def end_op(self, i: int) -> None:
        self._close(i)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, places in LAYERS.items():
            for module, attr in places:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        original = poly.Polynomial.partial
        self._saved.append((poly.Polynomial, "partial", original))
        poly.Polynomial.partial = self._count("poly.partial.calls", original)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------------

    def layer_totals(self, op_scale: list[float] | None = None) -> dict[str, dict[str, float]]:
        """Per layer: inclusive seconds (outermost spans only), self seconds,
        and the number of calls.  Span times are multiplied by their op's
        entry in op_scale, when given."""
        n = len(self.names)
        durs = [self.ends[i] - self.starts[i] for i in range(n)]
        if op_scale is not None:
            durs = [d * op_scale[op] for d, op in zip(durs, self.ops)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durs[i]
        out = {name: {"incl": 0.0, "self": 0.0, "calls": 0} for name in LAYERS}
        for i, name in enumerate(self.names):
            dur = durs[i]
            row = out[name]
            row["self"] += dur - child[i]
            row["calls"] += 1
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["incl"] += dur
        return out

    def write(self, path) -> None:
        """Every span as [name, start_s, end_s, parent, op], times from the
        first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [self.names[i], self.starts[i] - t0, self.ends[i] - t0, self.parents[i], self.ops[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh)


def per_layer_metrics(
    tracer: Tracer, op_scale: list[float], overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics of a traced pass, by name, with units.

    op_scale holds each traced op's reference-speed factor; overhead is the
    untraced rounds' ops_per_s over the traced rounds'.
    """
    n_ops = len(op_scale)
    out: dict[str, tuple[float, str]] = {}
    for name, row in tracer.layer_totals(op_scale).items():
        out[f"{name}.ms"] = (row["incl"] * 1000.0 / n_ops, "ms/op")
        out[f"{name}.self_ms"] = (row["self"] * 1000.0 / n_ops, "ms/op")
        out[f"{name}.calls"] = (row["calls"] / n_ops, "1/op")
    c = tracer.counts
    for key in COUNTERS:
        if key.endswith(".max"):
            out[key] = (float(c[key]), "count")
        else:
            out[key] = (c[key] / n_ops, "1/op")
    calls = out["solver.continuous.calls"][0]
    built = out["solver.systems_built"][0]
    out["solver.systems_useful_ratio"] = (calls / built if built else 0.0, "ratio")
    out["wagner.grid_bytes_computed"] = (
        out["wagner.grid_points"][0] * COMPLEX_BYTES,
        "B/op",
    )
    out["trace.overhead"] = (overhead, "ratio")
    return out
