"""Run one workload in this interpreter and print the result as one JSON line.

Started by `run.py`, one fresh interpreter per run, so module state such as
`oracle._pair1d_cache` starts empty.  Set-up is everything from the moment
the parent started this process (`--t0`, on the system-wide monotonic clock)
through importing `eulerdist`, generating inputs and the warm-up ops.

Untraced (`--trace 0`): whole rounds 0, 1, 2, ... are run until `--seconds`
have passed, and every op's time is recorded, scaled to reference speed (see
REFERENCE_S) and raw.  Traced (`--trace 1`): even rounds run with the tracer
installed and odd rounds without it, so the two halves see the same
conditions and their ratio is the tracing overhead.  Round 0 is always run
(traced, when tracing); its inputs and exact outputs make the digest.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
sys.path.insert(0, str(SRC))

import eulerdist  # noqa: E402

if not Path(eulerdist.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"eulerdist was imported from {eulerdist.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Failures and the round-0 digest (inputs and exact outputs) so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def run(self, op: workloads.Op, op_id: int, tracer=None, digest: bool = False) -> float:
        """Time op.call() (inside an "op" span when tracing), then check it."""
        self.attempted += 1
        span = tracer.begin_op(op_id) if tracer is not None else None
        error = None
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:
            error = exc
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.end_op(span)
        if error is None:
            try:
                ok, exact = op.check(raw)
            except Exception as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            ok, exact = False, f"{type(error).__name__}: {error}"
        if not ok:
            self.failed += 1
            print(f"FAILED {op.label}: {exact[:500]}", file=sys.stderr)
        if digest:
            self.digest.update(f"{op.inputs}\t{exact}\n".encode())
        return latency


# A shared virtual machine may change speed by 20% or more from one minute to
# the next, for every process alike.  Before each op the worker times a fixed
# integer loop that allocates nothing lasting, so its time depends on the
# machine's speed alone, not on eulerdist, the heap it leaves or what it
# left in the caches.  Each round's op times are scaled by REFERENCE_S over
# the median of the round's loop timings, and set-up time by REFERENCE_S over
# the median of five timings right after it: reported times are at the speed
# at which the loop takes REFERENCE_S.  Raw wall times are reported beside.
REFERENCE_S = 1.2e-3


def time_reference() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(15000):
        x = (x * 31 + i) & 0xFFFFF
    return time.perf_counter() - t0


def _ops_per_s(op_ms: list[float]) -> float:
    """Ops completed per second of op time."""
    return len(op_ms) * 1000.0 / sum(op_ms)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic()")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tally = Tally()
    for op in workloads.warmup_ops(args.workload, args.seed):
        tally.run(op, -1)
    setup_wall_s = time.monotonic() - args.t0
    setup_s = setup_wall_s * REFERENCE_S / statistics.median(time_reference() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    # Per pass (traced or not): op times at reference speed, and raw.
    norm_ms = {True: [], False: []}
    wall_ms = {True: [], False: []}
    op_scale: list[float] = []  # reference-speed factor of each traced op
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 0
        ops = workloads.make_round(args.workload, args.seed, r)
        refs, lats = [], []
        if traced:
            tracer.install()
        try:
            for op in ops:
                refs.append(time_reference())
                op_id = len(op_scale) + len(lats)
                lats.append(tally.run(op, op_id, tracer if traced else None, digest=r == 0))
        finally:
            if traced:
                tracer.restore()
        scale = REFERENCE_S / statistics.median(refs)
        norm_ms[traced] += [lat * scale * 1000.0 for lat in lats]
        wall_ms[traced] += [lat * 1000.0 for lat in lats]
        if traced:
            op_scale += [scale] * len(lats)
        r += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or r % 2 == 0):
            break

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": r,
        "digest": tally.digest.hexdigest(),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "params": workloads.PARAMS[args.workload],
    }
    if tracer is None:
        ms, wall = norm_ms[False], wall_ms[False]
        result["metrics"] = {
            "ops_per_s": [_ops_per_s(ms), "1/s"],
            "op_ms.p50": [_percentile(ms, 50), "ms"],
            "op_ms.p90": [_percentile(ms, 90), "ms"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"],
        }
        result["wall"] = {
            "ops_per_s": [_ops_per_s(wall), "1/s"],
            "op_ms.p50": [_percentile(wall, 50), "ms"],
            "op_ms.p90": [_percentile(wall, 90), "ms"],
        }
        result["samples"] = len(ms)
    else:
        metrics = tracing.per_layer_metrics(
            tracer, op_scale, overhead=_ops_per_s(norm_ms[False]) / _ops_per_s(norm_ms[True])
        )
        result["metrics"] = {k: list(v) for k, v in metrics.items()}
        result["samples"] = len(op_scale)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
