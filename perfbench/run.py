"""The eulerdist benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload solve-escalate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from the root of a source checkout; `eulerdist` is imported from its
`src/`, nothing needs installing.  Each measurement runs `worker.py` in a
fresh interpreter with BLAS and OpenMP pinned to one thread: a closed loop,
one client, no threads.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

`--all` measures every workload untraced and traced, and prints the
end-to-end table (with fail_ratio and sample counts), the output digests and
the per-layer table.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-escalate", "solve-fanout", "desk-checks")
# Set-up is measured this many times per untraced run; the median is reported.
SETUP_SAMPLES = 3
# Every run must end within 180 s; leave room to print and exit.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker run")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run: untraced (with repeated set-up probes) or traced."""
    base = ["--workload", workload, "--seed", str(seed)]
    probes = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            probes.append(_worker(base + ["--seconds", "0", "--setup-only"], deadline))
    res = _worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    wall = res.get("wall", {})
    if not trace:
        probes.append(res)
        setup_s = statistics.median(p["setup_s"] for p in probes)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        wall = {"setup_s": [statistics.median(p["setup_wall_s"] for p in probes), "s"], **wall}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "samples": res["samples"],
        "rounds": res["rounds"],
        "digest": res["digest"],
        "params": res["params"],
        "metrics": metrics,
        "wall": wall,
    }


def _print_summary(m: dict) -> None:
    fail_ratio = m["failed"] / m["attempted"]
    kind = "traced" if m["trace"] else "untraced"
    print(
        f"{m['workload']} seed {m['seed']} ({kind}): {m['attempted']} ops attempted, "
        f"{m['samples']} timed in {m['rounds']} rounds, fail_ratio {fail_ratio:g}"
    )
    print(f"  params {json.dumps(m['params'])}")
    print(f"  digest round0 sha256={m['digest']}")


def _print_metrics(m: dict) -> None:
    for name, mv in m["metrics"].items():
        print(f"  {name:34s} {mv['value']:14.6g} {mv['unit']}")
    for name, (value, unit) in m["wall"].items():
        print(f"  {name + ' (raw wall)':34s} {value:14.6g} {unit}")


def _run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    _print_summary(m)
    _print_metrics(m)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: m[k] for k in keys}))
    return 0


def _run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        for trace in (False, True):
            deadline = time.monotonic() + DEADLINE_S
            m = measure(w, args.seed, args.seconds, trace, deadline)
            _print_summary(m)
            results[(w, trace)] = m
    print("\nend-to-end (untraced)")
    for w in WORKLOADS:
        m = results[(w, False)]
        print(f"{w}: {m['samples']} samples, fail_ratio {m['failed'] / m['attempted']:g}")
        _print_metrics(m)
    print("\nper-layer (traced), per op")
    names = list(results[(WORKLOADS[0], True)]["metrics"])
    print(f"  {'metric':34s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        row = [results[(w, True)]["metrics"][name] for w in WORKLOADS]
        print(f"  {name:34s}" + "".join(f"{mv['value']:16.6g}" for mv in row) + f"  {row[0]['unit']}")
    summary = {
        "correct": all(m["correct"] for m in results.values()),
        "attempted": sum(m["attempted"] for m in results.values()),
        "failed": sum(m["failed"] for m in results.values()),
        "workloads": {
            w: {
                "digest": results[(w, False)]["digest"],
                "metrics": results[(w, False)]["metrics"],
                "per_layer": results[(w, True)]["metrics"],
            }
            for w in WORKLOADS
        },
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not (ROOT / "src" / "eulerdist" / "__init__.py").is_file():
        print(f"error: no eulerdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return _run_all(args) if args.all else _run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
