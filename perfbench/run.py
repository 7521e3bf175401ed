"""doublebase benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload curve_sweep --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload, each in a fresh interpreter
(round.py), until --seconds have passed, then prints a report and, as
the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The first round checks its outputs; later rounds only check
when their outputs differ from the first round's.

With --trace 0 the metrics are the end-to-end ones, in seconds at
reference speed: each round samples the machine's speed all through and
scales every call's latency and its own set-up by it (speed.py), since
on a shared host the same code runs up to twice as slow for periods of
tenths of a second to minutes.  Every round makes the same calls in the
same order; each call is represented by its median scaled latency over
the rounds.  run_s is the sum of these, op_p50_ms their median, setup_s
the median of the rounds' scaled set-up and peak_rss_mb the median over
rounds.  The report above the JSON line also shows the wall-clock
figures, which are not gated.
With --trace 1 each step runs one untraced and one traced round; the
metrics are the per-layer ones, medians over the traced rounds, plus
trace_overhead, traced over untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curve_sweep", "warm_queries", "deep_spine", "symbolic")
DEADLINE_S = 170  # every child is killed before the run passes this

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, traced: bool, timeout: float, first: dict | None) -> dict:
    """One round in a fresh interpreter; `first` is the run's first round,
    whose check verdicts carry over when the outputs are the same."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("DOUBLEBASE_PRECISION", None)  # measure the library's defaults
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "round.py"), workload, str(seed), "1" if traced else "0", repr(spawned)]
    if first is not None:
        cmd.append(first["digest"])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round of {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round of {workload} exited with code {proc.returncode}")
    data = json.loads(lines[-1])
    if not data["checked"]:
        data.update({k: first[k] for k in ("failed", "wrong", "failures", "widths")})
    return data


def per_call(rounds: list[dict], key: str) -> list[float]:
    """Call i's median latency over the rounds, in ms."""
    return [statistics.median(lat) for lat in zip(*(r[key] for r in rounds))]


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """The gated metrics, and the ones printed only for reference."""
    calls = per_call(rounds, "scaled_ms")
    gated = {
        "setup_s": statistics.median(r["scaled_setup_s"] for r in rounds),
        "run_s": sum(calls) / 1e3,
        "op_p50_ms": statistics.median(calls),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    extra = {}
    if len(calls) >= 100:  # at least ten calls beyond the percentile
        extra["op_p90_ms"] = (statistics.quantiles(calls, n=10)[-1], "ms")
    if rounds[0]["widths"]:
        extra["bracket_width_p50"] = (statistics.median(rounds[0]["widths"]), "1")
    extra["wall_setup_s"] = (statistics.median(r["setup_s"] for r in rounds), "s")
    extra["wall_run_s"] = (sum(per_call(rounds, "latencies_ms")) / 1e3, "s")
    return gated, extra


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER if name != "trace_overhead"}
    out["trace_overhead"] = (sum(per_call(traced, "latencies_ms"))
                             / sum(per_call(untraced, "latencies_ms")))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "doublebase" / "__init__.py").is_file():
        print(f"no doublebase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    untraced, traced = [], []
    try:
        while True:
            for is_traced, sink in ((False, untraced), (True, traced))[: 1 + args.trace]:
                left = DEADLINE_S - (time.monotonic() - begin)
                first = untraced[0] if untraced else None
                sink.append(run_round(args.workload, args.seed, is_traced, left, first))
            if time.monotonic() - begin >= args.seconds:
                break
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["wrong"] == 0 for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(untraced)}"
          f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    for reason in sorted({f for r in rounds for f in r["failures"]}):
        print(f"  failed: {reason}")
    gated, extra = end_to_end(untraced)
    shown = {k: (v, END_TO_END[k]) for k, v in gated.items()}
    shown.update(extra)
    if args.trace:
        shown = {k: (v, PER_LAYER[k]) for k, v in per_layer(untraced, traced).items()}
    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()
               if name in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
