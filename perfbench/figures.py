"""Reference figures quoted in perfbench/README.md.

    python3 perfbench/figures.py

Each figure is taken in a fresh interpreter, so "cold" means an empty
crossing cache and "warm" the same call repeated in that process.  The
counts come from the traced run's instruments (layers.py).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def measure(name: str) -> dict:
    sys.path[:0] = [SRC, HERE]
    import doublebase as db

    if name == "sweep60":
        cold, _ = _timed(lambda: db.sample_curve(1.05, 3.0, 60))
        warm, _ = _timed(lambda: db.sample_curve(1.05, 3.0, 60))
        return {"cold sample_curve(1.05, 3, 60) s": cold, "warm sample_curve(1.05, 3, 60) s": warm}
    if name == "g16":
        t, r = _timed(lambda: db.generalized_golden_ratio(16.0, max_depth=100))
        return {"cold G(16, max_depth=100) s": t, "G(16) node letters": len(r.node)}
    if name == "g101":
        t, r = _timed(lambda: db.generalized_golden_ratio(1.01))
        return {"cold G(1.01) s": t, "G(1.01) bracket": str(r.value)}
    if name == "g175":
        cold, _ = _timed(lambda: db.generalized_golden_ratio(1.75))
        warm, _ = _timed(lambda: db.generalized_golden_ratio(1.75))
        return {"cold G(1.75) ms": cold * 1e3, "warm G(1.75) ms": warm * 1e3}
    if name == "kl":
        t, r = _timed(db.kl_fixed_point)
        return {"cold kl_fixed_point() s": t, "kl_fixed_point() bracket": str(r)}
    if name in ("sweep40", "sweep40_traced"):
        tracer = None
        if name == "sweep40_traced":
            from layers import Tracer

            tracer = Tracer(db)
            tracer.start()
        t, _ = _timed(lambda: db.sample_curve(1.05, 3.0, 40))
        if tracer is None:
            return {"cold sample_curve(1.05, 3, 40) s": t}
        tracer.stop()
        m = tracer.metrics([])
        return {"traced sample_curve(1.05, 3, 40) s": t, "node_pi evaluations": m["series.evals"],
                "affine steps": m["series.affine_steps"], "crossings": m["critical.crossings"]}
    raise SystemExit(f"unknown figure {name}")


FIGURES = ("sweep60", "g16", "g101", "g175", "kl", "sweep40", "sweep40_traced")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        print(json.dumps(measure(sys.argv[2])))
        return
    rows = {}
    for name in FIGURES:
        proc = subprocess.run([sys.executable, __file__, "--one", name], stdout=subprocess.PIPE,
                              text=True, check=True, env=dict(os.environ, PYTHONHASHSEED="0"))
        rows.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    rows["profiler overhead (traced / untraced 40-point sweep)"] = (
        rows["traced sample_curve(1.05, 3, 40) s"] / rows["cold sample_curve(1.05, 3, 40) s"])
    for key, value in rows.items():
        print(f"{key:<55} {value:.4g}" if isinstance(value, float) else f"{key:<55} {value}")


if __name__ == "__main__":
    main()
