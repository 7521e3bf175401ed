"""One round of one workload, in a fresh interpreter.

Usage: python3 perfbench/round.py <workload> <seed> <traced 0|1> <spawned> [<digest>]

Imports doublebase from the src/ directory of the checkout this file
sits in, runs the workload's setup and timed phase and prints one JSON
line for run.py.  The outputs are checked unless <digest> is given and
equals the digest of this round's outputs: the inputs depend only on the
seed, so equal digests mean the outputs of an already checked round.
<spawned> is the parent's time.monotonic() when it started this process
(Linux's monotonic clock is shared by all processes); setup_s runs from
there to the start of the timed phase.  An untraced round samples the
machine's speed from its first line on (speed.py), leaves the probes'
time out of setup_s and each call's latency, and reports both also at
reference speed, as `scaled_*`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    name, seed, traced, spawned = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
    expected = argv[5] if len(argv) > 5 else None
    sys.path[:0] = [SRC, HERE]
    from speed import Speedometer

    speed = None if traced else Speedometer()
    if speed:
        speed.start()
    import doublebase as db

    if not os.path.abspath(db.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"doublebase imported from {db.__file__}, not from {SRC}")
    from workloads import WORKLOADS, Ops, bracket, fingerprint

    workload = WORKLOADS[name](seed)
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer(db)
    workload.setup(db)
    ops = Ops()
    if tracer:
        tracer.start()
    ready = time.monotonic()
    workload.run(db, ops)
    if tracer:
        tracer.stop()
    if speed:
        speed.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256("\n".join(map(fingerprint, ops)).encode()).hexdigest()
    result = {
        "setup_s": ready - spawned,
        "rss_mb": rss_mb,
        "latencies_ms": [op.seconds * 1e3 for op in ops],
        "attempted": len(ops),
        "digest": digest,
        "checked": digest != expected,
    }
    if result["checked"]:
        workload.check(db, ops)
        result.update(
            failed=sum(op.failure is not None for op in ops),
            wrong=sum(op.wrong for op in ops),
            failures=sorted({op.failure for op in ops if op.failure})[:8],
            widths=[(b[1] - b[0]) / (0.5 * (b[0] + b[1]))
                    for op in ops if op.failure is None and (b := bracket(op.out)) is not None],
        )
    if speed:  # times without the probes, and at reference speed
        result["setup_s"], result["scaled_setup_s"] = speed.measure(spawned, ready)
        both = [speed.measure(op.start, op.start + op.seconds) for op in ops]
        result["latencies_ms"] = [wall * 1e3 for wall, _ in both]
        result["scaled_ms"] = [scaled * 1e3 for _, scaled in both]
    if tracer:
        result["layers"] = tracer.metrics(ops)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
