"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``, never by hand.  A fresh process per repetition means
every ``lru_cache`` and plugin cache starts cold, as it does for a user on
each CLI call.  The worker imports freqalloc from ``src/`` of the checkout
it lives in, sets up, runs and checks the workload, and prints one JSON line
with its measurements.  Every timing is read from the clock of
``speed.py``, in seconds at the reference speed.  Set-up is timed from the
start of ``main()``: the interpreter's own start before it (about 50 ms on
a 2-core Xeon host, most of it site-packages' start-up, with a 30% spread
between starts) owes nothing to freqalloc, and no change to freqalloc can
move work into it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    probe = SpeedProbe()
    probe.start()
    clock = probe.clock
    started = clock()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir, clock)
    t0 = clock()
    workload.generate()
    gen_s = clock() - t0

    sys.path.insert(0, str(SRC))
    import freqalloc

    if SRC not in Path(freqalloc.__file__).resolve().parents:
        sys.stderr.write(f"freqalloc was imported from {freqalloc.__file__}, "
                         f"not from {SRC}\n")
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock)
        tracer.install()
    workload.setup()

    t0 = clock()
    workload.run()
    run_s = clock() - t0 - workload.deferred_setup_s
    probe.stop()

    digests = workload.check()
    result = {
        # less the benchmark's own input generation
        "setup_s": t0 - started - gen_s + workload.deferred_setup_s,
        "run_s": run_s,
        "requests": workload.requests,
        "latencies_s": workload.latencies_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "digests": digests,
    }
    if tracer is not None:
        tracer.out_bytes = workload.out_bytes
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(str(args.workdir / "spans.npz"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
