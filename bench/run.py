"""freqalloc benchmark: time to verdict, and allocator throughput and latency.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The workloads, their metrics and units,
and the reason each workload was chosen are listed in ``BENCHMARK.json``;
their inputs and checks are in ``workloads.py``: check-golden,
check-plugin, replay-universal and replay-random.  Each repetition runs in
a fresh interpreter (``worker.py``), one after another, pinned to one CPU
and alternating between the CPUs the benchmark may use.  A run makes
round(S / rep_s) repetitions (at least MIN_REPS), where rep_s is a fixed
figure per workload, so the number of repetitions depends on S alone and
never on how fast the code is.  Each metric is computed within each
repetition, and the run reports its median over the repetitions.

Every timing is in seconds at a reference machine speed, read from the
clock of ``speed.py``: a probe times a fixed kernel on the worker's core
every 10 ms, and the clock runs slower while the core does.  Other tenants
of the shared host change its speed by up to 1.6x, within seconds and over
minutes, which raw timings cannot tell apart from a change in the code.

End-to-end metrics (``--trace 0``), one closed-loop caller:

  setup_s          from the worker's first statement to ready: importing
                   freqalloc; on replay-* also building the golden system,
                   and on replay-random ``BipartiteInstance.from_edges``
                   and ``Allocator(...)``; on check-plugin also the child's
                   start and first reply, timed inside the CLI's first
                   plugin query.  (Each CLI call builds its own system,
                   inside run_s.)  Neither the interpreter's own start
                   (see ``worker.py``) nor the benchmark's input generation
                   is counted.
  run_s            first call into freqalloc to last result, less the
                   set-up above: the time to verdict of the CLI calls on
                   check-*, the time to serve every request on replay-*.
  requests_per_s   requests served per second of run_s.  A request is one
                   ``Allocator.request`` on replay-*, one ``cli.main`` call
                   on check-*.
  call_us.p50/p99  nearest-rank percentiles of the duration of each call
                   the benchmark makes: each ``cli.main`` on check-* (3 on
                   check-golden, 1 on check-plugin), the ``run_universal``
                   call on replay-universal, each ``Allocator.request`` on
                   replay-random (6000, so 60 beyond the p99).
  peak_rss_mb      ``ru_maxrss`` of the worker process.

Failures (an exception, a wrong exit code or verdict, output bytes that
differ from the reference, or outputs that differ between repetitions of
one input) are
counted in ``failed`` against ``attempted``; error_rate = failed/attempted
is printed with the table.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of ``tracer.py`` instead,
with trace.overhead_ratio = traced run_s / untraced run_s, each a median.
Per-layer counts must repeat exactly between traced repetitions of one
input; each per-layer metric is a median over the traced repetitions.  The
spans of the last traced repetition are kept in ``.bench_work/``.

``trajectory.jsonl`` holds one line per measured commit and workload: the
median and quartiles of each end-to-end metric over ten runs with distinct
seeds, with the machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_REPS = 3
# stop starting repetitions once one more could end past this many seconds
HARD_LIMIT_S = 150.0
# single-threaded workers: no BLAS thread pools behind numpy
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
COUNT_UNITS = ("count", "bytes")


def run_worker(workload: str, seed: int, trace: int, workdir: Path, cpu: int,
               deadline: float) -> dict:
    """One repetition; a crash or timeout comes back as one failed operation."""
    workdir.mkdir()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir),
           "--cpu", str(cpu)]
    spawn_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawn_at))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": ["worker timed out"]}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "errors": [f"worker exited with code {proc.returncode}"]}
    rec = json.loads(lines[-1])
    rec["wall_s"] = time.monotonic() - spawn_at
    return rec


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Each metric within each repetition, then its median over the
    repetitions."""
    def per_rep(r: dict) -> dict[str, float]:
        return {
            "setup_s": r["setup_s"],
            "run_s": r["run_s"],
            "requests_per_s": r["requests"] / r["run_s"],
            "call_us.p50": percentile(r["latencies_s"], 50) * 1e6,
            "call_us.p99": percentile(r["latencies_s"], 99) * 1e6,
            "peak_rss_mb": r["peak_rss_mb"],
        }
    values = [per_rep(r) for r in reps]
    return {name: statistics.median(v[name] for v in values) for name in values[0]}


def per_layer(plain: list[dict], traced: list[dict], units: dict[str, str],
              errors: list[str]) -> dict[str, float]:
    """Each metric's median over the traced repetitions; a count must repeat
    exactly between repetitions of one input."""
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if units[name] in COUNT_UNITS:
            by_seed: dict[int, set] = {}
            for r in traced:
                by_seed.setdefault(r["seed"], set()).add(r["layers"][name])
            if any(len(counts) > 1 for counts in by_seed.values()):
                errors.append(f"{name} differs between traced repetitions of one "
                              f"input: {values}")
            metrics[name] = statistics.median_low(values)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        end_to_end(traced)["run_s"] / end_to_end(plain)["run_s"])
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the finally blocks stop the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "freqalloc" / "__init__.py").is_file():
        sys.stderr.write(f"no freqalloc sources under {ROOT / 'src'}; run from "
                         "the root of a freqalloc checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    workload = WORKLOADS[args.workload]

    modes = (0, 1) if args.trace else (0,)
    planned = max(MIN_REPS, round(args.seconds / (len(modes) * workload.rep_s)))
    cpus = sorted(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    start = time.monotonic()
    reps: list[tuple[int, dict]] = []
    try:
        for i in range(planned):
            for mode in modes:
                seed = workload.rep_seed(args.seed, i)
                rec = run_worker(args.workload, seed, mode, rundir / f"rep{len(reps)}",
                                 cpus[i % len(cpus)], start + HARD_LIMIT_S)
                rec["seed"] = seed
                reps.append((mode, rec))
            done = [r["wall_s"] for _, r in reps if "wall_s" in r]
            if not done or (time.monotonic() - start
                            + len(modes) * max(done) > HARD_LIMIT_S):
                break
        traced = [(i, r) for i, (m, r) in enumerate(reps) if m == 1 and "wall_s" in r]
        if traced:
            shutil.copy(rundir / f"rep{traced[-1][0]}" / "spans.npz",
                        WORK / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    errors = [e for _, r in reps for e in r["errors"]]
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)
    outputs: dict[int, set] = {}
    for _, r in reps:
        if "wall_s" in r:
            outputs.setdefault(r["seed"], set()).add(tuple(r["digests"]))
    if any(len(digests) > 1 for digests in outputs.values()):
        errors.append("outputs differ between repetitions of one input")
        failed += 1
    plain = [r for m, r in reps if m == 0 and "wall_s" in r]
    traced = [r for _, r in traced]
    if not plain or (args.trace and not traced):
        sys.stderr.write("no repetition completed:\n  " + "\n  ".join(errors) + "\n")
        return 1
    if args.trace:
        before = len(errors)
        metrics = per_layer(plain, traced, units, errors)
        failed += len(errors) - before
    else:
        metrics = end_to_end(plain)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json lists "
                           f"{sorted(units)}")

    print(f"workload {args.workload}: {why}")
    print(f"  seed {args.seed} ({workload.seed_use}); {len(plain)} untraced and "
          f"{len(traced)} traced repetitions of {planned} planned, each in a "
          "fresh interpreter")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  call_us: percentiles of {len(plain[0]['latencies_s'])} calls "
              "in each repetition, median over the repetitions")
    print(f"  error_rate {failed / max(1, attempted):.6g} "
          f"({failed} failed of {attempted} operations)")
    for e in errors:
        print(f"  error: {e}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
