#!/usr/bin/env python3
"""extlab benchmark: seeded workloads, end-to-end metrics, per-layer traces.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a source checkout; extlab is imported from its
`src` directory.  One process, one thread, closed loop: each op starts
when the previous one returns, and a pass runs every op of the workload
once.  Passes repeat until --seconds would be exceeded (at least one).
`--workload all` runs every workload in its own fresh process, one after
another.

Times are read from a HostClock (see hostclock.py): seconds at a fixed
reference speed of the host, measured by a probe that a timer signal
runs every 50 ms, so that the host's changing speed does not show as a
change of the program.  Raw wall times are printed above the result.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1, extlab's entry points are wrapped
(see tracing.py) for set-up and for every other pass, and the result
holds the per-layer metrics of the traced passes and the tracing
overhead (median traced pass minus median untraced pass).  Spans are
written to perfbench/out/ at exit.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hostclock import REFERENCE_PROBE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("torus", "window-lp", "batch")
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_p90_s": "s", "peak_rss_mb": "MiB", "decided_ratio": "ratio"}


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.decided = 0
        self.samples = defaultdict(list)   # op position -> times
        self.raw_wall = defaultdict(float)  # pass index -> wall seconds
        self.peak_rss_mb = None  # through set-up and the first pass


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(ops, tally, clock, tracer=None, index=0):
    """Run every op once, timing each on `clock`; return the pass's
    summed op time."""
    wall = 0.0
    for position, op in enumerate(ops):
        if tracer:
            tracer.begin_op(index, op.name)
        start, raw = clock.now(), perf_counter()
        try:
            result, error = op.run(), None
        except Exception:  # an unexpected exception is a failed op
            result, error = None, traceback.format_exc(limit=3)
        elapsed = clock.now() - start
        tally.raw_wall[index] += perf_counter() - raw
        wall += elapsed
        tally.samples[position].append(elapsed)
        tally.attempted += 1
        if error is None:
            try:
                decided, error = op.check(result)
            except Exception:
                decided, error = False, traceback.format_exc(limit=3)
            tally.decided += decided and error is None
        if error is not None:
            tally.failed += 1
            print(f"FAILED {op.name}: {error}", file=sys.stderr)
    return wall


def run_passes(ops, until, tally, clock, tracer=None):
    """Run whole passes until the next one, if it took as long as the
    last, would end after `until`.

    With a tracer, passes alternate untraced and traced, starting
    untraced, so that both kinds see the same host; there is at least
    one of each.  Returns {traced: [(pass index, wall)]}.
    """
    walls, costs = {False: [], True: []}, []
    while True:
        index = len(costs)
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        began = perf_counter()
        if traced:
            tracer.install()
        try:
            wall = run_pass(ops, tally, clock, tracer if traced else None,
                            index)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append((index, wall))
        if tally.peak_rss_mb is None:
            tally.peak_rss_mb = peak_rss_mb()
        costs.append(perf_counter() - began)
        if ((tracer is None or walls[True])
                and perf_counter() + costs[-1] > until):
            return walls


def set_up(workload, seed, workdir, tracer=None):
    """Import extlab and build the seeded inputs.  With a tracer, the
    wrappers are built and installed right after the import, so that
    set-up's own calls are traced, and removed afterwards."""
    import workloads
    lib = workloads.import_extlab(SRC)
    count = lambda name, value=1: None
    if tracer:
        tracer.wrap(lib)
        tracer.install()
        tracer.begin_op(-1, "setup")
        count = tracer.count
    try:
        return workloads.BUILDERS[workload](lib, random.Random(seed),
                                            workdir, count)
    finally:
        if tracer:
            tracer.uninstall()


def op_percentiles(tally):
    """Median and 90th percentile over ops of each op's median time.

    Taking each op's median first makes the figures independent of how
    many passes fit in the run, which on a workload of a few large ops
    would otherwise move the percentiles between instances.
    """
    times = [statistics.median(t) for t in tally.samples.values()]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return statistics.median(times), p90


def run_workload(args):
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    began = perf_counter()
    tally = Tally()
    clock = HostClock()
    try:
        deadline = began + args.seconds
        clock.start()
        if not args.trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                ops = None    # free the last set-up's inputs, untimed
                gc.collect()
                start = clock.now()
                ops = set_up(args.workload, args.seed, workdir)
                setups.append(clock.now() - start)
            walls = [w for _, w in
                     run_passes(ops, deadline, tally, clock)[False]]
            p50, p90 = op_percentiles(tally)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "op_p50_s": p50,
                "op_p90_s": p90,
                "peak_rss_mb": tally.peak_rss_mb,
                "decided_ratio": tally.decided / tally.attempted,
            }
            units = END_TO_END
            notes = [f"{len(ops)} ops per pass, {len(walls)} passes"]
        else:
            from tracing import Tracer, LAYER_UNITS
            tracer = Tracer(clock.now)
            ops = set_up(args.workload, args.seed, workdir, tracer)
            walls = run_passes(ops, deadline, tally, clock, tracer)
            plain = [w for _, w in walls[False]]
            traced = [w for _, w in walls[True]]
            metrics = {name: 0.0 for name in LAYER_UNITS}
            metrics.update((k, v) for k, v in tracer.layer_metrics(
                [i for i, _ in walls[True]]).items() if k in LAYER_UNITS)
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(plain))
            units = LAYER_UNITS
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / (f"trace-{args.workload}-seed{args.seed}"
                                ".jsonl.gz")
            tracer.write(trace_path)
            notes = [f"{len(ops)} ops per pass, {len(plain)} untraced and "
                     f"{len(traced)} traced passes, alternating, "
                     f"{len(tracer.spans)} spans in "
                     f"{trace_path.relative_to(ROOT)}"]
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    raw = statistics.median(tally.raw_wall.values())
    notes.append(f"raw wall time per pass {raw:.3f} s (median); host probe "
                 f"{statistics.median(clock.probes) * 1e6:.0f} us (median of "
                 f"{len(clock.probes)}; reference "
                 f"{REFERENCE_PROBE_S * 1e6:.0f} us)")
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(notes))
    print(f"failed_ratio {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 600)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if (proc.returncode or not lines
                or not json.loads(lines[-1])["correct"]):
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extlab" / "__init__.py").is_file():
        print(f"extlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
