"""qhyp benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload {geodesic,verify,field} --seed N \
        --seconds S --trace {0,1}

A single caller in a single thread sends each query after the previous one
returned.  Queries come in passes (a workload's query set); passes run until
the next one would end more than ``--seconds`` after the first began, and at
least one runs.  Each query's output is checked after the clock stops.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the first pass plain, traced and plain again, reports the per-layer
metrics with per-query counts, and writes the spans to ``perfbench/out/``.
Every timing is scaled to a reference host speed (see ``hostspeed.py``); the
raw seconds are printed beside the scaled ones.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit status
is 1 when any query failed or any oracle rejected an output.
"""

import os

# One thread for every numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import layertrace
import workloads as wl

HERE = Path(__file__).resolve().parent
# Set-ups measured per run, each in a fresh child process.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_s": "s",
                    "query_max_s": "s", "peak_rss_mb": "MB", "log_width_mean": "ln"}


def measure_setup(workload):
    """Scaled set-up seconds, one per fresh child process; then this process
    sets the workload up, untimed, for the queries."""
    samples = []
    # no kernel calls during a probe: they would compete with the child
    meter = hostspeed.Meter(during=False)
    for _ in range(SETUP_SAMPLES):
        proc = meter.run(lambda: subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            capture_output=True, text=True, timeout=170, check=False))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) * meter.factor)
    workload.setup()
    return samples


class Tally:
    """Query latencies, failures and oracle findings of one run."""

    def __init__(self, sample_during=True):
        # kernel calls during a query would land in the tracer's spans
        self.sample_during = sample_during
        self.latencies = []  # scaled to the reference host speed
        self.raw = []
        self.outcomes = []
        self.failed = 0

    def run_pass(self, queries, tracer=None):
        """Run a pass's queries back to back, each timed by a host-speed meter,
        then check their outputs; returns the pass's scaled query latencies."""
        results = []
        meter = hostspeed.Meter(during=self.sample_during)
        for q in queries:
            if tracer is not None:
                tracer.query = q.label
            try:
                results.append((True, meter.run(q.call)))
            except Exception:
                results.append((False, traceback.format_exc()))
            self.raw.append(meter.raw)
            self.latencies.append(meter.seconds)
            print(f"query {q.label} {meter.seconds:.6f} s (raw {meter.raw:.6f} s, "
                  f"host factor {meter.factor:.6f})")
        if tracer is not None:
            tracer.remove()
        for q, (ok, value) in zip(queries, results):
            if ok:
                try:
                    outcome = q.check(value)
                except Exception:
                    outcome = wl.Outcome([f"{q.label}: oracle raised\n{traceback.format_exc()}"])
            else:
                outcome = wl.Outcome([f"{q.label}: query raised\n{value}"])
            self.failed += bool(outcome.problems)
            for problem in outcome.problems:
                print(f"FAILED {problem}", file=sys.stderr)
            self.outcomes.append(outcome)
        return self.latencies[-len(queries):]

    def width_sums(self):
        """Per kind of enclosure, the summed log widths and their count."""
        sums, counts = {}, {}
        for o in self.outcomes:
            for kind, total, n in o.widths:
                sums[kind] = sums.get(kind, 0.0) + total
                counts[kind] = counts.get(kind, 0) + n
        return sums, counts

    def report(self):
        n = len(self.latencies)
        print(f"queries {n}, failed {self.failed}, failed_frac {self.failed / n:.6g}")
        flags = [o.inconclusive for o in self.outcomes if o.inconclusive is not None]
        if flags:
            print(f"inconclusive_frac {sum(flags) / len(flags):.6g} "
                  f"({sum(flags)} of {len(flags)})")
        sums, counts = self.width_sums()
        for kind in sorted(sums):
            if counts[kind]:
                print(f"{kind}_log_width_mean {sums[kind] / counts[kind]:.6g} ln "
                      f"({counts[kind]} finite enclosures)")


def measured_run(workload, seed, seconds, tally):
    """Scaled latencies per pass; passes, with their oracles, run until the
    next would end more than ``seconds`` after the first began."""
    passes = []
    t0 = time.perf_counter()
    for queries in workload.passes(seed):
        passes.append(tally.run_pass(queries))
        spent = time.perf_counter() - t0
        if spent + spent / len(passes) > seconds:
            return passes


def traced_run(workload, seed, tally, spans_path):
    """Run the first pass plain (to warm up), traced, and plain again; the
    overhead compares the traced pass with the second plain one."""
    tally.run_pass(next(workload.passes(seed)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.query = "setup"
        workload.build()
        traced_s = sum(tally.run_pass(next(workload.passes(seed)), tracer))
    finally:
        tracer.remove()
    plain_s = sum(tally.run_pass(next(workload.passes(seed))))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    print(f"exercises: {', '.join(workload.exercises)}")
    print(f"bypasses: {', '.join(workload.bypasses)}")
    for line in workload.predictions:
        print(f"predicts: {line}")
    tracer.write(str(spans_path))
    for query, counts in tracer.by_query.items():
        print(f"counts {query}: " + " ".join(f"{k}={v:g}" for k, v in sorted(counts.items())))
    if tracer.absent:
        print(f"absent entry points: {', '.join(tracer.absent)}")
    print(f"spans written to {spans_path}")
    return metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl.use_checkout_src()

    workload = wl.WORKLOADS[args.workload]()
    tally = Tally(sample_during=not args.trace)
    try:
        setup = measure_setup(workload)
        print(f"workload {workload.name}: {workload.why}")
        if args.trace:
            spans_path = wl.OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
            values, _ = traced_run(workload, args.seed, tally, spans_path)
            units = {name: layertrace.unit(name) for name in values}
        else:
            passes = measured_run(workload, args.seed, args.seconds, tally)
            sums, counts = tally.width_sums()
            # passes repeat the same queries: each query's latency is its
            # median over the passes, so that the run's median and maximum do
            # not depend on how many passes fitted in
            per_query = list(map(statistics.median, zip(*passes)))
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(map(sum, passes)),
                "query_p50_s": statistics.median(per_query),
                "query_max_s": max(per_query),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "log_width_mean": sum(sums.values()) / max(1, sum(counts.values())),
            }
            units = END_TO_END_UNITS
            print(f"passes {len(passes)}, setup samples {len(setup)}, "
                  f"raw query seconds {sum(tally.raw):.6g}")
    finally:
        workload.close()
    tally.report()
    for name, value in values.items():
        count = f" ({len(tally.latencies)} queries)" if name.startswith("query_") else ""
        print(f"{name} {value:.6g} {units[name]}{count}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": len(tally.latencies),
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
