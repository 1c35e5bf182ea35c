"""Self-test of the benchmark, about 15 seconds long:

    python3 perfbench/selftest.py

It checks that every layer entry point the tracer names resolves in the
library, that ``BENCHMARK.json`` lists exactly the metrics the code reports,
that a traced tiny pass of each workload passes its oracles and that span
self-times add up to each root span's duration, that the oracles reject
deliberately wrong answers, that geodesic's seeds change the points but not
the distances, and that the host-speed meter takes its kernel calls out of a
call's time.
"""

import json
import math
import sys
import time
from types import SimpleNamespace as NS

import hostspeed
import layertrace
import run
import workloads as wl


def iv(lower, upper):
    return NS(lower=lower, upper=upper)


def check_record(fail):
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != layertrace.metric_names():
        fail("BENCHMARK.json per_layer differs from layertrace.metric_names()")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_traced_tiny_passes(fail):
    tiny = (wl.Geodesic(resolution=24, seeded_pairs=1), wl.Verify(pairs=1),
            wl.Field(n=16, n_halfplane=8))
    for workload in tiny:
        tally = run.Tally(sample_during=False)
        try:
            workload.setup()
            metrics, tracer = run.traced_run(workload, 0, tally,
                                             wl.OUT_DIR / f"selftest-{workload.name}.csv")
        finally:
            workload.close()
        if tally.failed:
            fail(f"{workload.name}: {tally.failed} tiny queries failed their oracles")
        if not tracer.spans:
            fail(f"{workload.name}: the traced pass recorded no spans")
        bad = [r for r in tracer.self_time_residuals() if r != 0]
        if bad:
            fail(f"{workload.name}: self times miss root durations by {bad[:3]} ns")
        if sorted(metrics) != sorted(layertrace.metric_names()):
            fail(f"{workload.name}: traced metrics differ from metric_names()")


def check_oracles_reject(fail):
    import numpy as np
    from qhyp import FiniteComplement, UpperHalfPlane

    def rejects(what, problems):
        if not problems:
            fail(f"oracle accepted {what}")

    rejects("lower > upper", wl.interval_problems("x", iv(2.0, 1.0)))
    rejects("negative lower", wl.interval_problems("x", iv(-1.0, 1.0)))
    four = (0.0, 1.0, 1j, -1.5 + 0.5j)
    good_kc = iv(0.5, 1.0)
    rejects("disjoint k_numeric and k_interval_fast", wl.geodesic_pair_problems(
        "x", four, 2.0, 3.0, iv(10.0, 11.0), good_kc, iv(1.0, 2.0)))
    rejects("chordal above 128 k", wl.geodesic_pair_problems(
        "x", four, 2.0, 3.0, iv(1.0, 2.0), iv(300.0, 400.0), iv(1.0, 2.0)))
    rejects("chordal below k/4", wl.geodesic_pair_problems(
        "x", four, 2.0, 3.0, iv(1.0, 2.0), iv(0.01, 0.1), iv(1.0, 2.0)))
    # k_star between 1+0.5i and -0.5-0.5i about 0 is about 2.55
    rejects("one-puncture interval missing k_star", wl.geodesic_pair_problems(
        "x", (0.0,), 1.0 + 0.5j, -0.5 - 0.5j, iv(1.0, 2.0), good_kc, iv(1.0, 3.0)))

    clean = NS(violations=())
    rejects("h above 2k", wl.verify_pair_problems(
        "x", iv(5.0, 6.0), iv(1.0, 2.0), iv(1.0, 2.0), clean, 1.0, 10.0)[0])
    rejects("a proved violation", wl.verify_pair_problems(
        "x", iv(0.1, 0.2), iv(0.1, 0.2), iv(100.0, 101.0), clean, 1.0, 1.0)[0])
    if wl.rough_isometry_verdict(iv(1.0, 2.0), iv(1.0, 2.0), 1.0, 5.0) != "proved":
        fail("verdict does not prove an easy window")
    if wl.rough_isometry_verdict(iv(1.0, float("inf")), iv(1.0, 2.0), 1.0, 0.5) \
            != "inconclusive":
        fail("verdict with an infinite h bound is not inconclusive")

    punctures = (0.0, 1.0)
    dom = FiniteComplement(list(punctures))
    z = np.array([0.5 + 0.5j, 2.0 - 1.0j, -1.0 + 0.25j])
    delta = np.min(np.abs(z[:, None] - np.asarray(punctures)[None, :]), axis=1)
    if wl.field_problems("x", "delta", dom, punctures, z, delta)[0]:
        fail("oracle rejected a correct delta map")
    rejects("a wrong delta map",
            wl.field_problems("x", "delta", dom, punctures, z, delta * (1 + 1e-6))[0])
    rejects("negative beta",
            wl.field_problems("x", "beta", dom, punctures, z, -np.ones(3))[0])
    rejects("bp-upper below bp-lower",
            wl.field_problems("x", "bp-upper", dom, punctures, z, np.full(3, 1e-9))[0])
    rejects("a vanishing half-plane chordal density", wl.field_problems(
        "x", "chordal-qh-density", UpperHalfPlane(), (), z, np.array([1.0, 0.0, 1.0]))[0])


def check_geodesic_images(fail):
    # the first pass of seeds 0-3 puts each problem in four different images
    workload = wl.Geodesic(resolution=24, seeded_pairs=1)
    workload.build()
    for position in (0, 2):
        queries = [next(workload.passes(seed))[position] for seed in range(4)]
        got = [q.call().distance for q in queries]
        lows = [d.lower for d in got]
        if max(lows) - min(lows) > 1e-9 * max(lows):
            fail(f"{queries[0].label}: images of one problem give lower bounds {lows}")


def check_meter(fail):
    meter = hostspeed.Meter()
    t0 = time.perf_counter()
    meter.run(lambda: time.sleep(0.35))
    elapsed = time.perf_counter() - t0
    # three or so kernel calls ran during the sleep and are not counted
    if not 0.3 <= meter.raw < 0.35 or not math.isclose(meter.seconds,
                                                        meter.raw * meter.factor):
        fail(f"meter read {meter.raw!r} s of a 0.35 s sleep ({elapsed!r} s with its bursts)")


def main():
    wl.use_checkout_src()
    failures = []
    absent = layertrace.absent_entry_points()
    if absent:
        failures.append(f"entry points do not resolve: {absent}")
    for step in (check_record, check_traced_tiny_passes, check_oracles_reject,
                 check_geodesic_images, check_meter):
        step(failures.append)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
