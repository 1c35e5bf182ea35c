"""Set up one workload in this fresh process and print the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD

``run.py`` starts this several times per run and reports the median set-up.
"""

import sys
import time

import workloads as wl


def main():
    wl.use_checkout_src()
    workload = wl.WORKLOADS[sys.argv[1]]()
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    workload.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
