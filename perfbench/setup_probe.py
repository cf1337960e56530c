"""Measures set-up in a fresh process: import the package, then run the
workload's warm-up jobs.  Prints ``{"setup_s": ...}``, in seconds at the
reference speed of speed.py; run.py starts it.

    python3 perfbench/setup_probe.py eval
"""

import json
import sys
from time import perf_counter

from execute import Executor, load
from speed import Gauge
from workloads import warmup_jobs


def main():
    jobs = warmup_jobs(sys.argv[1])
    gauge = Gauge()
    for _ in range(3):
        gauge.tick(force=True)
    start = perf_counter()
    executor = Executor(load())
    for job in jobs:
        executor.run(job)
    end = perf_counter()
    for _ in range(3):
        gauge.tick(force=True)
    print(json.dumps({"setup_s": (end - start) * gauge.factor(start, end)}))


if __name__ == "__main__":
    main()
