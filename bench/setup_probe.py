"""Time one fresh-process set-up of a workload: import gil, then build its inputs.

Usage: python3 bench/setup_probe.py <workload>
Prints the elapsed seconds and the same at the reference machine speed
(speed.py, sampled right after the set-up) as the only line of standard output.
"""

import sys
import time

t0 = time.perf_counter()
import benchenv  # noqa: E402,F401  (thread pinning before numpy)
import workloads  # noqa: E402  (imports gil)

workloads.WORKLOADS[sys.argv[1]].build_inputs()
elapsed = time.perf_counter() - t0

import speed  # noqa: E402

speed.sample()  # the kernel's first call in a fresh process is slow; not a sample
print(repr(elapsed), repr(speed.reference_time(elapsed, [speed.sample() for _ in range(5)])))
