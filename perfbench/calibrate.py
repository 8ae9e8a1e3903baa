"""Calibration of the host-speed adjustment in ``hostspeed.py``.

    python3 perfbench/calibrate.py --workload rshm-cluster --inject memory

The adjustment divides each timed window by the speed of a small kernel
that runs inside the program's process.  If the program's own work slowed
the kernel, through the caches and memory the two share, the adjustment
would cancel part of any slowdown of the program.  This script measures
that.  It runs one pass of the workload, putting extra work into every
forward solve of the simplex (``_Factor.ftran``, at least one per pivot)
in alternate ``SLOT_S`` slots only.  Adjacent slots share the host's speed,
so comparing the slots with extra work to those without gives

* the program's slowdown: forward solves per second, plain over slowed;
* the kernel's slowdown: its mean rate, plain over slowed.  At 1 the
  adjusted time shows the program's whole slowdown; at r it shows 1/r.

``--inject cpu`` repeats each forward solve, the program's own kind of work.
``--inject memory`` instead writes the next 1 MiB of a 64 MiB buffer at each
forward solve, which grows the working set and evicts the caches.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SLOT_S = 0.5
CHUNK = 1 << 17            # float64 values: 1 MiB
BUFFER_CHUNKS = 64


def slowed_slot(t: float) -> bool:
    return int(t / SLOT_S) % 2 == 1


def slot_time(windows, slowed: bool) -> float:
    """Time inside ``windows`` that falls in slowed (or plain) slots."""
    total = 0.0
    for w0, w1 in windows:
        k = int(w0 / SLOT_S)
        while k * SLOT_S < w1:
            if (k % 2 == 1) == slowed:
                total += min(w1, (k + 1) * SLOT_S) - max(w0, k * SLOT_S)
            k += 1
    return total


def injected(ftran, kind: str, calls: dict):
    import numpy as np
    buf = np.zeros(CHUNK * BUFFER_CHUNKS) if kind == "memory" else None
    pos = [0]

    def ftran_with_extra_work(self, v):
        slowed = slowed_slot(time.perf_counter())
        calls[slowed] += 1
        if slowed and kind == "cpu":
            ftran(self, v)
        elif slowed:
            i = pos[0]
            buf[i:i + CHUNK] += 1.0
            pos[0] = (i + CHUNK) % buf.size
        return ftran(self, v)
    return ftran_with_extra_work


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--inject", choices=("cpu", "memory"), required=True)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.hostspeed import SpeedSampler

    w = workloads.WORKLOADS[args.workload]
    _windows, inputs = workloads.setup(w)
    factor = sys.modules["platoonopt.simplex"]._Factor
    plain_ftran = factor.ftran
    calls = {False: 0, True: 0}
    factor.ftran = injected(plain_ftran, args.inject, calls)
    try:
        with SpeedSampler() as sampler:
            pa = workloads.run_pass(w, inputs, random.Random(1))
    finally:
        factor.ftran = plain_ftran
    if any(o.problems for o in pa.outcomes):
        print("error: the pass failed its checks", file=sys.stderr)
        return 1
    kernel = {s: [d for t, d, _spent in sampler.samples
                  if slowed_slot(t) == s and
                  any(w0 <= t < w1 for w0, w1 in pa.windows)]
              for s in (False, True)}
    rate = {s: calls[s] / slot_time(pa.windows, s) for s in (False, True)}
    program = rate[False] / rate[True]
    # The adjustment scales by the kernel's mean rate, so compare that.
    k = statistics.fmean(1 / d for d in kernel[False]) \
        / statistics.fmean(1 / d for d in kernel[True])
    print(f"{w.name} {args.inject}: program slowed x{program:.3f}, kernel "
          f"x{k:.3f} ({len(kernel[False])}/{len(kernel[True])} samples); "
          f"adjusted time shows {(program / k - 1) / (program - 1):.2f} "
          f"of the slowdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
