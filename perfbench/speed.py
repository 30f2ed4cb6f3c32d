"""Host-speed calibration.

A shared host changes the speed of one core by up to 1.7x within a second,
and its median speed by as much over minutes, which moves every wall time
with it.  The benchmark therefore times a fixed calibration unit
(pure-Python complex multiply-adds into a dict, the kind of work the
package's series kernel and mode algebra do, but none of their code)
after each set-up run and each op of a calibrated workload, and reports
each of their times at the reference speed: its wall time divided by the
slowness of the host around it, the median time of the ``NEIGHBOURS``
units timed just before it and of those just after it, over
``REFERENCE_S``.  A change to the package moves the ops but not the
unit; a slower or faster host moves both.  Wall times are printed beside
the normalised ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# about the median time of one unit on a quiet core of a 2-vCPU Xeon host
# with Python 3.11; it fixes the scale of the reported seconds only
REFERENCE_S = 1.0e-3
# calibration time spent after each op, as a share of the op's own time
SHARE = 0.2
# the units on each side of an op that give its slowness
NEIGHBOURS = 8

_A = [((n, r), complex(n + 1, r - 2)) for n in range(16) for r in range(4)]


def unit():
    out = {}
    for (n1, r1), c1 in _A:
        for (n2, r2), c2 in _A:
            key = (n1 + n2, r1 + r2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class Calibration:
    """Unit times sampled through a run, with the time each ended, and the
    (start, latency) of each op they were taken after."""

    def __init__(self):
        self.samples, self.ends, self.ops = [], [], []

    def run(self, seconds):
        """Time units until ``seconds`` have been spent, at least one."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            unit()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.ends.append(t1)
            spent += t1 - t0
            if spent >= seconds:
                return

    def after(self, start, latency):
        self.ops.append((start, latency))
        self.run(SHARE * latency)

    def slowness(self):
        """Median unit time of the run over the reference: 2.0 means half
        speed."""
        return statistics.median(self.samples) / REFERENCE_S

    def normalised(self):
        """Each op's latency at the reference speed, in the order run."""
        out = []
        for start, latency in self.ops:
            i = bisect.bisect_left(self.ends, start)
            j = bisect.bisect_right(self.ends, start + latency)
            near = self.samples[max(0, i - NEIGHBOURS):j + NEIGHBOURS]
            out.append(latency * REFERENCE_S / statistics.median(near))
        return out
