"""Host-speed normalisation of the benchmark's timings.

The shared 2-vCPU hosts this benchmark runs on change speed by up to
2x, for seconds to minutes at a time, and CPU time slows as much as
wall time (it is not stolen time).  No amount of repetition inside a
12-s run averages that out.  So the driving thread times a fixed
reference kernel — a pure-Python Dijkstra on a fixed random graph, the
same kind of work as the solver — about every 0.25 s, in CPU time of
its own thread, and every timing is scaled by the kernel's median cost
around it:

    normalised seconds = measured seconds / (kernel cost / nominal cost)

The nominal cost is the kernel's on such a host at its fast speed, so
the figures read as seconds on a quiet host.  CPU time leaves out the
time the hypervisor steals from the virtual CPU, so for the serve and
update phases the slowdown is further divided by the share of time not
stolen, read from ``/proc/stat`` at each sample (:class:`StealLog`).
The kernel costs about
0.5 ms and holds the interpreter lock while it runs, about 0.2% of a
phase: the requests it delays must stay well below 1%, or they become
the p99.

Two threads that share the interpreter lock slow down in a way of
their own: on some hosts and at some times handing the lock between
the two vCPUs costs half again as much as the work.  The 2-thread
solves are therefore scaled by a *pair* sample instead: the kernel run
on two threads at once, timed in wall time.

Probe behind the choice, 3-s windows of solves (IQR/median): 1-thread
solves spread 0.21 raw, 0.14 divided by a plain arithmetic loop, 0.10
divided by this kernel; 2-thread solves spread 0.12 raw and 0.05
divided by the pair sample.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import random
import statistics
import threading
import time
from typing import Iterator, List, Optional, Tuple

from repro import obs

#: vertices and out-degree of the kernel's graph
KERNEL_VERTICES = 600
KERNEL_DEGREE = 6
#: Dijkstra runs per sample
KERNEL_RUNS = 1
#: Dijkstra runs per thread in a pair sample
PAIR_RUNS = 20
#: cost of a sample / pair sample on a quiet 2-vCPU host, in seconds
NOMINAL_S = 0.5e-3
NOMINAL_PAIR_S = 20e-3
#: seconds between samples while the driving thread waits
PERIOD_S = 0.25
#: samples this far outside an interval still describe it: slow spells
#: last seconds, and a single sample is noisy (a collection, an interrupt)
PAD_S = 1.0


class Samples:
    """Timestamped sample costs relative to a nominal cost."""

    def __init__(self, nominal: float) -> None:
        self.nominal = nominal
        self.stamps: List[float] = []
        self.costs: List[float] = []

    def add(self, stamp: float, cost: float) -> None:
        self.stamps.append(stamp)
        self.costs.append(cost)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median cost over ``[t0, t1]`` relative to the nominal cost.

        Uses the samples within ``PAD_S`` of the interval, or the
        nearest one when none is that close; 1.0 without samples.
        """
        if not self.stamps:
            return 1.0
        lo = bisect.bisect_left(self.stamps, t0 - PAD_S)
        hi = bisect.bisect_right(self.stamps, t1 + PAD_S)
        if lo == hi:  # nothing that close: the nearest sample on either side
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.stamps)]
            i = min(near, key=lambda i: min(abs(self.stamps[i] - t0),
                                            abs(self.stamps[i] - t1)))
            return self.costs[i] / self.nominal
        return statistics.median(self.costs[lo:hi]) / self.nominal


def _cpu_ticks() -> Optional[Tuple[int, int]]:
    """Cumulative (stolen, wanted) ticks of all CPUs, from ``/proc/stat``.

    Wanted ticks are those a CPU ran or was kept from running by the
    hypervisor: user, nice, system, irq, softirq and steal.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class StealLog:
    """Timestamped ``/proc/stat`` readings: the share of time stolen.

    A thread's CPU time leaves out the time the hypervisor gave the
    virtual CPU to another guest; wall time includes it.  So the
    reference kernel, timed in CPU time, misses steal, which ran at up
    to 17% of a run on the host this was written on and set the slow
    runs apart.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.ticks: List[Tuple[int, int]] = []

    def add(self, stamp: float) -> None:
        ticks = _cpu_ticks()
        if ticks is not None:
            self.stamps.append(stamp)
            self.ticks.append(ticks)

    def share(self, t0: float, t1: float) -> float:
        """Stolen share of the wanted time within ``PAD_S`` of ``[t0, t1]``.

        Uses the first and last readings that close; with fewer than
        two, the two readings nearest the interval.  Capped at 0.5.
        """
        if len(self.stamps) < 2:
            return 0.0
        lo = bisect.bisect_left(self.stamps, t0 - PAD_S)
        hi = bisect.bisect_right(self.stamps, t1 + PAD_S) - 1
        if hi <= lo:
            hi = min(max(lo, 1), len(self.stamps) - 1)
            lo = hi - 1
        stolen = self.ticks[hi][0] - self.ticks[lo][0]
        wanted = self.ticks[hi][1] - self.ticks[lo][1]
        return min(0.5, stolen / wanted) if wanted > 0 else 0.0


class HostClock:
    """Reference-kernel samples of one run, taken by one thread at a time."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adj = [[(rng.randrange(KERNEL_VERTICES), rng.randint(1, 16))
                      for _ in range(KERNEL_DEGREE)] for _ in range(KERNEL_VERTICES)]
        self.single = Samples(NOMINAL_S)
        self.pair = Samples(NOMINAL_PAIR_S)
        self.steal = StealLog()

    def _kernel(self, runs: int) -> None:
        # integer weights and heap keys ``d * n + v``: the loop allocates
        # nothing the garbage collector tracks, so it never triggers a
        # collection whose cost depends on the program's live objects
        n = KERNEL_VERTICES
        adj = self._adj
        for _ in range(runs):
            dist = [1 << 62] * n
            dist[0] = 0
            heap = [0]
            while heap:
                d, u = divmod(heapq.heappop(heap), n)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w) * n + v)

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times on this thread, in CPU time."""
        with obs.span("bench.hostspeed"):
            for _ in range(count):
                start = time.thread_time()
                self._kernel(KERNEL_RUNS)
                cost = time.thread_time() - start
                now = time.perf_counter()
                self.single.add(now, cost)
                self.steal.add(now)

    def sample_pair(self) -> None:
        """Time the kernel on two threads at once, in wall time."""
        with obs.span("bench.hostspeed"):
            threads = [threading.Thread(target=self._kernel, args=(PAIR_RUNS,),
                                        name=f"wallbench-hostspeed-{i}")
                       for i in range(2)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            self.pair.add(end, end - start)

    def sample_until(self, deadline: float,
                     stop: Optional[threading.Event] = None) -> None:
        """Sample every ``PERIOD_S`` until ``deadline`` or ``stop``."""
        stop = stop or threading.Event()
        while True:
            self.sample()
            left = deadline - time.perf_counter()
            if left <= 0 or stop.wait(min(PERIOD_S, left)):
                return

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample on a helper thread while one long call runs on this one."""
        stop = threading.Event()
        thread = threading.Thread(target=self.sample_until, args=(float("inf"), stop),
                                  name="wallbench-hostspeed")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def slowdown(self, t0: float, t1: float, steal: bool = False) -> float:
        """Host slowdown over ``[t0, t1]`` from the single-thread samples.

        With ``steal``, stretched by the share of wall time stolen: for
        the serve and update phases.  There it steadied the figures
        (``serve_qps`` over five seeds: 0.14 without, 0.06 with).  The
        solves it over-corrects: over twenty runs, 1-thread solve times
        fell as steal rose (0.051 s at 0.3% steal, 0.039 s at 6%).
        """
        slow = self.single.slowdown(t0, t1)
        return slow / (1.0 - self.steal.share(t0, t1)) if steal else slow

    def seconds(self, t0: float, t1: float, pair: bool = False,
                steal: bool = False) -> float:
        """The interval's length at nominal host speed.

        ``pair`` scales by the pair samples, for work on two threads;
        ``steal`` as for :meth:`slowdown`.
        """
        slow = self.pair.slowdown(t0, t1) if pair else self.slowdown(t0, t1, steal)
        return (t1 - t0) / slow
