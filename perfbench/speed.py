"""How fast the host runs this process at the moment, sampled alongside the program.

On a shared host the speed a VM gets switches between states about
1.5-1.8x apart that last from seconds to many minutes, and process CPU
time slows with wall time, so neither wall time nor CPU time of one run
compares with a run made in another state. The probe measures the state
while the program runs: every 10 ms a SIGALRM handler times a fixed walk
of 100 steps over a random graph of Python lists (a few MB, like the
program's own adjacency lists). A wall time divided by ``factor`` (the
median walk time over the same interval, over ``REF_NS``) is the time
the same work would take on a host where one walk takes ``REF_NS``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.01
REF_NS = 100_000
NODES = 20_000
DEGREE = 7
STEPS = 100


class Probe:
    def __init__(self) -> None:
        rng = random.Random("speed-probe")
        self.graph = [[rng.randrange(NODES) for _ in range(DEGREE)] for _ in range(NODES)]
        self.node = 0
        self.samples: list[int] = []

    def walk(self) -> None:
        # Allocates no container, so the handler never starts a GC pass.
        graph, v = self.graph, self.node
        for i in range(STEPS):
            v = graph[v][i % DEGREE]
        self.node = v

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        self.walk()
        self.samples.append(time.perf_counter_ns() - t0)

    @contextmanager
    def sampling(self) -> Iterator[Probe]:
        """Sample every INTERVAL_S until the block ends."""
        old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, since: int = 0) -> float:
        """Median walk time of the samples from index `since` on, over REF_NS."""
        samples = self.samples[since:] or self.samples
        return statistics.median(samples) / REF_NS
