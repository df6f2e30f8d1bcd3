"""How fast the machine runs Python right now, from a fixed probe.

The benchmark's box is a shared virtual machine whose speed drifts by
up to half from one second, or one tenth of a second, to the next, with
no steal time to show for it.  So every timed request is scaled by how
fast a fixed piece of pure-Python work, the probe, ran around it and
during it:

    scaled = measured * REFERENCE_S / mean(probe samples)

The probe is sampled once before and once after the request, and every
INTERVAL_S while it runs, from a timer signal whose handler takes a
short sample and stops the request's clock while it does.  So a scaled
time is the time the request would have taken on a machine that runs
the probe at REFERENCE_S a round, whatever the box was doing meanwhile.

The probe shares no code with freeword, so a change to freeword moves
scaled times as it moves raw ones.  It runs with the garbage collector
off and frees all it allocates, so no collection of freeword's heap
lands in a sample.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# Seconds one probe round took in a benchmark run, the median over many
# runs on the 2-core Xeon the benchmark was defined on, so scaled times
# read like the raw times of a typical run there.
REFERENCE_S = 1.25e-4

# Probe rounds in a sample before or after a request (about 1 ms), and
# in a sample taken while it runs (about 0.25 ms), every INTERVAL_S.
EDGE_ROUNDS = 15
INNER_ROUNDS = 4
INTERVAL_S = 0.02

# A fixed word over a, A (a'), b, B, c, C, drawn once from random.Random(0).
_WORD = tuple(random.Random(0).choices("aAbBcC", k=300))
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}


def _probe(rounds: int) -> int:
    # The kind of work freeword does: a stack reduction, then tuple,
    # dict and string work on what is left.  Everything it allocates is
    # freed before it returns.
    total = 0
    for _ in range(rounds):
        stack = []
        for x in _WORD:
            if stack and stack[-1] == _INVERSE[x]:
                stack.pop()
            else:
                stack.append(x)
        counts = {}
        for i, x in enumerate(stack):
            counts[(x, i % 7)] = counts.get((x, i % 7), 0) + 1
        rest = tuple(stack)
        total += len(counts) + len(rest[1:-1]) + len("".join(rest))
    return total


def sample(rounds: int = EDGE_ROUNDS) -> float:
    """Seconds one probe round takes now, averaged over rounds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe(rounds)
        return (time.perf_counter() - t0) / rounds
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, samples) -> float:
    """A time measured among these probe samples, at reference speed."""
    return measured * REFERENCE_S * len(samples) / sum(samples)


class Meter:
    """Probe samples taken while a request runs.

    Inside ``with meter:`` a timer signal fires every INTERVAL_S; its
    handler appends a short probe sample to ``samples`` and adds the
    time it took to ``paused_s``, which the caller takes off the
    request's time.  With inner=False no timer is set: only the samples
    around the request count.
    """

    def __init__(self, inner: bool = True):
        self.inner = inner
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._previous_handler = None

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample(INNER_ROUNDS))
        self.paused_s += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self.samples = []
        self.paused_s = 0.0
        if self.inner:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inner:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
