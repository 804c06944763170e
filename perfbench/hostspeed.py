"""Host speed, sampled by timing a fixed kernel between program calls.

The benchmark's host is shared: its speed drifts by up to ±40% over
minutes while other machines' work comes and goes, and the drift shows
neither as steal time nor as CPU time lost.  A pure-Python kernel doing
the same kind of work as treepack (breadth-first search and union-find
over a fixed graph) slows down with the host by about as much as the
program does.  The end-to-end times are therefore reported at a fixed
host speed: scaled by NOMINAL_S / (the kernel's mean time around them).
A change to treepack cannot move the kernel, so it moves the scaled times
exactly as it moves the raw ones.
"""

import statistics
import time

NOMINAL_S = 0.004   # kernel time that defines the reporting speed
SHARE = 0.1         # kernel time kept at this share of the program's time

_N = 300
_ADJ = [[(v * 7 + j * 13 + 1) % _N for j in range(6)] for v in range(_N)]


def kernel() -> int:
    """Fixed graph work: breadth-first searches and union-find passes."""
    total = 0
    for src in range(0, _N, 30):
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                du = seen[u] + 1
                for w in _ADJ[u]:
                    if w not in seen:
                        seen[w] = du
                        nxt.append(w)
            frontier = nxt
        parent = list(range(_N))
        for u in range(_N):
            for w in _ADJ[u][:3]:
                a, b = u, w
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
        total += sum(seen.values())
    return total


_EXPECTED = kernel()


class HostSpeed:
    """Kernel samples interleaved with the program's calls."""

    def __init__(self):
        self.samples: list[float] = []  # every kernel time of the run, s
        self.program_s = 0.0            # program time the samples are kept against
        self.kernel_s = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        if kernel() != _EXPECTED:
            raise RuntimeError("host-speed kernel gave a different result")
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.kernel_s += dt
        return dt

    def top_up(self, program_s: float) -> None:
        """Account `program_s` more program time, then sample until the
        kernel's time is back at SHARE of the program's."""
        self.program_s += program_s
        while self.kernel_s < SHARE * self.program_s:
            self.sample()

    def scale(self, since: int) -> float:
        """Factor that brings times measured alongside samples[since:] to
        the reporting speed."""
        return NOMINAL_S / statistics.fmean(self.samples[since:])
