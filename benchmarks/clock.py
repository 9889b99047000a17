"""Wall time expressed at a fixed machine speed.

On a shared host the speed of the same code swings by up to 2x, in
phases that last seconds to minutes (other tenants, frequency), and raw
wall times swing with it. While a ``Clock`` is active, a wall-clock
timer interrupts the program every ``interval`` seconds (0.1) to run a fixed
reference kernel once. A timed region's raw time is its wall time minus
the kernel runs inside it, and its scaled time is the raw time times the
kernel's ``ref_s`` over the median kernel time during the region (and
just before it). A phase that slows the program slows the kernel alike,
so the scaled time stays put while a change to the program still moves
it in proportion. The kernel is a frozen numpy copy of the program's
hot operator at the workload's own size (in L2 or beyond it), which
tracks its slow-downs most closely; it never calls ``hnd``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np


def _operator_inputs(rng, n: int, m: int, k: int, d: int) -> dict:
    """A random hypergraph of ``m`` edges of ``k`` members over ``n``
    nodes, in the pair layout ``hnd`` uses, and an (n, d) signal."""
    pair_node = np.concatenate([rng.choice(n, k, replace=False) for _ in range(m)])
    order = np.argsort(pair_node, kind="stable")
    ordered = pair_node[order]
    return {
        "pair_node": pair_node,
        "pair_edge": np.repeat(np.arange(m), k),
        "edge_ptr": np.arange(0, m * k, k),
        "inv_size": 1.0 / k,
        "node_order": order,
        "node_ptr": np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]),
        "inv_sqrt_d": rng.uniform(0.5, 1.0, n)[:, None],
        "a": rng.uniform(0.1, 1.0, m * k)[:, None],
        "f": rng.standard_normal((n, d)),
    }


# The operator applies below are G and G^T diag(a) G by segment sums, as
# hnd computed them when this benchmark was defined; they are kept here so
# that a change to the program cannot change the yardstick.

def _apply_g(p: dict):
    g = (p["f"] * p["inv_sqrt_d"])[p["pair_node"]]
    mean = np.add.reduceat(g, p["edge_ptr"], axis=0) * p["inv_size"]
    return g - mean[p["pair_edge"]]


def _quad_apply(p: dict) -> None:
    y = _apply_g(p) * p["a"]
    total = np.add.reduceat(y, p["edge_ptr"], axis=0) * p["inv_size"]
    z = (y - total[p["pair_edge"]])[p["node_order"]]
    np.add.reduceat(z, p["node_ptr"], axis=0)


def _small_kernel(p: dict) -> None:
    for _ in range(8):
        _quad_apply(p)


# kernel, its inputs, and ref_s: the kernel's median time over the runs that
# set the bounds (Intel Xeon, Sapphire Rapids class, 2 vCPUs under KVM,
# numpy 2.4, one BLAS thread), so scaled times read as seconds there.
# "small" is desk-scale training's operator (N=1500 pairs, d=16, in L2),
# "large" the 100k-pair diffusion's (d=4, beyond L2).
KERNELS = {
    "small": (_small_kernel, lambda rng: _operator_inputs(rng, 500, 100, 15, 16), 0.0038),
    "large": (_apply_g, lambda rng: _operator_inputs(rng, 20_000, 10_000, 10, 4), 0.0077),
}


@dataclass
class Timing:
    raw_s: float        # wall time minus the kernel runs inside the region
    scaled_s: float     # raw time at the reference machine speed
    wall_s: float


class Clock:
    """Context manager: samples the kernel on a timer while active."""

    def __init__(self, kernel: str, interval: float = 0.1):
        self.kernel, inputs, self.ref_s = KERNELS[kernel]
        self.interval = interval
        self._data = inputs(np.random.default_rng(12345))
        self._samples: list[tuple[float, float]] = []   # (start, end) of each kernel run
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.kernel(self._data)
        self._samples.append((t0, time.perf_counter()))

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        for _ in range(3):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, reps: int = 1):
        """Run ``fn`` ``reps`` times from a collected heap.

        Returns (last result, Timing per rep).
        """
        gc.collect()
        first = max(0, len(self._samples) - 2)
        t0 = time.perf_counter()
        for _ in range(reps):
            out = fn()
        t1 = time.perf_counter()
        while len(self._samples) - first < 3:
            self._sample()
        window = self._samples[first:]
        inside = sum(e - s for s, e in window if s >= t0 and e <= t1)
        raw = (t1 - t0 - inside) / reps
        speed = self.ref_s / statistics.median(e - s for s, e in window)
        return out, Timing(raw, raw * speed, (t1 - t0) / reps)
