"""Host-speed normalisation of wall-clock measurements.

A host that shares its cores with other tenants (a 2-vCPU cloud sandbox,
say) drifts in speed by 10-50% over minutes — longer than one run, so
medians within a run cannot absorb it.  :class:`Calibrator` times a
fixed reference workload right before and right after each measured
interval and scales the interval's wall to a host running the
reference at ``NOMINAL_S``.  The reference mixes what the
program spends its host time on: a batched small-matrix product (the
Hermitian assembly), a BLAS GEMM (top-k scoring), interpreter-bound
Python (the replay loops) and fresh memory that must be faulted in (the
large temporaries).

The reference runs in the benchmark process, so it is written not to
depend on the program's heap: its arrays are allocated once
and written in place, and its fresh pages come from the kernel through a
mapping of its own (dropped with ``MADV_DONTNEED`` and faulted in again),
never from the program's heap.  What it still shares with the program
is the CPU caches, which the program evicts on every repetition alike,
and the kernel's free-page pool.  Its mapping stays resident for the
whole run, so it adds a constant ``FAULT_BYTES`` to the peak RSS.  The
raw walls and every reference time are reported next to the normalised
metrics.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

__all__ = ["Calibrator"]

#: The reference workload's median wall on an idle 2-vCPU sandbox host.
NOMINAL_S = 0.024
#: Memory the reference faults in afresh on every pass.
FAULT_BYTES = 16 << 20


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._batch = rng.standard_normal((2000, 16, 16))
        self._batch_out = np.empty_like(self._batch)
        self._gemm = rng.standard_normal((400, 400))
        self._gemm_out = np.empty_like(self._gemm)
        self._pages = mmap.mmap(-1, FAULT_BYTES)
        self._fresh = np.frombuffer(self._pages, dtype=np.uint8)
        self.references: list[float] = []
        self._reference()  # first-call costs (einsum path, first faults) stay out of the record

    def _reference(self) -> float:
        """Median wall of three passes of the reference workload."""
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            np.einsum("kij,kjl->kil", self._batch, self._batch, out=self._batch_out)
            np.matmul(self._gemm, self._gemm, out=self._gemm_out)
            sum(i * i for i in range(100_000))
            self._pages.madvise(mmap.MADV_DONTNEED)
            self._fresh.fill(1)
            walls.append(time.perf_counter() - start)
        return sorted(walls)[1]

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between two reference timings.

        Returns ``(result, raw wall, normalised wall)``: the normalised
        wall is the raw wall × ``NOMINAL_S`` over the mean of the two
        reference times around it.
        """
        before = self._reference()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self._reference()
        self.references += [before, after]
        return result, wall, wall * 2.0 * NOMINAL_S / (before + after)

    def close(self) -> None:
        """Unmap the reference's pages (the array view goes first: it holds the mapping's buffer)."""
        del self._fresh
        self._pages.close()
