"""Parallel reduction schemes across GPUs (paper §4.2, Figure 5).

Lines 13–17 of Algorithm 3 reduce the per-GPU partials ``A^(ij)`` (and
``B^(ij)``) into per-GPU slices of the global ``A^(j)``.  The *numerical*
result is a plain sum over GPUs; what the paper optimises is the transfer
schedule.  Each scheme below therefore exposes two things:

* :meth:`ReductionScheme.transfer_batches` — the batches of concurrent
  point-to-point copies the scheme issues (consumed by the transfer engine
  to produce a simulated time), and
* the shared :func:`numeric_reduce` helper that produces the actual
  reduced arrays.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.gpu.machine import MultiGPUMachine
from repro.gpu.transfer import Transfer

__all__ = [
    "ReductionScheme",
    "ReduceToOne",
    "OnePhaseParallelReduction",
    "TwoPhaseTopologyReduction",
    "numeric_reduce",
]


# ---------------------------------------------------------------------- #
# numerics (identical for every scheme)
# ---------------------------------------------------------------------- #
def numeric_reduce(partials: list[np.ndarray]) -> np.ndarray:
    """Element-wise sum of the per-GPU partial arrays."""
    if not partials:
        raise ValueError("nothing to reduce")
    out = np.array(partials[0], dtype=np.float64, copy=True)
    for part in partials[1:]:
        if part.shape != out.shape:
            raise ValueError("all partials must have the same shape")
        out += part
    return out


# ---------------------------------------------------------------------- #
# transfer schedules
# ---------------------------------------------------------------------- #
class ReductionScheme(abc.ABC):
    """Interface of a reduction transfer schedule."""

    name: str = "reduction"

    @abc.abstractmethod
    def transfer_batches(self, machine: MultiGPUMachine, nbytes_per_gpu: float) -> list[list[Transfer]]:
        """Batches of concurrent transfers needed to reduce ``p`` buffers.

        ``nbytes_per_gpu`` is the size of each GPU's full partial buffer
        (``A^(ij)`` plus ``B^(ij)`` for the current batch ``j``).
        Batches are executed sequentially; transfers inside a batch run
        concurrently.
        """

    def simulate(self, machine: MultiGPUMachine, nbytes_per_gpu: float) -> float:
        """Run the schedule on the machine's transfer engine; returns seconds."""
        total = 0.0
        for batch in self.transfer_batches(machine, nbytes_per_gpu):
            total += machine.run_transfers(batch, label=f"reduce:{self.name}")
        return total

    def solver_parallelism(self, p: int) -> int:
        """How many GPUs can run ``batch_solve`` after this reduction."""
        return p


class ReduceToOne(ReductionScheme):
    """Naive scheme: every GPU ships its whole partial to one root GPU.

    The root's single incoming PCIe lane serialises ``(p-1)`` full buffers
    and the subsequent batch solve runs on one GPU only — this is the
    strawman the paper's parallel reduction is 1.7× faster than.
    """

    name = "reduce-to-one"

    def __init__(self, root: int = 0):
        self.root = int(root)

    def transfer_batches(self, machine: MultiGPUMachine, nbytes_per_gpu: float) -> list[list[Transfer]]:
        batch = [machine.d2d(src, self.root, nbytes_per_gpu, tag="reduce-to-one") for src in range(machine.n_gpus) if src != self.root]
        return [batch] if batch else []

    def solver_parallelism(self, p: int) -> int:
        return 1


class OnePhaseParallelReduction(ReductionScheme):
    """Figure 5a: all-to-all exchange of 1/p slices.

    GPU ``i`` becomes the owner of slice ``i`` of every partial, so it
    receives ``(p-1)`` slices of size ``nbytes/p`` and sends ``(p-1)``
    slices of its own buffer — both directions of every lane carry the
    same load, which is what full-duplex PCIe rewards.
    """

    name = "one-phase-parallel"

    def transfer_batches(self, machine: MultiGPUMachine, nbytes_per_gpu: float) -> list[list[Transfer]]:
        p = machine.n_gpus
        if p == 1:
            return []
        slice_bytes = nbytes_per_gpu / p
        batch = [machine.d2d(src, dst, slice_bytes, tag="parallel-reduce") for src in range(p) for dst in range(p) if src != dst]
        return [batch]


class TwoPhaseTopologyReduction(ReductionScheme):
    """Figure 5b: intra-socket pre-reduction, then inter-socket exchange.

    Phase 1 (dashed lines in the figure): inside each socket, the GPUs
    exchange slices so that each slice has exactly one *socket-partial*
    holder per socket; only intra-socket PCIe is used.
    Phase 2 (solid lines): the socket-partials of every slice cross the
    inter-socket link once, instead of once per remote GPU.
    On a flat single-socket topology this degenerates to the one-phase
    scheme.
    """

    name = "two-phase-topology"

    def transfer_batches(self, machine: MultiGPUMachine, nbytes_per_gpu: float) -> list[list[Transfer]]:
        topo = machine.topology
        p = machine.n_gpus
        if p == 1:
            return []
        sockets: dict[int, list[int]] = {}
        for gpu in range(p):
            sockets.setdefault(topo.socket_of(gpu), []).append(gpu)
        if len(sockets) <= 1:
            return OnePhaseParallelReduction().transfer_batches(machine, nbytes_per_gpu)

        slice_bytes = nbytes_per_gpu / p

        # Phase 1: inside each socket, slice i's socket-partial is gathered on
        # the local GPU designated as its "socket leader".  Slices owned by a
        # local GPU stay with their owner; slices owned remotely are assigned
        # round-robin among the local GPUs.
        leaders: dict[tuple[int, int], int] = {}
        for socket, gpus in sockets.items():
            remote_slices = [i for i in range(p) if topo.socket_of(i) != socket]
            for idx, slice_id in enumerate(remote_slices):
                leaders[(socket, slice_id)] = gpus[idx % len(gpus)]
            for slice_id in gpus:
                leaders[(socket, slice_id)] = slice_id

        phase1: list[Transfer] = []
        for socket, gpus in sockets.items():
            for slice_id in range(p):
                leader = leaders[(socket, slice_id)]
                for gpu in gpus:
                    if gpu != leader:
                        phase1.append(machine.d2d(gpu, leader, slice_bytes, tag="intra-socket"))

        # Phase 2: each slice's remote socket-partials travel to the slice
        # owner (one transfer per remote socket per slice).
        phase2: list[Transfer] = []
        for slice_id in range(p):
            owner = slice_id
            owner_socket = topo.socket_of(owner)
            for socket in sockets:
                if socket == owner_socket:
                    continue
                leader = leaders[(socket, slice_id)]
                phase2.append(machine.d2d(leader, owner, slice_bytes, tag="inter-socket"))

        batches = []
        if phase1:
            batches.append(phase1)
        if phase2:
            batches.append(phase2)
        return batches
