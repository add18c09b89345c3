"""The scatter transfer plan SU-ALS issues outside the reduction step.

Lines 5-7 of Algorithm 3 *scatter* the vertical partitions Θᵀ^(i) from
host memory to their GPUs (in parallel).  The plan only builds the
transfer batch; the caller hands it to
:meth:`repro.gpu.machine.MultiGPUMachine.run_transfers`.
"""

from __future__ import annotations

from repro.gpu.machine import MultiGPUMachine
from repro.gpu.transfer import Transfer

__all__ = ["scatter_plan"]


def scatter_plan(machine: MultiGPUMachine, bytes_per_gpu: list[float], tag: str = "scatter") -> list[Transfer]:
    """Host → each GPU, one (possibly different-sized) buffer per GPU."""
    if len(bytes_per_gpu) != machine.n_gpus:
        raise ValueError("need exactly one buffer size per GPU")
    return [machine.h2d(i, nbytes, tag=tag) for i, nbytes in enumerate(bytes_per_gpu) if nbytes > 0]
