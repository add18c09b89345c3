"""Simulated GPU substrate.

The paper's contribution is inseparable from the GPU architecture it runs
on: a programmable memory hierarchy (global / texture / shared / register,
Table 4), tens of streaming multiprocessors, a 12 GB device memory limit,
and PCIe links of fixed, full-duplex bandwidth between devices and sockets.
None of that hardware is available to this reproduction, so we build it as
an explicit simulator:

* :mod:`repro.gpu.specs` — datasheet-level device descriptions
  (GTX Titan X, GK210 / K80, and the CPU sockets used by the baselines).
* :mod:`repro.gpu.memory` — memory spaces with capacity, bandwidth and
  latency, plus allocation tracking that raises ``OutOfDeviceMemory``
  exactly where a real 12 GB card would.
* :mod:`repro.gpu.kernel` — a roofline-style kernel cost model: a kernel is
  described by its flop count and its byte traffic per memory space, and
  the simulated execution time is the binding resource.
* :mod:`repro.gpu.device` — a device object that owns memory spaces,
  executes kernel profiles, and accumulates traffic counters.
* :mod:`repro.gpu.topology` — the PCIe/QPI interconnect graph of a one- or
  two-socket machine with up to 8 GPUs.
* :mod:`repro.gpu.transfer` — transfer scheduling over that graph with
  full-duplex links and contention.
* :mod:`repro.gpu.machine` — a whole machine: host memory + devices +
  interconnect + a shared simulated clock.  Overlapping loads with compute
  is the ``eager`` scheduler's job (:mod:`repro.core.schedule`), not the
  machine's.

The numerics of every solver are real NumPy; only *time* is simulated.
"""

from repro.gpu.specs import (
    CPU_30_CORE_NODE,
    DeviceSpec,
    GK210,
    TESLA_K80_HALF,
    TITAN_X,
    cpu_node_spec,
)
from repro.gpu.memory import Allocation, MemoryKind, MemorySpace, OutOfDeviceMemory
from repro.gpu.kernel import KernelProfile, estimate_kernel_time
from repro.gpu.device import GPUDevice
from repro.gpu.topology import Link, MachineTopology
from repro.gpu.transfer import Transfer, TransferEngine
from repro.gpu.machine import MultiGPUMachine

__all__ = [
    "DeviceSpec",
    "TITAN_X",
    "GK210",
    "TESLA_K80_HALF",
    "CPU_30_CORE_NODE",
    "cpu_node_spec",
    "MemoryKind",
    "MemorySpace",
    "Allocation",
    "OutOfDeviceMemory",
    "KernelProfile",
    "estimate_kernel_time",
    "GPUDevice",
    "Link",
    "MachineTopology",
    "Transfer",
    "TransferEngine",
    "MultiGPUMachine",
]
