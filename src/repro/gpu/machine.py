"""A whole simulated machine: host memory, GPUs, interconnect, clock."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceCounters, GPUDevice
from repro.gpu.memory import MemoryKind, MemorySpace
from repro.gpu.specs import DeviceSpec, TITAN_X
from repro.gpu.topology import MachineTopology
from repro.gpu.transfer import Transfer, TransferEngine
from repro.perf.timeline import SimClock

__all__ = ["MultiGPUMachine", "MachineCostSpec"]

GIB = 1024**3


@dataclass(frozen=True)
class MachineCostSpec:
    """Monetary description of the machine (Table 1 cost comparison).

    The paper's GPU machine is an IBM Softlayer box with two K80 boards at
    an amortised $2.44/hour.
    """

    hourly_usd: float = 2.44
    description: str = "1 machine, 2x Nvidia K80 (4 GPU devices), IBM Softlayer"


class MultiGPUMachine:
    """One machine with ``p`` simulated GPUs and a shared simulated clock.

    Parameters
    ----------
    n_gpus:
        Number of GPU devices (1, 2 or 4 in the paper).
    spec:
        Per-device :class:`~repro.gpu.specs.DeviceSpec`.
    topology:
        Interconnect; defaults to a dual-socket layout when ``n_gpus > 2``
        (matching the experiment machine) and a single-socket layout
        otherwise.
    host_memory_gib:
        Host DRAM capacity (256 GB in the paper's machine).
    """

    def __init__(
        self,
        n_gpus: int = 1,
        spec: DeviceSpec = TITAN_X,
        topology: MachineTopology | None = None,
        host_memory_gib: float = 256.0,
        cost: MachineCostSpec | None = None,
    ):
        if n_gpus < 1:
            raise ValueError("a machine needs at least one GPU")
        if topology is None:
            topology = MachineTopology.dual_socket(n_gpus) if n_gpus > 2 else MachineTopology.single_socket(n_gpus)
        if topology.n_gpus() != n_gpus:
            raise ValueError(f"topology describes {topology.n_gpus()} GPUs but machine was asked for {n_gpus}")
        self.spec = spec
        self.topology = topology
        self.devices = [GPUDevice(spec, device_id=i, socket=topology.socket_of(i)) for i in range(n_gpus)]
        self.host_memory = MemorySpace(MemoryKind.HOST, int(host_memory_gib * GIB), 60e9, 100e-9, owner="host")
        self.transfer_engine = TransferEngine(topology)
        self.clock = SimClock()
        self.cost = cost or MachineCostSpec()

    # ------------------------------------------------------------------ #
    @property
    def n_gpus(self) -> int:
        """Number of GPU devices on the machine."""
        return len(self.devices)

    def device(self, i: int) -> GPUDevice:
        """Device ``i``."""
        return self.devices[i]

    def reset(self) -> None:
        """Clear the clock, counters and allocations (between experiments).

        This includes the transfer engine's cumulative byte/time totals —
        back-to-back scheduled runs must not inherit stale accounting.
        """
        self.clock.reset()
        for dev in self.devices:
            dev.reset_memory()
            dev.counters = DeviceCounters()
        self.host_memory.free_all()
        self.transfer_engine.reset()

    # ------------------------------------------------------------------ #
    # execution helpers
    # ------------------------------------------------------------------ #
    def run_parallel_kernels(self, profiles: dict, *, use_texture: bool = True) -> float:
        """Execute one kernel per device concurrently.

        ``profiles`` maps device id → :class:`KernelProfile` (devices not
        present stay idle).  The step takes as long as the slowest device;
        the shared clock is advanced by that much and the elapsed time is
        returned.
        """
        durations = []
        for dev_id, profile in profiles.items():
            durations.append(self.devices[dev_id].execute(profile, use_texture=use_texture))
        elapsed = max(durations) if durations else 0.0
        self.clock.advance(elapsed, label="kernels")
        return elapsed

    def run_transfers(self, transfers: list[Transfer], label: str = "transfer") -> float:
        """Run a batch of concurrent transfers; advances the clock."""
        report = self.transfer_engine.batch_time(transfers)
        self.clock.advance(report.seconds, label=label)
        return report.seconds

    # ------------------------------------------------------------------ #
    # transfer constructors
    # ------------------------------------------------------------------ #
    def h2d(self, gpu_id: int, nbytes: float, tag: str = "h2d") -> Transfer:
        """Host → device transfer descriptor."""
        return Transfer(f"host:{self.topology.socket_of(gpu_id)}", f"gpu:{gpu_id}", nbytes, tag)

    def d2h(self, gpu_id: int, nbytes: float, tag: str = "d2h") -> Transfer:
        """Device → host transfer descriptor."""
        return Transfer(f"gpu:{gpu_id}", f"host:{self.topology.socket_of(gpu_id)}", nbytes, tag)

    def d2d(self, src_gpu: int, dst_gpu: int, nbytes: float, tag: str = "d2d") -> Transfer:
        """Device → device (peer) transfer descriptor."""
        return Transfer(f"gpu:{src_gpu}", f"gpu:{dst_gpu}", nbytes, tag)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock time elapsed on this machine."""
        return self.clock.now

    def elapsed_cost_usd(self) -> float:
        """Monetary cost of the elapsed simulated time."""
        return self.cost.hourly_usd * self.elapsed_seconds() / 3600.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiGPUMachine({self.n_gpus}x {self.spec.name!r}, {self.topology.description})"
