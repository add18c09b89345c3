"""Transfer scheduling over the machine interconnect.

The reduction schemes of §4.2 differ only in *which transfers run
concurrently over which links*:

* reduce-to-one funnels every partial result into a single GPU's incoming
  PCIe lane — that lane becomes the bottleneck;
* the one-phase parallel reduction spreads partitions so that every GPU's
  incoming *and* outgoing lanes are used simultaneously (full duplex);
* the two-phase topology-aware reduction additionally keeps the first phase
  intra-socket so only the small, pre-reduced partials cross the slow
  inter-socket link.

The :class:`TransferEngine` models exactly that: a batch of concurrent
transfers is scheduled over the topology, each directed link's capacity is
shared by the transfers crossing it in that direction, and the batch
completes when its most-loaded directed link drains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.topology import MachineTopology

__all__ = ["Transfer", "TransferEngine", "TransferReport"]


@dataclass
class Transfer:
    """One point-to-point copy between two topology nodes.

    ``src`` / ``dst`` are topology node names (``"gpu:2"``, ``"host:0"``);
    helper constructors on :class:`~repro.gpu.machine.MultiGPUMachine`
    build them from device ids.
    """

    src: str
    dst: str
    nbytes: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if self.src == self.dst:
            # A self-transfer is free; keep it representable for generic code.
            self.nbytes = 0.0


@dataclass
class TransferReport:
    """Outcome of scheduling one batch of concurrent transfers."""

    seconds: float
    total_bytes: float


class TransferEngine:
    """Schedules batches of concurrent transfers over a topology."""

    def __init__(self, topology: MachineTopology):
        self.topology = topology
        self.total_bytes_moved = 0.0
        self.total_transfer_seconds = 0.0
        self.batches = 0

    def reset(self) -> None:
        """Zero the cumulative byte/time/batch counters."""
        self.total_bytes_moved = 0.0
        self.total_transfer_seconds = 0.0
        self.batches = 0

    def _directed_load(self, transfers: list[Transfer]) -> dict:
        """Bytes crossing every directed link, keyed by (link, direction)."""
        load: dict[tuple[str, str, float], float] = {}
        for tr in transfers:
            if tr.nbytes == 0:
                continue
            links = self.topology.path(tr.src, tr.dst)
            cur = tr.src
            for link in links:
                nxt = link.b if cur == link.a else link.a
                key = (cur, nxt, link.bandwidth)
                load[key] = load.get(key, 0.0) + tr.nbytes
                cur = nxt
        return load

    def batch_time(self, transfers: list[Transfer]) -> TransferReport:
        """Makespan of a batch of transfers that all start simultaneously.

        Each directed link serves the transfers crossing it in that
        direction at its full bandwidth (fair sharing does not change the
        drain time of the link, which is what bounds the batch).  The batch
        finishes when the most heavily loaded directed link finishes.
        """
        load = self._directed_load(transfers)
        total_bytes = sum(tr.nbytes for tr in transfers)
        if not load:
            return TransferReport(seconds=0.0, total_bytes=0.0)
        worst = max(nbytes / bw for (_, _, bw), nbytes in load.items())
        # Every transfer additionally pays one end-to-end latency; use the
        # largest hop count in the batch as a conservative single charge.
        max_hops = max((len(self.topology.path(t.src, t.dst)) for t in transfers if t.nbytes), default=0)
        latency = max_hops * 10e-6
        report = TransferReport(seconds=worst + latency, total_bytes=total_bytes)
        self.total_bytes_moved += total_bytes
        self.total_transfer_seconds += report.seconds
        self.batches += 1
        return report
