"""Algorithm 2: MO-ALS, the memory-optimized single-GPU solver.

The numerics are identical to :class:`~repro.core.als_base.BaseALS`; what
changes is that every update pass is *executed through the simulated GPU*:

* the factor matrices and the rating matrix are allocated in (simulated)
  device global memory, so a problem that does not fit raises
  ``OutOfDeviceMemory`` exactly like a real 12 GB card (the paper's stated
  limitation of MO-ALS, §3.4 end);
* each row block becomes one ``get_hermitian`` + one ``batch_solve``
  kernel launch whose traffic depends on the three optimisation switches
  (``use_texture``, ``use_registers``, ``bin_size``);
* the convergence history therefore carries *simulated* seconds, which is
  what the Figure 6/7/8 curves plot.

Like SU-ALS, an update pass is built as an explicit
:class:`~repro.core.taskgraph.TaskGraph` (one ``get_hermitian`` +
``batch_solve`` pair per row block, all pinned to the single device, plus
one streamed load per eq.-8 batch when the pass does not fit) and
executed through a :mod:`repro.core.schedule` scheduler; the default
``"serial"`` schedule charges the clock kernel by kernel, and
executed-graph traces accumulate on :attr:`MemoryOptimizedALS.traces`.
The same builder sized from a full-scale
:class:`~repro.datasets.registry.DatasetSpec` gives the figures'
per-iteration seconds (:meth:`MemoryOptimizedALS.iteration_time`); under
``"eager"`` the streamed loads overlap compute, which is §4.4's
out-of-core prefetching.
"""

from __future__ import annotations

import numpy as np

from repro.core.als_base import GPUSolver
from repro.core.config import ALSConfig
from repro.core.hermitian import batch_solve, compute_hermitians
from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.core.partition_planner import plan_partitions
from repro.core.schedule import ExecutionTrace, execute_graph, make_scheduler
from repro.core.taskgraph import TaskGraph
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind, OutOfDeviceMemory
from repro.gpu.specs import TITAN_X, DeviceSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import partition_bounds

__all__ = ["MemoryOptimizedALS"]


class MemoryOptimizedALS(GPUSolver):
    """MO-ALS on one simulated GPU."""

    name = "mo-als"

    def __init__(
        self,
        config: ALSConfig,
        machine: MultiGPUMachine | None = None,
        spec: DeviceSpec = TITAN_X,
        scheduler=None,
        verify: bool = False,
    ):
        self.config = config
        self.machine = machine or MultiGPUMachine(n_gpus=1, spec=spec)
        if self.machine.n_gpus != 1:
            raise ValueError("MO-ALS is the single-GPU solver; use ScaleUpALS for multi-GPU machines")
        self.device = self.machine.device(0)
        self.scheduler = make_scheduler(scheduler if scheduler is not None else "serial")
        # verify=True race-checks every update graph and its trace through
        # repro.analysis (hazard analyzer + schedule verifier).
        self.verify = verify
        self.traces: list[ExecutionTrace] = []

    # ------------------------------------------------------------------ #
    def _check_and_allocate(self, m: int, n: int, nz: int) -> None:
        """Reserve device memory for Θ, X, R and the per-batch Hermitians.

        MO-ALS requires the *fixed* factor (Θ when updating X, X when
        updating Θ) to be resident in its entirety (§3.4: "Algorithm 2 is
        able to deal with big X with one GPU, as long as Θ can fit into
        it").  The solved factor and R can be streamed in batches.
        """
        f = self.config.f
        self.device.reset_memory()
        cap = self.device.memory[MemoryKind.GLOBAL]
        theta_bytes = n * f * FLOAT_BYTES
        x_bytes = m * f * FLOAT_BYTES
        r_bytes = (2 * nz + m + 1) * FLOAT_BYTES
        if not cap.would_fit(theta_bytes):
            raise OutOfDeviceMemory(cap, theta_bytes)
        self.device.allocate("theta", theta_bytes, MemoryKind.GLOBAL)
        # X and R are loaded in batches when they do not fit wholesale.
        self.device.allocate("x", min(x_bytes, cap.free_bytes // 2), MemoryKind.GLOBAL)
        self.device.allocate("r_csr", min(r_bytes, max(cap.free_bytes - 256 * 1024 * 1024, 0)), MemoryKind.GLOBAL)

    def plan_batches(self, source) -> int:
        """Number of row batches (q of eq. 8 with p = 1) for one update pass."""
        rows, other = source.shape
        plan = plan_partitions(rows, other, source.nnz, self.config.f, self.device.spec.global_bytes, n_gpus=1)
        return max(1, plan.q)

    def build_update_graph(self, source, fixed: np.ndarray | None, label: str) -> tuple[TaskGraph, np.ndarray | None]:
        """The task graph of one update pass: a kernel pair per row block.

        ``source`` sizes the graph: a :class:`~repro.sparse.csr.CSRMatrix`
        (exact ratings per row block) or a full-scale
        :class:`~repro.datasets.registry.DatasetSpec` (uniform ratings per
        row).  Numeric closures are attached only when the ``fixed`` factor
        is given; the returned array (``None`` otherwise) is filled when
        the graph executes.

        Every kernel gets its own wave (unique ``group``) so the serial
        schedule charges the clock launch by launch under the ``herm`` /
        ``solve`` phases, and each waits for the one before it (the
        device's single compute stream).  When eq. 8
        splits the pass into ``q > 1`` batches (§4.4 out-of-core), each
        batch first streams in its R block and X slice: one ``h2d`` task its
        kernels wait for.  Loads are double buffered — batch ``j``'s reuses
        batch ``j - 2``'s buffer and waits for that batch's last kernel — so
        an overlapping schedule can hide every load but the first.
        """
        cfg = self.config
        rows, other = source.shape
        q = self.plan_batches(source)
        bounds = partition_bounds(rows, q)
        graph = TaskGraph()
        out = None if fixed is None else np.zeros((rows, cfg.f), dtype=np.float64)
        freed = []  # per batch: its last kernel, after which its buffer is reusable
        solve_task = None

        for j in range(q):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            blocks = []
            if q > 1:
                nbytes = (2 * source.range_nnz(lo, hi) + (hi - lo) + 1 + (hi - lo) * cfg.f) * FLOAT_BYTES
                load = graph.new_task(
                    f"h2d:{label}:b{j}",
                    "transfer",
                    transfer=self.machine.h2d(0, nbytes, tag=f"r-block-{label}"),
                    after=[freed[j - 2]] if j >= 2 else [],
                )
                blocks = [graph.new_object(nbytes, name=f"block:{label}:b{j}", producer=load)]
            for start in range(lo, hi, cfg.row_batch):
                stop = min(start + cfg.row_batch, hi)
                herm = get_hermitian_profile(self.device.spec, stop - start, source.range_nnz(start, stop), other, cfg, name=f"get_hermitian_{label}")
                solve = batch_solve_profile(stop - start, cfg.f, name=f"batch_solve_{label}")
                herm_task = graph.new_task(
                    f"herm:{label}:r{start}",
                    "kernel",
                    group=f"{label}:r{start}:herm",
                    profile=herm,
                    use_texture=cfg.use_texture,
                    pin=0,
                    inputs=blocks,
                    after=[solve_task] if solve_task is not None else [],
                )
                run_solve = None
                if fixed is not None:

                    def run_solve(start=start, stop=stop):
                        a, b = compute_hermitians(source, fixed, cfg.lam, start, stop)
                        out[start:stop] = batch_solve(a, b)

                solve_task = graph.new_task(
                    f"solve:{label}:r{start}",
                    "kernel",
                    group=f"{label}:r{start}:solve",
                    profile=solve,
                    pin=0,
                    run=run_solve,
                    after=[herm_task],
                )
            freed.append(solve_task)
        return graph, out

    def _update_pass(self, r: CSRMatrix, fixed: np.ndarray, label: str) -> np.ndarray:
        """One update pass (update-X when ``fixed`` is Θ, update-Θ when it is X)."""
        graph, out = self.build_update_graph(r, fixed, label)
        self.traces.append(execute_graph(graph, self.machine, self.scheduler, verify=self.verify))
        return out

    def _prepare(self, train: CSRMatrix, train_t: CSRMatrix) -> None:
        """Reserve device memory, then run the initial host→device load of Θ, X and R.

        The load is a one-transfer graph on the first iteration's clock;
        further iterations reuse the resident copies.
        """
        m, n = train.shape
        self._check_and_allocate(m, n, train.nnz)
        initial_bytes = (n * self.config.f + m * self.config.f + 2 * train.nnz + m + 1) * FLOAT_BYTES
        graph = TaskGraph()
        graph.new_task("h2d:initial", "transfer", transfer=self.machine.h2d(0, initial_bytes, tag="initial-load"))
        self.traces.append(execute_graph(graph, self.machine, self.scheduler, verify=self.verify))
