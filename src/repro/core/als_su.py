"""Algorithm 3: SU-ALS, the scale-up multi-GPU solver.

SU-ALS adds **data parallelism** to the model parallelism of MO-ALS:

* Θᵀ is split vertically into ``p`` partitions, one resident on each GPU
  (lines 2, 5-7);
* X is split horizontally into ``q`` batches solved in sequence (line 8);
* R is grid partitioned into ``p × q`` blocks (line 4) once per fit, as
  is Rᵀ for the update-Θ pass; the grids are dropped when the fit ends;
* for batch ``j``, GPU ``i`` computes *local* Hermitians from only its
  Θ partition and R block (line 11, eq. 5-7), the partials are combined
  with a parallel reduction (lines 13-16, Figure 5), and each GPU solves
  the slice of rows it reduced (line 17).

Numerically the result is identical to MO-ALS/Base-ALS because the
weighted-λ term distributes over the partial sums
(``Σ_i λ n_u^{(i)} I = λ n_u I``); the tests assert this.  Simulated time
differs: kernels run concurrently across GPUs and the reduction cost
depends on the selected :class:`~repro.comm.reduction.ReductionScheme` and
the machine topology.

An update pass is *built* as an explicit
:class:`~repro.core.taskgraph.TaskGraph` — per-shard hermitian build →
per-batch solve → reduce → gather, with the dependency structure the
dataflow actually has — and *executed* through a scheduler from
:mod:`repro.core.schedule`.  The default ``"serial"`` scheduler replays
the graph wave by wave; ``"eager"`` overlaps independent transfers with
compute.  Factors are bitwise identical under every scheduler because
numerics always run in topological order.  Each executed graph's
:class:`~repro.core.schedule.ExecutionTrace` is appended to
:attr:`ScaleUpALS.traces` (reset per ``iterate``), exportable as
chrome-tracing JSON via :meth:`ScaleUpALS.export_trace`.

The builder is the only description of the dataflow: sized from a
full-scale :class:`~repro.datasets.registry.DatasetSpec` instead of a
rating matrix, with no factors attached, the same graphs give the
figures' per-iteration seconds (:meth:`ScaleUpALS.iteration_time`).
"""

from __future__ import annotations

import numpy as np

from repro.comm.collective import scatter_plan
from repro.comm.reduction import ReductionScheme, TwoPhaseTopologyReduction, numeric_reduce
from repro.core.als_base import GPUSolver
from repro.core.config import ALSConfig
from repro.core.hermitian import batch_solve, compute_hermitians
from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.core.partition_planner import plan_partitions
from repro.core.schedule import ExecutionTrace, execute_graph, make_scheduler
from repro.core.solver.protocol import Solver
from repro.core.taskgraph import TaskGraph
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.specs import TITAN_X, DeviceSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import GridPartition, Partition1D, grid_partition, partition_bounds

__all__ = ["ScaleUpALS"]


class ScaleUpALS(GPUSolver):
    """SU-ALS across a (simulated) multi-GPU machine."""

    name = "su-als"
    # Bound in the class dict so benchmarks/e2e/spans.py can wrap ScaleUpALS.fit.
    fit = Solver.fit

    def __init__(
        self,
        config: ALSConfig,
        machine: MultiGPUMachine | None = None,
        n_gpus: int = 4,
        spec: DeviceSpec = TITAN_X,
        reduction: ReductionScheme | None = None,
        q_override: int | None = None,
        force_data_parallel: bool = False,
        scheduler=None,
        verify: bool = False,
    ):
        self.config = config
        self.machine = machine or MultiGPUMachine(n_gpus=n_gpus, spec=spec)
        self.reduction = reduction or TwoPhaseTopologyReduction()
        self.q_override = q_override
        # Force the grid-partition + reduction path even when the fixed
        # factor would fit on one GPU (used by tests and the reduction
        # ablation, which need the data-parallel machinery on small data).
        self.force_data_parallel = force_data_parallel
        self.scheduler = make_scheduler(scheduler if scheduler is not None else "serial")
        # verify=True race-checks every update graph and its trace through
        # repro.analysis (hazard analyzer + schedule verifier).
        self.verify = verify
        self.traces: list[ExecutionTrace] = []
        # The grids of R and Rᵀ, by id of the partitioned matrix; they live only while a fit runs.
        self._grids: dict[int, GridPartition] = {}

    @property
    def p(self) -> int:
        """Data-parallel width: one Θ partition per GPU."""
        return self.machine.n_gpus

    # ------------------------------------------------------------------ #
    def _model_parallel(self, fixed_rows: int) -> bool:
        """Whether a pass replicates its fixed factor (``fixed_rows`` rows) on every GPU.

        §5.4: when both X and Θ fit on one GPU "only model parallelism is
        needed"; data parallelism (and its reduction) is reserved for the
        pass whose fixed factor — X when solving Θ on Hugewiki, for example
        — cannot be replicated.
        """
        fits = fixed_rows * self.config.f * FLOAT_BYTES <= 0.45 * self.machine.spec.global_bytes
        return self.p > 1 and not self.force_data_parallel and fits

    def _prepare(self, train: CSRMatrix, train_t: CSRMatrix) -> None:
        """Grid-partition R and Rᵀ once per fit (Algorithm 3 lines 2-4), for each pass that runs data-parallel."""
        self._grids = {id(r): grid_partition(r, self.p, self.plan_batches(r)) for r in (train, train_t) if not self._model_parallel(r.shape[1])}

    def _release(self) -> None:
        self._grids = {}

    def plan_batches(self, source) -> int:
        """Number of row batches q (eq. 8) for one update pass over ``source``.

        With the fixed factor replicated, every GPU plans its own row slice
        as a one-GPU problem; the data-parallel scheme plans the whole pass
        across the ``p`` partitions of the fixed factor.
        """
        if self.q_override is not None:
            return max(1, self.q_override)
        rows, other = source.shape
        f, capacity = self.config.f, self.machine.spec.global_bytes
        if self._model_parallel(other):
            plan = plan_partitions(-(-rows // self.p), other, int(source.nnz / self.p), f, capacity, n_gpus=1)
        else:
            plan = plan_partitions(rows, other, source.nnz, f, capacity, n_gpus=self.p)
        return max(1, plan.q)

    # ------------------------------------------------------------------ #
    # graph builders
    # ------------------------------------------------------------------ #
    def _build_model_parallel_graph(self, source, fixed: np.ndarray | None, label: str) -> tuple[TaskGraph, np.ndarray | None]:
        """Model parallelism only: rows are split across GPUs, Θ replicated.

        This is the PALS-style scheme cuMF falls back to whenever the fixed
        factor fits on every device (Netflix / YahooMusic in Figure 9): no
        inter-GPU reduction is required, so the speedup is bounded only by
        PCIe contention on the shared host links.  Each GPU works through
        its row slice in the eq.-8 batches, streaming each batch's rows of R
        in and its solved rows out.
        """
        cfg = self.config
        p = self.p
        rows, other = source.shape
        q = self.plan_batches(source)
        row_part = Partition1D(rows, p)
        graph = TaskGraph()
        out = None if fixed is None else np.zeros((rows, cfg.f), dtype=np.float64)

        # Replicate the fixed factor on every GPU (concurrent host→device).
        fixed_bytes = other * cfg.f * FLOAT_BYTES
        fixed_objs = {}
        for i in range(p):
            task = graph.new_task(
                f"bcast:{label}:g{i}",
                "transfer",
                group=f"{label}:bcast",
                clock_label="scatter",
                transfer=self.machine.h2d(i, fixed_bytes, tag=f"fixed-bcast-{label}"),
            )
            fixed_objs[i] = graph.new_object(fixed_bytes, name=f"fixed:{label}:g{i}", producer=task)

        slices = [row_part.range_of(i)[0] + partition_bounds(row_part.size_of(i), q) for i in range(p)]
        state: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for j in range(q):
            ranges = [(int(bounds[j]), int(bounds[j + 1])) for bounds in slices]
            # Stream this batch of each GPU's rows of R.
            block_objs = {}
            for i, (lo, hi) in enumerate(ranges):
                nbytes = (2 * source.range_nnz(lo, hi) + (hi - lo) + 1) * FLOAT_BYTES
                task = graph.new_task(
                    f"h2d:{label}:b{j}:g{i}",
                    "transfer",
                    group=f"{label}:b{j}:h2d",
                    clock_label="h2d",
                    transfer=self.machine.h2d(i, nbytes, tag=f"r-rows-{label}"),
                )
                block_objs[i] = graph.new_object(nbytes, name=f"rows:{label}:b{j}:g{i}", producer=task)

            herm_tasks = {}
            for i, (lo, hi) in enumerate(ranges):
                profile = get_hermitian_profile(self.machine.spec, hi - lo, source.range_nnz(lo, hi), other, cfg, name=f"get_hermitian_{label}")
                run_herm = None
                if fixed is not None:

                    def run_herm(i=i, lo=lo, hi=hi):
                        state[i] = compute_hermitians(source, fixed, cfg.lam, lo, hi)

                herm_tasks[i] = graph.new_task(
                    f"herm:{label}:b{j}:g{i}",
                    "kernel",
                    group=f"{label}:b{j}:herm",
                    clock_label="kernels",
                    profile=profile,
                    use_texture=cfg.use_texture,
                    pin=i,
                    run=run_herm,
                    inputs=[fixed_objs[i], block_objs[i]],
                )
            solve_tasks = {}
            for i, (lo, hi) in enumerate(ranges):
                profile = batch_solve_profile(hi - lo, cfg.f, name=f"batch_solve_{label}")
                run_solve = None
                if fixed is not None:

                    def run_solve(i=i, lo=lo, hi=hi):
                        out[lo:hi] = batch_solve(*state.pop(i))

                solve_tasks[i] = graph.new_task(
                    f"solve:{label}:b{j}:g{i}",
                    "kernel",
                    group=f"{label}:b{j}:solve",
                    clock_label="kernels",
                    profile=profile,
                    pin=i,
                    run=run_solve,
                    after=[herm_tasks[i]],
                )
            for i, (lo, hi) in enumerate(ranges):
                graph.new_task(
                    f"gather:{label}:b{j}:g{i}",
                    "transfer",
                    group=f"{label}:b{j}:gather",
                    clock_label="gather",
                    transfer=self.machine.d2h(i, (hi - lo) * cfg.f * FLOAT_BYTES, tag=f"x-gather-{label}"),
                    after=[solve_tasks[i]],
                )
        return graph, out

    def _build_data_parallel_graph(self, source, fixed: np.ndarray | None, label: str) -> tuple[TaskGraph, np.ndarray | None]:
        """The grid-partition + reduction scheme of Algorithm 3, as a graph."""
        cfg = self.config
        p = self.p
        rows, other = source.shape
        q = self.plan_batches(source)
        row_part = Partition1D(rows, q)
        col_part = Partition1D(other, p)
        grid = (self._grids.get(id(source)) or grid_partition(source, p, q)) if isinstance(source, CSRMatrix) else None

        def block_nnz(i: int, j: int) -> float:
            """Ratings in R^(ij): exact from the grid, else batch j's share by Θ partition width."""
            if grid is None:
                return source.range_nnz(*row_part.range_of(j)) * col_part.size_of(i) / other
            return grid.block(i, j).nnz

        graph = TaskGraph()
        out = None if fixed is None else np.zeros((rows, cfg.f), dtype=np.float64)

        # Lines 5-7: scatter the vertical partitions of the fixed factor.
        theta_bytes = [col_part.size_of(i) * cfg.f * FLOAT_BYTES for i in range(p)]
        scatter_tasks = {}
        theta_objs = {}
        for transfer in scatter_plan(self.machine, theta_bytes, tag=f"theta-scatter-{label}"):
            gpu = int(transfer.dst.split(":")[1])
            task = graph.new_task(
                f"scatter:{label}:g{gpu}",
                "transfer",
                group=f"{label}:scatter",
                clock_label="scatter",
                transfer=transfer,
            )
            scatter_tasks[gpu] = task
            theta_objs[gpu] = graph.new_object(transfer.nbytes, name=f"theta:{label}:g{gpu}", producer=task)

        if fixed is not None:
            fixed_parts = [np.asarray(fixed)[col_part.range_of(i)[0] : col_part.range_of(i)[1]] for i in range(p)]
        reduction_plans: dict[int, list] = {}  # the even row split gives at most two batch sizes

        for j in range(q):  # line 8: model-parallel loop over X batches
            j_lo, j_hi = row_part.range_of(j)
            batch_rows = j_hi - j_lo

            # Line 10: copy the R^(ij) blocks to their GPUs (concurrently).
            block_objs = {}
            for i in range(p):
                nbytes = (2 * block_nnz(i, j) + batch_rows + 1) * FLOAT_BYTES
                task = graph.new_task(
                    f"h2d:{label}:b{j}:g{i}",
                    "transfer",
                    group=f"{label}:b{j}:h2d",
                    clock_label="h2d",
                    transfer=self.machine.h2d(i, nbytes, tag=f"r-block-{label}"),
                )
                block_objs[i] = graph.new_object(nbytes, name=f"block:{label}:b{j}:g{i}", producer=task)

            # Line 11: local Hermitians on every GPU, concurrently.
            partial_a: list[np.ndarray] = []
            partial_b: list[np.ndarray] = []
            herm_tasks = []
            for i in range(p):
                profile = get_hermitian_profile(
                    self.machine.spec,
                    batch_rows,
                    block_nnz(i, j),
                    max(1, col_part.size_of(i)),
                    cfg,
                    name=f"get_hermitian_{label}",
                )
                run_herm = None
                if fixed is not None:

                    def run_herm(i=i, j=j, batch_rows=batch_rows, partial_a=partial_a, partial_b=partial_b):
                        a_i, b_i = compute_hermitians(grid.block(i, j), fixed_parts[i], cfg.lam, 0, batch_rows)
                        partial_a.append(a_i)
                        partial_b.append(b_i)

                herm_tasks.append(
                    graph.new_task(
                        f"herm:{label}:b{j}:g{i}",
                        "kernel",
                        group=f"{label}:b{j}:herm",
                        clock_label="kernels",
                        profile=profile,
                        use_texture=cfg.use_texture,
                        pin=i,
                        run=run_herm,
                        inputs=[block_objs[i]] + ([theta_objs[i]] if i in theta_objs else []),
                        after=[scatter_tasks[i]] if i in scatter_tasks else [],
                    )
                )

            # Lines 13-16: parallel reduction of the partials.  Each batch of
            # the scheme's transfer schedule is one wave; waves stay
            # sequential (the two-phase scheme's phase 2 moves what phase 1
            # pre-reduced), so they chain through ``after``.
            if batch_rows not in reduction_plans:
                partial_bytes = batch_rows * (cfg.f * cfg.f + cfg.f) * FLOAT_BYTES
                reduction_plans[batch_rows] = self.reduction.transfer_batches(self.machine, partial_bytes)
            barrier = herm_tasks
            for k, batch in enumerate(reduction_plans[batch_rows]):
                wave = [
                    graph.new_task(
                        f"reduce:{label}:b{j}:p{k}:{idx}",
                        "transfer",
                        group=f"{label}:b{j}:reduce{k}",
                        clock_label=f"reduce:{self.reduction.name}",
                        transfer=transfer,
                        after=barrier,
                    )
                    for idx, transfer in enumerate(batch)
                ]
                barrier = wave

            state: dict[str, np.ndarray] = {}
            run_reduce = None
            if fixed is not None:

                def run_reduce(state=state, partial_a=partial_a, partial_b=partial_b):
                    state["a"] = numeric_reduce(partial_a)
                    state["b"] = numeric_reduce(partial_b)
                    partial_a.clear()
                    partial_b.clear()

            reduce_sum = graph.new_task(
                f"reduce-sum:{label}:b{j}",
                "compute",
                group=f"{label}:b{j}:reduce-sum",
                run=run_reduce,
                after=barrier if barrier is not herm_tasks else list(herm_tasks),
            )

            # Line 17: each GPU solves the slice it reduced (or only the
            # root GPU, for the reduce-to-one strawman).
            solver_width = self.reduction.solver_parallelism(p)
            slice_part = Partition1D(batch_rows, solver_width)
            solve_tasks = []
            for i in range(solver_width):
                profile = batch_solve_profile(slice_part.size_of(i), cfg.f, name=f"batch_solve_{label}")
                run_solve = None
                if fixed is not None and i == 0:

                    def run_solve(state=state, j_lo=j_lo, j_hi=j_hi):
                        out[j_lo:j_hi] = batch_solve(state.pop("a"), state.pop("b"))

                solve_tasks.append(
                    graph.new_task(
                        f"solve:{label}:b{j}:g{i}",
                        "kernel",
                        group=f"{label}:b{j}:solve",
                        clock_label="kernels",
                        profile=profile,
                        pin=i,
                        run=run_solve,
                        after=[reduce_sum],
                    )
                )

            # Line 19: gather the solved batch back to host / peers.
            for i in range(solver_width):
                graph.new_task(
                    f"gather:{label}:b{j}:g{i}",
                    "transfer",
                    group=f"{label}:b{j}:gather",
                    clock_label="gather",
                    transfer=self.machine.d2h(i, slice_part.size_of(i) * cfg.f * FLOAT_BYTES, tag=f"x-gather-{label}"),
                    after=[solve_tasks[i]],
                )
        return graph, out

    def build_update_graph(self, source, fixed: np.ndarray | None, label: str) -> tuple[TaskGraph, np.ndarray | None]:
        """The task graph of one update pass (solving the ``source``-row side).

        ``source`` sizes the graph: a :class:`~repro.sparse.csr.CSRMatrix`
        (exact ratings per row range and per grid block) or a full-scale
        :class:`~repro.datasets.registry.DatasetSpec` (uniform ratings per
        row, grid blocks in proportion to their column share).  Numeric
        closures are attached only when the ``fixed`` factor is given; the
        returned array (``None`` otherwise) is filled when the graph
        executes.

        Dispatches to pure model parallelism when the fixed factor fits on
        one GPU, and to the data-parallel (grid partition + reduction)
        scheme of Algorithm 3 otherwise.
        """
        if self._model_parallel(source.shape[1]):
            return self._build_model_parallel_graph(source, fixed, label)
        return self._build_data_parallel_graph(source, fixed, label)

    def _update_pass(self, r: CSRMatrix, fixed: np.ndarray, label: str) -> np.ndarray:
        """One SU-ALS update pass: build the graph, execute it, keep the trace."""
        graph, out = self.build_update_graph(r, fixed, label)
        self.traces.append(execute_graph(graph, self.machine, self.scheduler, verify=self.verify))
        return out
