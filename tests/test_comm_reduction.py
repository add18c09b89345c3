"""Tests for the reduction schemes and collectives (Figure 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.collective import scatter_plan
from repro.comm.reduction import (
    OnePhaseParallelReduction,
    ReduceToOne,
    TwoPhaseTopologyReduction,
    numeric_reduce,
)
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology


class TestNumericReduce:
    def test_sum_matches_numpy(self, rng):
        partials = [rng.normal(size=(6, 4)) for _ in range(4)]
        np.testing.assert_allclose(numeric_reduce(partials), np.sum(partials, axis=0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            numeric_reduce([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            numeric_reduce([np.zeros((2, 2)), np.zeros((3, 2))])


class TestReductionSchedules:
    def _machine(self, n_gpus=4, dual=True):
        topo = MachineTopology.dual_socket(n_gpus) if dual else MachineTopology.single_socket(n_gpus)
        return MultiGPUMachine(n_gpus=n_gpus, topology=topo)

    def test_single_gpu_needs_no_transfers(self):
        machine = MultiGPUMachine(1)
        for scheme in (ReduceToOne(), OnePhaseParallelReduction(), TwoPhaseTopologyReduction()):
            assert scheme.transfer_batches(machine, 1e9) in ([], [[]]) or all(
                len(batch) == 0 for batch in scheme.transfer_batches(machine, 1e9)
            )

    def test_reduce_to_one_sends_everything_to_root(self):
        machine = self._machine()
        batches = ReduceToOne(root=0).transfer_batches(machine, 1e9)
        assert len(batches) == 1
        assert all(t.dst == "gpu:0" for t in batches[0])
        assert len(batches[0]) == 3

    def test_one_phase_all_to_all_volume(self):
        machine = self._machine()
        batches = OnePhaseParallelReduction().transfer_batches(machine, 4e9)
        assert len(batches) == 1
        assert len(batches[0]) == 12  # p*(p-1)
        assert all(t.nbytes == pytest.approx(1e9) for t in batches[0])

    def test_two_phase_has_two_batches_on_dual_socket(self):
        machine = self._machine()
        batches = TwoPhaseTopologyReduction().transfer_batches(machine, 4e9)
        assert len(batches) == 2
        # Phase 1 must stay intra-socket, phase 2 must cross sockets.
        topo = machine.topology
        for t in batches[0]:
            a, b = int(t.src.split(":")[1]), int(t.dst.split(":")[1])
            assert topo.same_socket(a, b)
        for t in batches[1]:
            a, b = int(t.src.split(":")[1]), int(t.dst.split(":")[1])
            assert not topo.same_socket(a, b)

    def test_two_phase_degenerates_on_single_socket(self):
        machine = self._machine(dual=False)
        two = TwoPhaseTopologyReduction().transfer_batches(machine, 4e9)
        one = OnePhaseParallelReduction().transfer_batches(machine, 4e9)
        assert len(two) == len(one) == 1
        assert len(two[0]) == len(one[0])

    def test_parallel_reduction_faster_than_reduce_to_one(self):
        nbytes = 2e9
        t_naive = ReduceToOne().simulate(self._machine(), nbytes)
        t_parallel = OnePhaseParallelReduction().simulate(self._machine(), nbytes)
        t_topo = TwoPhaseTopologyReduction().simulate(self._machine(), nbytes)
        assert t_parallel < t_naive
        assert t_topo < t_parallel

    def test_solver_parallelism(self):
        assert ReduceToOne().solver_parallelism(4) == 1
        assert OnePhaseParallelReduction().solver_parallelism(4) == 4
        assert TwoPhaseTopologyReduction().solver_parallelism(4) == 4


class TestCollectives:
    def test_scatter_plan_sizes(self):
        machine = MultiGPUMachine(3, topology=MachineTopology.single_socket(3))
        plan = scatter_plan(machine, [1e6, 2e6, 0.0])
        assert len(plan) == 2  # zero-byte transfer dropped
        assert plan[0].dst == "gpu:0" and plan[1].dst == "gpu:1"

    def test_scatter_plan_validates_length(self):
        machine = MultiGPUMachine(2)
        with pytest.raises(ValueError):
            scatter_plan(machine, [1e6])
