"""Cost-model and launch-bookkeeping tests: the model must be monotone in
work and reproduce the overlap/serialization semantics it documents."""

import pytest

from repro.gpusim.cost_model import CostModel
from repro.gpusim.executor import Launch
from repro.gpusim.occupancy import compute_occupancy
from repro.gpusim.specs import KIB, VOLTA_V100
from repro.gpusim.stats import KernelStats


def _stats(**kwargs) -> KernelStats:
    s = KernelStats()
    for k, v in kwargs.items():
        setattr(s, k, v)
    return s


class TestSimulate:
    def test_zero_work_costs_only_fixed(self):
        t = CostModel(VOLTA_V100).simulate(_stats(kernel_launches=1))
        assert t.seconds == pytest.approx(t.fixed_seconds)
        assert t.fixed_seconds > 0

    def test_monotone_in_alu(self):
        model = CostModel(VOLTA_V100)
        t1 = model.seconds(_stats(alu_ops=1e9))
        t2 = model.seconds(_stats(alu_ops=2e9))
        assert t2 > t1

    def test_monotone_in_transactions(self):
        model = CostModel(VOLTA_V100)
        t1 = model.seconds(_stats(gmem_transactions=1e7))
        t2 = model.seconds(_stats(gmem_transactions=3e7))
        assert t2 > t1

    def test_compute_and_memory_overlap(self):
        """time = max(compute, memory), not their sum."""
        model = CostModel(VOLTA_V100)
        compute_only = model.simulate(_stats(alu_ops=1e10))
        memory_only = model.simulate(_stats(gmem_transactions=1e6))
        both = model.simulate(_stats(alu_ops=1e10, gmem_transactions=1e6))
        assert both.seconds == pytest.approx(
            max(compute_only.compute_seconds, memory_only.memory_seconds),
            rel=1e-9)

    def test_bound_attribution(self):
        model = CostModel(VOLTA_V100)
        assert model.simulate(_stats(alu_ops=1e12)).bound == "compute"
        assert model.simulate(_stats(gmem_transactions=1e9)).bound == "memory"

    def test_special_ops_cost_more_than_alu(self):
        model = CostModel(VOLTA_V100)
        assert (model.seconds(_stats(special_ops=1e9))
                > model.seconds(_stats(alu_ops=1e9)))

    def test_half_occupancy_still_saturates_issue(self):
        """Residency hides latency; 50% occupancy already saturates the
        SM's issue width, so compute time must NOT degrade."""
        model = CostModel(VOLTA_V100)
        stats = _stats(alu_ops=1e10)
        full = compute_occupancy(VOLTA_V100, block_threads=1024,
                                 smem_per_block=32 * KIB, regs_per_thread=31)
        half = compute_occupancy(VOLTA_V100, block_threads=1024,
                                 smem_per_block=96 * KIB, regs_per_thread=31)
        assert model.simulate(stats, occupancy=half).seconds == \
            pytest.approx(model.simulate(stats, occupancy=full).seconds)

    def test_starved_occupancy_slows_compute_and_memory(self):
        """Far below residency limits, both issue and DRAM utilization
        starve — the §3.2.1 expand-sort-contract pathology."""
        model = CostModel(VOLTA_V100)
        full = compute_occupancy(VOLTA_V100, block_threads=1024,
                                 smem_per_block=32 * KIB, regs_per_thread=31)
        # one 4-warp block per SM: 6.25% occupancy
        starved = compute_occupancy(VOLTA_V100, block_threads=128,
                                    smem_per_block=96 * KIB,
                                    regs_per_thread=31)
        compute = _stats(alu_ops=1e10)
        memory = _stats(gmem_transactions=1e7)
        assert (model.simulate(compute, occupancy=starved).seconds
                > 4 * model.simulate(compute, occupancy=full).seconds)
        assert (model.simulate(memory, occupancy=starved).seconds
                > 2 * model.simulate(memory, occupancy=full).seconds)

    def test_divergence_and_probes_serialize(self):
        model = CostModel(VOLTA_V100)
        base = model.seconds(_stats(alu_ops=1e9))
        diverged = model.seconds(_stats(alu_ops=1e9, divergent_branches=1e9))
        probed = model.seconds(_stats(alu_ops=1e9, probe_steps=1e9))
        assert diverged > base
        assert probed > base


class TestSimulateLaunch:
    """:meth:`Launch.execute`, the one simulated launch."""

    def test_stamps_launch_shape(self):
        launch = Launch(KernelStats(), grid_blocks=100, block_threads=256,
                        smem_per_block=KIB)
        res = launch.execute(VOLTA_V100)
        stats = res.stats
        assert stats.kernel_launches == 1
        assert stats.blocks_launched == 100
        assert stats.warps_launched == 100 * 8
        assert stats.smem_bytes_per_block == KIB
        assert res.seconds > 0
        assert res.seconds == launch.price(VOLTA_V100).seconds
        assert launch.stats.kernel_launches == 0  # a copy is stamped

    def test_invalid_shape_raises(self):
        from repro.errors import KernelLaunchError
        with pytest.raises(KernelLaunchError):
            Launch(KernelStats(), grid_blocks=1,
                   block_threads=4096).execute(VOLTA_V100)


class TestStatsContainer:
    def test_merge_adds_counters(self):
        a = _stats(alu_ops=5, gmem_transactions=2, smem_bytes_per_block=100)
        b = _stats(alu_ops=3, gmem_transactions=1, smem_bytes_per_block=200)
        a.merge(b)
        assert a.alu_ops == 8
        assert a.gmem_transactions == 3
        assert a.smem_bytes_per_block == 200  # max, not sum

    def test_scaled(self):
        s = _stats(alu_ops=10, workspace_bytes=50).scaled(3.0)
        assert s.alu_ops == 30
        assert s.workspace_bytes == 50  # capacities don't scale

    def test_coalescing_efficiency(self):
        s = _stats(gmem_transactions=100, uncoalesced_loads=25)
        assert s.coalescing_efficiency == pytest.approx(0.75)
        assert KernelStats().coalescing_efficiency == 1.0

    def test_as_dict_roundtrip(self):
        d = _stats(alu_ops=7).as_dict()
        assert d["alu_ops"] == 7
        assert "probe_steps" in d
