"""Unit tests for node, interconnect, platform, and cluster models."""

import pytest

from repro.machine import (
    CpuSpec,
    Crossing,
    Environment,
    Fabric,
    FabricSpec,
    LinkSpec,
    PLATFORMS,
    SimCluster,
    cspi,
    get_platform,
    mercury,
    perfmodel,
    sigi,
    sky,
)
from repro.machine.node import SimNode


@pytest.fixture
def env():
    return Environment()


def make_cpu(**kw):
    defaults = dict(
        name="test", clock_mhz=200.0, mflops=100.0, copy_bw=200e6, call_overhead=1e-6
    )
    defaults.update(kw)
    return CpuSpec(**defaults)


class TestCpuSpec:
    def test_compute_time_linear_in_flops(self):
        cpu = make_cpu(call_overhead=0.0)
        assert cpu.compute_time(100e6) == pytest.approx(1.0)
        assert cpu.compute_time(50e6) == pytest.approx(0.5)

    def test_compute_time_includes_overhead(self):
        cpu = make_cpu(call_overhead=1e-3)
        assert cpu.compute_time(100e6) == pytest.approx(1.001)

    def test_zero_flops_is_free(self):
        assert make_cpu().compute_time(0) == 0.0

    def test_copy_time(self):
        cpu = make_cpu(call_overhead=0.0)
        assert cpu.copy_time(200e6) == pytest.approx(1.0)

    def test_negative_inputs_rejected(self):
        cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.compute_time(-1)
        with pytest.raises(ValueError):
            cpu.copy_time(-1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            make_cpu(mflops=0)
        with pytest.raises(ValueError):
            make_cpu(copy_bw=-1)


class TestSimNode:
    def test_compute_occupies_cpu(self, env):
        node = SimNode(index=0, spec=make_cpu(call_overhead=0.0), env=env)

        def work():
            yield from node.compute(100e6)
            return env.now

        assert env.run(until=env.process(work())) == pytest.approx(1.0)

    def test_two_threads_on_one_node_serialise(self, env):
        node = SimNode(index=0, spec=make_cpu(call_overhead=0.0), env=env)
        ends = []

        def work():
            yield from node.compute(100e6)
            ends.append(env.now)

        env.process(work())
        env.process(work())
        env.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_memory_accounting(self, env):
        node = SimNode(index=0, spec=make_cpu(memory_bytes=1000), env=env)
        node.allocate(600)
        with pytest.raises(MemoryError):
            node.allocate(500)
        node.free(600)
        node.allocate(1000)

    def test_free_too_much_raises(self, env):
        node = SimNode(index=0, spec=make_cpu(), env=env)
        with pytest.raises(ValueError):
            node.free(1)


class TestLinkSpec:
    def test_transfer_time_formula(self):
        link = LinkSpec(latency=1e-6, bandwidth=100e6, sw_overhead=2e-6)
        assert link.transfer_time(100e6) == pytest.approx(1.0 + 3e-6)

    def test_zero_bytes_pays_fixed_costs(self):
        link = LinkSpec(latency=1e-6, bandwidth=100e6, sw_overhead=2e-6)
        assert link.transfer_time(0) == pytest.approx(3e-6)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1, bandwidth=1e6, sw_overhead=0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=0, sw_overhead=0)


def two_tier_fabric(env, crossbar=True, shared_channels=1):
    spec = FabricSpec(
        name="test",
        inter_board=LinkSpec(latency=10e-6, bandwidth=100e6, sw_overhead=0),
        intra_board=LinkSpec(latency=1e-6, bandwidth=400e6, sw_overhead=0),
        crossbar=crossbar,
        shared_channels=shared_channels,
    )
    # nodes 0,1 on board 0; nodes 2,3 on board 1
    return Fabric(env, spec, {0: 0, 1: 0, 2: 1, 3: 1})


class TestFabric:
    def test_intra_board_faster(self, env):
        fab = two_tier_fabric(env)
        assert fab.transfer_time(0, 1, 1e6) < fab.transfer_time(0, 2, 1e6)

    def test_loopback_is_free(self, env):
        fab = two_tier_fabric(env)
        assert fab.transfer_time(1, 1, 1e9) == 0.0

    def test_crossbar_disjoint_pairs_parallel(self, env):
        fab = two_tier_fabric(env, crossbar=True)
        ends = []

        def xfer(src, dst):
            yield Crossing(env, fab, src, dst, 100e6).done  # 1s + 10us inter-board
            ends.append(env.now)

        env.process(xfer(0, 2))
        env.process(xfer(1, 3))
        env.run()
        assert ends[0] == pytest.approx(1.00001)
        assert ends[1] == pytest.approx(1.00001)

    def test_same_pair_contends(self, env):
        fab = two_tier_fabric(env, crossbar=True)
        ends = []

        def xfer():
            yield Crossing(env, fab, 0, 2, 100e6).done
            ends.append(env.now)

        env.process(xfer())
        env.process(xfer())
        env.run()
        assert ends[1] == pytest.approx(2 * ends[0], rel=1e-6)

    def test_shared_medium_serialises_inter_board(self, env):
        fab = two_tier_fabric(env, crossbar=False, shared_channels=1)
        ends = []

        def xfer(src, dst):
            yield Crossing(env, fab, src, dst, 100e6).done
            ends.append(env.now)

        env.process(xfer(0, 2))
        env.process(xfer(1, 3))
        env.run()
        assert ends[1] == pytest.approx(2 * ends[0], rel=1e-6)

    def test_shared_medium_intra_board_not_affected(self, env):
        fab = two_tier_fabric(env, crossbar=False, shared_channels=1)
        ends = []

        def xfer(src, dst):
            yield Crossing(env, fab, src, dst, 4e6).done
            ends.append((src, dst, env.now))

        env.process(xfer(0, 1))
        env.process(xfer(2, 3))
        env.run()
        # Both intra-board transfers complete at the same (fast) time.
        assert ends[0][2] == ends[1][2]


class TestPlatforms:
    @pytest.mark.parametrize("name", sorted(PLATFORMS))
    def test_presets_constructible(self, name):
        p = get_platform(name)
        assert p.cpu.mflops > 0
        assert p.fabric.inter_board.bandwidth > 0

    def test_unknown_platform(self):
        with pytest.raises(KeyError, match="unknown platform"):
            get_platform("cray")

    def test_case_insensitive(self):
        assert get_platform("CSPI").name == "CSPI"

    def test_cspi_matches_paper_section_3_2(self):
        p = cspi()
        assert p.cpu.name == "PowerPC 603e"
        assert p.cpu.clock_mhz == 200.0
        assert p.cpu.memory_bytes == 64 * 1024 * 1024
        assert p.fabric.inter_board.bandwidth == pytest.approx(160e6)
        assert p.cpus_per_board == 4

    def test_board_map_groups_quads(self):
        p = cspi()
        bm = p.board_map(8)
        assert [bm[i] for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_fabric_bandwidth_ordering(self):
        # SKY backplane > Mercury RACEway > CSPI Myrinet > SIGI
        bws = {
            p().name: p().fabric.inter_board.bandwidth
            for p in (cspi, mercury, sky, sigi)
        }
        assert bws["SKY"] > bws["Mercury"] > bws["CSPI"] > bws["SIGI"]


class TestSimCluster:
    def test_from_platform(self, env):
        cluster = SimCluster.from_platform(env, cspi(), 8)
        assert len(cluster) == 8
        assert cluster.node(0).board == 0
        assert cluster.node(7).board == 1

    def test_node_index_error(self, env):
        cluster = SimCluster.from_platform(env, cspi(), 4)
        with pytest.raises(IndexError):
            cluster.node(4)

    def test_invalid_node_count(self, env):
        with pytest.raises(ValueError):
            SimCluster.from_platform(env, cspi(), 0)

    def test_cross_board_transfer_slower_than_intra(self, env):
        cluster = SimCluster.from_platform(env, cspi(), 8)
        nbytes = 1 << 20
        intra = cluster.fabric.transfer_time(0, 1, nbytes)
        inter = cluster.fabric.transfer_time(0, 4, nbytes)
        assert inter > intra


class TestPerfModel:
    def test_fft_flops_formula(self):
        assert perfmodel.fft_flops(1024) == pytest.approx(5 * 1024 * 10)

    def test_fft_flops_length_one(self):
        assert perfmodel.fft_flops(1) == 0.0

    def test_fft_flops_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            perfmodel.fft_flops(100)

    def test_fft2d_is_two_row_passes(self):
        n = 256
        assert perfmodel.fft2d_flops(n) == pytest.approx(2 * n * perfmodel.fft_flops(n))

    def test_corner_turn_message_bytes(self):
        # 1024x1024 complex64 over 4 nodes: each tile 256x256x8 bytes
        assert perfmodel.corner_turn_message_bytes(1024, 4) == 256 * 256 * 8

    def test_corner_turn_indivisible_rejected(self):
        with pytest.raises(ValueError):
            perfmodel.corner_turn_message_bytes(1000, 3)
