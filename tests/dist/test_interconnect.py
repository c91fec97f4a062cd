"""Interconnect model: link pricing, topology routing, preset registry."""

import pytest

from repro.errors import InterconnectConfigError
from repro.gpusim.interconnect import (
    INTERCONNECTS,
    LOCAL_TIER,
    InterconnectSpec,
    LinkSpec,
    get_interconnect,
    simulate_transfer,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.record import observer


def test_link_seconds_alpha_beta_model():
    link = LinkSpec(bandwidth_gbs=100.0, latency_us=2.0, tier="t")
    assert link.seconds(0) == pytest.approx(2.0e-6)
    assert link.seconds(10**9) == pytest.approx(2.0e-6 + 0.01)
    # hops multiply the whole per-hop cost (host staging pays twice)
    staged = LinkSpec(bandwidth_gbs=100.0, latency_us=2.0, tier="t", hops=2)
    assert staged.seconds(10**9) == pytest.approx(2 * (2.0e-6 + 0.01))


@pytest.mark.parametrize("kwargs", [
    dict(bandwidth_gbs=0.0, latency_us=1.0, tier="t"),
    dict(bandwidth_gbs=-1.0, latency_us=1.0, tier="t"),
    dict(bandwidth_gbs=1.0, latency_us=-1.0, tier="t"),
    dict(bandwidth_gbs=1.0, latency_us=1.0, tier=""),
    dict(bandwidth_gbs=1.0, latency_us=1.0, tier="t", hops=0),
])
def test_link_validation(kwargs):
    with pytest.raises(InterconnectConfigError):
        LinkSpec(**kwargs)


@pytest.mark.parametrize("name", sorted(INTERCONNECTS))
def test_presets_resolve_and_price(name):
    spec = get_interconnect(name, 8)
    assert spec.name == name
    assert spec.n_devices == 8
    transfer = spec.price_transfer(4096, 0, 1)
    assert transfer.seconds > 0.0
    assert transfer.nbytes == 4096
    # pricing is pure: same call, same float
    assert spec.price_transfer(4096, 0, 1) == transfer


def test_same_device_transfer_is_free():
    spec = get_interconnect("nvlink", 4)
    transfer = spec.price_transfer(1 << 20, 2, 2)
    assert transfer.seconds == 0.0
    assert transfer.tier == LOCAL_TIER


def test_multi_node_routes_cross_node_over_network_tier():
    spec = get_interconnect("network", 8)
    # devices 0-3 are node 0, 4-7 node 1
    assert spec.price_transfer(1024, 0, 3).tier == "nvlink"
    assert spec.price_transfer(1024, 0, 4).tier == "network"
    assert spec.price_transfer(1024, 7, 4).tier == "nvlink"
    # the network tier is strictly slower for the same payload
    assert (spec.price_transfer(1 << 20, 0, 4).seconds
            > spec.price_transfer(1 << 20, 0, 1).seconds)


def test_pcie_host_staging_costs_two_hops():
    pcie = get_interconnect("pcie", 2)
    one_hop = LinkSpec(bandwidth_gbs=16.0, latency_us=5.0, tier="pcie")
    assert (pcie.price_transfer(1 << 16, 0, 1).seconds
            == pytest.approx(2 * one_hop.seconds(1 << 16)))


def test_get_interconnect_validates():
    with pytest.raises(InterconnectConfigError):
        get_interconnect("infiniband", 2)
    spec = get_interconnect("nvlink", 4)
    # a spec instance passes through when large enough, else rejects
    assert get_interconnect(spec, 3) is spec
    with pytest.raises(InterconnectConfigError):
        get_interconnect(spec, 8)


def test_price_transfer_validates_endpoints_and_size():
    spec = get_interconnect("nvlink", 2)
    with pytest.raises(InterconnectConfigError):
        spec.price_transfer(10, 0, 2)
    with pytest.raises(InterconnectConfigError):
        spec.price_transfer(10, -1, 0)
    with pytest.raises(InterconnectConfigError):
        spec.price_transfer(-1, 0, 1)


def test_spec_validation():
    link = LinkSpec(bandwidth_gbs=1.0, latency_us=1.0, tier="t")
    with pytest.raises(InterconnectConfigError):
        InterconnectSpec(name="x", n_devices=2, topology="ring", intra=link)
    with pytest.raises(InterconnectConfigError):
        InterconnectSpec(name="x", n_devices=0, topology="all_to_all",
                         intra=link)
    with pytest.raises(InterconnectConfigError):
        InterconnectSpec(name="x", n_devices=2, topology="multi_node",
                         intra=link)  # no inter link


def test_simulate_transfer_records_metrics_and_trace():
    """A transfer records nothing itself; the observer's projection of the
    :class:`Transfer` it returns writes the comm metrics and event."""
    spec = get_interconnect("network", 8)
    metrics = MetricsRegistry()
    tracer = Tracer()
    obs = observer(tracer, metrics)
    with tracer.span("job", "dist") as job:
        t1 = simulate_transfer(spec, 1000, 0, 1)
        t2 = simulate_transfer(spec, 2000, 0, 4)
        assert metrics.names() == () and not job.events
        for step, transfer in enumerate((t1, t2)):
            obs.record(transfer, span=job, step=step, phase="allgather.a",
                       retries=0, backoff_seconds=0.0, trace_id="",
                       ts_ms=0.0)
    assert metrics.counter("comm_transfers_total").value() == 2
    assert metrics.counter("comm_bytes_total").value(tier="nvlink") == 1000
    assert metrics.counter("comm_bytes_total").value(tier="network") == 2000
    assert (metrics.counter("comm_seconds_total").value()
            == pytest.approx(t1.seconds + t2.seconds))
    events = [e for s in tracer.roots for e in s.events
              if e.name == "comm.transfer"]
    assert len(events) == 2
    assert events[0].args["tier"] == "nvlink"
    assert events[1].args["tier"] == "network"
    # simulate delegates to the pure pricer: identical floats
    assert t1 == spec.price_transfer(1000, 0, 1)
