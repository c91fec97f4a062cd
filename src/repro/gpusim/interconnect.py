"""Inter-device interconnect model: links, topologies, and transfer pricing.

Single-device simulation prices compute but moves bytes between devices
for free — exactly the cost that dominates distributed sparse pairwise
workloads (McFarland, Bellavita & Guidi: partition shape and communication
schedule, not kernel choice, decide distributed SpGEMM performance). This
module makes that cost explicit: a :class:`LinkSpec` prices one directed
link with the classic latency + size/bandwidth model, an
:class:`InterconnectSpec` maps device pairs onto links for a topology, and
the :func:`price_transfer` / :func:`simulate_transfer` pair mirrors
:class:`~repro.gpusim.Launch`'s ``price`` / ``execute`` split — pricing is
side-effect-free and shared with the partition autotuner's dry runs, while
simulation adds the fault checkpoint. Neither records anything: the
distributed executor's observer turns each completed transfer into the
``comm_*`` metrics and a ``comm.transfer`` event.

Three named presets mirror :func:`repro.gpusim.get_device`:

===========  =====================================================
preset       topology
===========  =====================================================
``nvlink``   fully-connected NVLink mesh (every pair one hop)
``pcie``     host-staged PCIe: every transfer bounces through the
             host, paying the link twice
``network``  multi-node: NVLink inside a 4-device node, a network
             tier between nodes
===========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import InterconnectConfigError
from repro.gpusim.executor import fault_checkpoint

__all__ = [
    "LinkSpec",
    "Transfer",
    "InterconnectSpec",
    "INTERCONNECTS",
    "get_interconnect",
    "simulate_transfer",
    "LOCAL_TIER",
]

#: Tier label stamped on zero-cost same-device "transfers".
LOCAL_TIER = "local"

@dataclass(frozen=True)
class LinkSpec:
    """One directed link: bandwidth, per-message latency, and tier label.

    ``hops`` folds staging into the link itself: a host-staged PCIe path
    pays latency and serialization once per hop (device → host → device is
    two hops of the same physical link).
    """

    bandwidth_gbs: float
    latency_us: float
    tier: str
    hops: int = 1

    def __post_init__(self):
        if self.bandwidth_gbs <= 0.0:
            raise InterconnectConfigError(
                f"link bandwidth must be positive, got {self.bandwidth_gbs}")
        if self.latency_us < 0.0:
            raise InterconnectConfigError(
                f"link latency must be non-negative, got {self.latency_us}")
        if self.hops < 1:
            raise InterconnectConfigError(
                f"link hops must be >= 1, got {self.hops}")
        if not self.tier:
            raise InterconnectConfigError("link tier label must be non-empty")

    def seconds(self, nbytes: int) -> float:
        """Price moving ``nbytes`` over this link: hops × (α + n/β)."""
        per_hop = self.latency_us * 1e-6 + nbytes / (self.bandwidth_gbs * 1e9)
        return self.hops * per_hop


@dataclass(frozen=True)
class Transfer:
    """One priced point-to-point transfer (the analogue of
    :class:`~repro.gpusim.LaunchResult`)."""

    nbytes: int
    src: int
    dst: int
    seconds: float
    tier: str


_TOPOLOGIES = ("all_to_all", "host_staged", "multi_node")


@dataclass(frozen=True)
class InterconnectSpec:
    """A topology mapping device pairs onto links.

    ``all_to_all`` uses ``intra`` for every pair; ``host_staged`` does too
    (the staging cost lives in the link's ``hops``); ``multi_node`` groups
    devices into nodes of ``devices_per_node`` and routes cross-node pairs
    over ``inter``.
    """

    name: str
    n_devices: int
    topology: str
    intra: LinkSpec
    inter: Optional[LinkSpec] = None
    devices_per_node: int = 0

    def __post_init__(self):
        if self.n_devices < 1:
            raise InterconnectConfigError(
                f"interconnect needs >= 1 device, got {self.n_devices}")
        if self.topology not in _TOPOLOGIES:
            raise InterconnectConfigError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {_TOPOLOGIES}")
        if self.topology == "multi_node":
            if self.inter is None:
                raise InterconnectConfigError(
                    "multi_node topology needs an inter-node link")
            if self.devices_per_node < 1:
                raise InterconnectConfigError(
                    "multi_node topology needs devices_per_node >= 1, "
                    f"got {self.devices_per_node}")

    # ------------------------------------------------------------------
    def _check_device(self, device: int, role: str) -> int:
        device = int(device)
        if not 0 <= device < self.n_devices:
            raise InterconnectConfigError(
                f"{role} device {device} outside range(0, {self.n_devices}) "
                f"of interconnect {self.name!r}")
        return device

    def link(self, src: int, dst: int) -> LinkSpec:
        """The link a ``src → dst`` transfer travels (``src != dst``)."""
        src = self._check_device(src, "src")
        dst = self._check_device(dst, "dst")
        if self.topology == "multi_node":
            if src // self.devices_per_node != dst // self.devices_per_node:
                return self.inter
        return self.intra

    def price_transfer(self, nbytes: int, src: int, dst: int) -> Transfer:
        """Price one transfer — pure, side-effect-free (the autotuner's
        dry runs and :func:`simulate_transfer` share this core, so the
        modeled cost and the executed cost can never drift)."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise InterconnectConfigError(
                f"transfer size must be non-negative, got {nbytes}")
        src = self._check_device(src, "src")
        dst = self._check_device(dst, "dst")
        if src == dst:
            return Transfer(nbytes=nbytes, src=src, dst=dst,
                            seconds=0.0, tier=LOCAL_TIER)
        link = self.link(src, dst)
        return Transfer(nbytes=nbytes, src=src, dst=dst,
                        seconds=link.seconds(nbytes), tier=link.tier)


def _nvlink_link() -> LinkSpec:
    return LinkSpec(bandwidth_gbs=150.0, latency_us=1.9, tier="nvlink")


#: Registered presets: ``name -> factory(n_devices) -> InterconnectSpec``.
INTERCONNECTS = {
    "nvlink": lambda n: InterconnectSpec(
        name="nvlink", n_devices=n, topology="all_to_all",
        intra=_nvlink_link()),
    "pcie": lambda n: InterconnectSpec(
        name="pcie", n_devices=n, topology="host_staged",
        intra=LinkSpec(bandwidth_gbs=16.0, latency_us=5.0,
                       tier="pcie", hops=2)),
    "network": lambda n: InterconnectSpec(
        name="network", n_devices=n, topology="multi_node",
        intra=_nvlink_link(),
        inter=LinkSpec(bandwidth_gbs=25.0, latency_us=50.0, tier="network"),
        devices_per_node=4),
}


def get_interconnect(name, n_devices: int) -> InterconnectSpec:
    """Resolve a preset name (or pass through a spec) for ``n_devices``.

    Mirrors :func:`repro.gpusim.get_device`: strings hit the preset
    registry; an :class:`InterconnectSpec` instance is validated against
    the requested device count and returned unchanged.
    """
    if isinstance(name, InterconnectSpec):
        if name.n_devices < n_devices:
            raise InterconnectConfigError(
                f"interconnect {name.name!r} spans {name.n_devices} devices "
                f"but {n_devices} are required")
        return name
    try:
        factory = INTERCONNECTS[name]
    except (KeyError, TypeError):
        raise InterconnectConfigError(
            f"unknown interconnect {name!r}; expected one of "
            f"{tuple(sorted(INTERCONNECTS))} or an InterconnectSpec"
        ) from None
    return factory(int(n_devices))


def simulate_transfer(interconnect: InterconnectSpec, nbytes: int,
                      src: int, dst: int) -> Transfer:
    """Price a transfer behind the fault checkpoint.

    The transfer analogue of :meth:`~repro.gpusim.Launch.execute`: the
    thread's fault hook (see :func:`~repro.gpusim.executor.fault_hook`)
    may raise before pricing, impersonating a mid-transfer link fault.
    """
    fault_checkpoint("transfer", nbytes=nbytes, src=src, dst=dst)
    return interconnect.price_transfer(nbytes, src, dst)
