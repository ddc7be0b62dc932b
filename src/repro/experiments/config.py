"""The paper's evaluation configuration (§3.4).

All Figure 1 / Figure 2 panels share: ``n = 64`` GPUs, one 800 Gb/s
transceiver per GPU, ``delta = 100 ns`` per-hop propagation, and a
(bidirectional) ring base topology.  Each panel fixes the per-step
latency ``alpha`` and an algorithm, then sweeps the reconfiguration
delay ``alpha_r`` (columns) against the message size (rows).

The paper does not print its exact axis tick values; we use
logarithmically spaced grids spanning the regimes it describes
(``alpha_r`` from 100 ns to 10 ms, messages from 1 KiB to 1 GiB).
That choice is this module's ``DEFAULT_MESSAGE_SIZES`` and
``DEFAULT_ALPHA_RS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._validation import require_positive
from ..exceptions import ConfigurationError
from ..units import Gbps, GiB, KiB, MiB, ns, us

__all__ = ["PanelSpec", "PaperConfig", "PAPER_CONFIG", "small_config"]

#: Message-size rows (bits), smallest first.
DEFAULT_MESSAGE_SIZES: tuple[float, ...] = (
    KiB(1),
    KiB(16),
    KiB(256),
    MiB(4),
    MiB(64),
    GiB(1),
)

#: Reconfiguration-delay columns (seconds), smallest first.
DEFAULT_ALPHA_RS: tuple[float, ...] = (
    ns(100),
    us(1),
    us(10),
    us(100),
    us(1000),
    us(10000),
)


@dataclass(frozen=True)
class PanelSpec:
    """One heatmap panel of Figure 1 (or the single Figure 2 panel)."""

    panel: str
    algorithm: str
    alpha: float
    comparator: str  # "bvn" (top row), "static" (bottom row), "best" (fig 2)
    description: str


#: Figure 1 panels exactly as laid out in the paper.
FIGURE1_PANELS: tuple[PanelSpec, ...] = (
    PanelSpec("a", "allreduce_recursive_doubling", ns(100), "bvn",
              "Recursive doubling, alpha=100ns, OPT vs BvN"),
    PanelSpec("b", "allreduce_recursive_doubling", us(10), "bvn",
              "Recursive doubling, alpha=10us, OPT vs BvN"),
    PanelSpec("c", "allreduce_swing", ns(100), "bvn",
              "Swing, alpha=100ns, OPT vs BvN"),
    PanelSpec("d", "alltoall", ns(100), "bvn",
              "All-to-All, alpha=100ns, OPT vs BvN"),
    PanelSpec("e", "allreduce_recursive_doubling", ns(100), "static",
              "Recursive doubling, alpha=100ns, OPT vs static ring"),
    PanelSpec("f", "allreduce_recursive_doubling", us(10), "static",
              "Recursive doubling, alpha=10us, OPT vs static ring"),
    PanelSpec("g", "allreduce_swing", ns(100), "static",
              "Swing, alpha=100ns, OPT vs static ring"),
    PanelSpec("h", "alltoall", ns(100), "static",
              "All-to-All, alpha=100ns, OPT vs static ring"),
)

FIGURE2_PANEL = PanelSpec(
    "fig2",
    "allreduce_recursive_doubling",
    ns(100),
    "best",
    "Recursive doubling, alpha=100ns, OPT vs best of static/BvN",
)


@dataclass(frozen=True)
class PaperConfig:
    """A complete experiment configuration."""

    n: int = 64
    bandwidth: float = Gbps(800)
    delta: float = ns(100)
    bidirectional_ring: bool = True
    message_sizes: tuple[float, ...] = DEFAULT_MESSAGE_SIZES
    alpha_rs: tuple[float, ...] = DEFAULT_ALPHA_RS

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        require_positive(self.bandwidth, "bandwidth", ConfigurationError)
        if not self.message_sizes or not self.alpha_rs:
            raise ConfigurationError("grid axes must be non-empty")


#: The configuration matching the paper's §3.4 setup.
PAPER_CONFIG = PaperConfig()


def small_config(n: int = 8) -> PaperConfig:
    """A scaled-down configuration for tests and quick demos."""
    return replace(
        PAPER_CONFIG,
        n=n,
        message_sizes=(KiB(4), MiB(1), MiB(64)),
        alpha_rs=(ns(100), us(10), us(1000)),
    )
