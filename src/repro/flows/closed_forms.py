"""Closed-form throughput for structured (topology, pattern) pairs.

For the experiment workhorses — uniform shifts and power-of-two XOR
exchanges on rings, XOR exchanges on hypercubes — the maximum concurrent
flow has an exact closed form.  Using it avoids thousands of LP solves
in the figure sweeps; the LP is retained as ground truth and the test
suite asserts agreement.

Derivations
-----------
*Unidirectional ring, shift k* (capacity ``c`` per edge, in reference
units): the only path for ``i -> i+k`` is the k-hop clockwise arc, every
edge carries exactly k commodities, so ``theta = c / k``.

*Bidirectional ring, shift k* (capacity ``c`` per direction): averaging
any optimum over the rotation group yields a symmetric split — fraction
``p`` clockwise (k hops), ``1-p`` counter-clockwise (n-k hops).  Loads
are ``p*k`` clockwise and ``(1-p)*(n-k)`` counter-clockwise per unit
theta; equalizing gives ``p = (n-k)/n`` and

    theta = c * n / (k * (n - k)).

*Ring, XOR exchange at distance d = 2^j*: ranks pair up inside aligned
2d-blocks, the lower half of a block sending ``+d`` and the upper half
``-d``, so 2d divides n.  At ``d = n/2`` the exchange is shift ``n/2``
and the shift form answers it; otherwise ``2d < n``.

On the bidirectional ring (capacity ``c`` per direction),

    theta = c / d.

Lower bound: route each ``+d`` pair clockwise and each ``-d`` pair
counter-clockwise, d hops each, at rate ``c/d``.  The clockwise paths
through an edge start at the d ranks before it, so no edge carries more
than ``d * c/d = c``; likewise counter-clockwise.  Upper bound: take the
2d-rank window running from the upper half of one 2d-block through the
lower half of the next.  Every rank in it sends out of it (an upper half
sends down into its own block, a lower half up into its own), and two
edges leave it, one per direction.  Unit length on those two edges and
zero elsewhere puts every window source at distance 1 and every other
pair at 0, so ``theta <= 2c / 2d = c / d``.

On the unidirectional ring (capacity ``c`` per edge),

    theta = 2c / n.

Each pair ``{i, i+d}`` has one path per direction: the ``+d`` path
crosses the d edges from i to i+d and the ``-d`` path the other n-d, so
every edge carries exactly n/2 paths.  Rate ``2c/n`` on every path loads
each edge to exactly c (the lower bound); unit length on every edge
gives ``n*c / (n*n/2) = 2c/n`` (the upper bound).

*Hypercube, XOR exchange at distance 2^j* (capacity ``c`` per link):
every pair is adjacent along dimension j and owns that link exclusively,
so ``theta = c``.
"""

from __future__ import annotations

from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "detect_uniform_shift",
    "ring_shift_theta",
    "try_closed_form_theta",
]


def detect_uniform_shift(matching: Matching) -> int | None:
    """Return ``k`` if the matching is the full shift ``i -> (i+k) mod n``.

    Returns ``None`` for partial matchings or non-shift permutations.
    """
    n = matching.n
    if len(matching) != n:
        return None
    first = matching.dst_of(0)
    if first is None:
        return None
    k = first % n
    if k == 0:
        return None
    for src, dst in matching:
        if (src + k) % n != dst:
            return None
    return k


def _detect_uniform_xor(matching: Matching) -> int | None:
    """Return ``d`` if the matching is the full exchange ``i -> i XOR d``."""
    n = matching.n
    if len(matching) != n:
        return None
    first = matching.dst_of(0)
    if first is None or first == 0:
        return None
    d = first
    for src, dst in matching:
        if src ^ d != dst:
            return None
    return d


def ring_shift_theta(
    n: int,
    shift: int,
    per_direction_fraction: float,
    bidirectional: bool,
) -> float:
    """Exact theta for a uniform shift on a ring.

    ``per_direction_fraction`` is the per-direction edge capacity as a
    fraction of the reference rate (0.5 for the default bidirectional
    ring, 1.0 for the unidirectional ring).
    """
    k = shift % n
    if k == 0:
        return float("inf")
    if bidirectional:
        return per_direction_fraction * n / (k * (n - k))
    return per_direction_fraction / k


def rate_factor(topology: Topology, reference_rate: float) -> float:
    """The factor taking a closed form, which is normalized by the
    topology's recorded ``reference_rate``, to one normalized by
    ``reference_rate``.  Exactly ``1.0`` where the two agree, so
    rescaling never moves such a value."""
    recorded = topology.metadata.get("reference_rate")
    return 1.0 if recorded is None else float(recorded) / reference_rate


def try_closed_form_theta(topology: Topology, matching: Matching) -> float | None:
    """Closed-form theta when topology metadata and pattern allow it.

    Returns ``None`` when no closed form applies; callers then fall back
    to the LP.  Capacities are taken relative to the topology's recorded
    reference rate, so the result matches
    :func:`repro.flows.max_concurrent_flow` with the same reference.
    """
    if len(matching) == 0:
        return float("inf")
    meta = topology.metadata
    family = meta.get("family")
    if family == "ring" and matching.n == topology.n_ranks:
        n = matching.n
        fraction = float(meta["per_direction_fraction"])
        bidirectional = bool(meta["bidirectional"])
        shift = detect_uniform_shift(matching)
        if shift is not None:
            return ring_shift_theta(n, shift, fraction, bidirectional)
        # XOR-n/2 is shift n/2, answered above, so here 2d < n.
        distance = _detect_uniform_xor(matching)
        if distance is None or distance & (distance - 1) != 0:
            return None
        return fraction / distance if bidirectional else 2.0 * fraction / n
    if (
        family == "coprime_rings"
        and matching.n == topology.n_ranks
        and len(meta.get("shifts", ())) == 1
    ):
        # A single shift-s ring with gcd(s, n) = 1 is isomorphic to the
        # unit ring under relabeling i -> i * s^-1: the shift-k pattern
        # becomes shift-(k * s^-1 mod n).
        k = detect_uniform_shift(matching)
        if k is None:
            return None
        (s,) = meta["shifts"]
        n = matching.n
        try:
            t = (k * pow(int(s), -1, n)) % n
        except ValueError:  # s not invertible mod n: not a single cycle
            return None
        if t == 0:
            return None
        bidirectional = bool(meta.get("bidirectional", False))
        fraction = 0.5 if bidirectional else 1.0
        return ring_shift_theta(n, t, fraction, bidirectional)
    if family == "hypercube" and matching.n == topology.n_ranks:
        distance = _detect_uniform_xor(matching)
        if distance is None or distance & (distance - 1) != 0:
            return None
        dims = int(meta["dims"])
        return 1.0 / dims
    if family == "matched":
        # A matched topology routes its own pattern at full rate when
        # every pair owns a dedicated edge and no alternate route exists
        # (out/in degree one); otherwise the LP must arbitrate.
        dedicated = all(
            topology.has_edge(src, dst)
            and topology.out_degree(src) == 1
            and topology.in_degree(dst) == 1
            for src, dst in matching
        )
        if dedicated:
            reference = float(meta["reference_rate"])
            return min(
                topology.capacity(src, dst) / reference for src, dst in matching
            )
        return None
    return None
