"""Generators for the differential correctness harness.

This package pins every fast path against its reference
implementation, pairwise, over *generated scenario families* rather
than hand-picked cases:

* the closed forms  vs  the certified ``max_concurrent_flow``,
* the blockwise decomposition  vs  the flat ``max_concurrent_flow``,
* each batch entry point  vs  a loop of its one-item twin.

Every exact theta taken through :func:`certified_theta` also has its
certificate rechecked by the numpy-only verifier.

Families deliberately mix rows the fast path accelerates with rows it
must refuse (partial matchings, degraded fabrics, LP-only topologies),
because the refusals are where silent wrongness hides.  Agreement is
asserted at 1e-9; most pairs are in fact bit-identical.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.fabric.degradation import (
    FabricHealth,
    hotspot,
    random_failures,
    uniform_degradation,
)
from repro.flows import max_concurrent_flow, verify_certificate
from repro.matching import Matching
from repro.topology import (
    PodFabric,
    coprime_rings,
    full_mesh,
    hypercube,
    matched_topology,
    ring,
    star,
)
from repro.units import Gbps

#: One transceiver's nominal rate — the reference everything normalizes by.
RATE = Gbps(800)

#: Agreement tolerance for every differential pair in this package.
TOL = 1e-9

#: Float slack when checking that theta lies inside its certified
#: interval: the verifier re-adds the same path flows in another order.
ROUNDING = 1e-12


def agree(a: float, b: float, tol: float = TOL) -> bool:
    """Differential agreement: exact for inf/0, relative 1e-9 otherwise."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def certified_theta(topology, commodities, rate: float = RATE) -> float:
    """``max_concurrent_flow``'s theta, after checking its certificate:
    the verifier's interval is at most TOL wide relative to its lower
    end and contains theta (up to ROUNDING)."""
    result = max_concurrent_flow(topology, commodities, rate)
    if result.theta in (0.0, math.inf):
        assert result.certificate is None
        return result.theta
    lo, hi = verify_certificate(topology, commodities, rate, result.certificate)
    assert hi - lo <= TOL * lo, (topology.name, lo, hi)
    assert lo * (1 - ROUNDING) <= result.theta <= hi * (1 + ROUNDING)
    return result.theta


def xor_distances(n: int) -> list[int]:
    """Every d for which ``Matching.xor_exchange(n, d)`` leaves no rank
    without a partner (d = 1..7 at n = 24), powers of two or not."""
    return [d for d in range(1, n) if all(i ^ d < n for i in range(n))]


def _mixed_patterns(n: int) -> list[Matching]:
    """Patterns a batch must price *and* refuse: full shifts, XORs,
    partial matchings, a derangement that is neither, and the empty
    step."""
    patterns = [Matching.shift(n, k) for k in range(1, n)]
    patterns += [Matching.xor_exchange(n, d) for d in xor_distances(n)]
    # Partial matchings: only even ranks talk, one pair, empty.
    patterns.append(
        Matching(n, [(i, (i + 2) % n) for i in range(0, n, 2)])
    )
    patterns.append(Matching(n, [(0, n - 1)]))
    patterns.append(Matching(n, []))
    # A permutation that is neither a uniform shift nor a uniform XOR:
    # swap adjacent pairs but rotate the second half.
    perm = list(range(n))
    perm[0], perm[1] = perm[1], perm[0]
    half = n // 2
    perm[half:] = perm[half + 1 :] + perm[half : half + 1]
    patterns.append(Matching.from_permutation(perm))
    return patterns


def closed_form_families(n: int = 16) -> list[tuple[object, list[Matching]]]:
    """(topology, patterns) families where closed forms apply to a
    subset of rows and the LP covers the rest."""
    families = [
        (ring(n, RATE), _mixed_patterns(n)),
        (ring(n, RATE, bidirectional=False), _mixed_patterns(n)),
        # A ring whose size is not a power of two: the XOR form covers
        # d = 1, 2, 4 and must refuse d = 3, 5, 6, 7.
        (ring(24, RATE), _mixed_patterns(24)),
        (ring(24, RATE, bidirectional=False), _mixed_patterns(24)),
        (hypercube(n, RATE), _mixed_patterns(n)),
        (
            coprime_rings(n, (3,), RATE),
            _mixed_patterns(n),
        ),
    ]
    base = Matching.shift(n, 1)
    families.append(
        (
            matched_topology(base, RATE),
            [base, Matching.shift(n, 2), Matching(n, []), base],
        )
    )
    return families


def lp_only_families(n: int = 8) -> list[tuple[object, list[Matching]]]:
    """Families with no closed form at all — every row is an LP row."""
    return [
        (full_mesh(n, RATE), _mixed_patterns(n)[: n + 2]),
        (star(n, RATE), [Matching.shift(n, 1), Matching(n, [(0, 3)])]),
    ]


def pod_families(n: int = 8) -> list[tuple[object, list[Matching]]]:
    """Pod fabrics, whose exact theta is priced by pod blocks: two even
    pods, and the same pods behind one dimmed uplink bundle."""
    half = n // 2
    even = PodFabric(pod_sizes=(half, n - half), bandwidth=RATE, uplinks_per_pod=2)
    dimmed = PodFabric(
        pod_sizes=(half, n - half),
        bandwidth=RATE,
        uplinks_per_pod=2,
        uplink_multipliers=(1.0, 0.5),
    )
    return [
        (even.flat_topology(), _mixed_patterns(n)),
        (dimmed.flat_topology(), _mixed_patterns(n)),
    ]


def degraded_variants(topology, n: int):
    """The pristine fabric plus degraded conditions of the same graph.

    Uniform dimming and hotspots keep every lane (same LP structure,
    new capacities); random failures remove lanes (a different graph,
    which every route must also get right).
    """
    healths = [
        None,
        uniform_degradation(n, 0.8),
        uniform_degradation(n, 0.55),
        hotspot(n, center=1, radius=1, severity=0.5),
        random_failures(n, seed=7, failures=2),
    ]
    return [(h, topology if h is None else h.apply(topology)) for h in healths]


@st.composite
def matchings(draw, n: int) -> Matching:
    """A random matching on ``n`` ranks: full permutations (shifted,
    shuffled) and random partial matchings, biased toward the shapes
    with closed forms so both sides of the dispatch get exercised."""
    kind = draw(st.sampled_from(["shift", "perm", "partial", "empty"]))
    if kind == "shift":
        return Matching.shift(n, draw(st.integers(1, n - 1)))
    if kind == "perm":
        perm = draw(st.permutations(range(n)))
        return Matching(
            n, [(i, p) for i, p in enumerate(perm) if i != p]
        )
    if kind == "partial":
        srcs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        dsts = draw(
            st.lists(
                st.integers(0, n - 1),
                unique=True,
                min_size=len(srcs),
                max_size=len(srcs),
            )
        )
        return Matching(
            n, [(s, d) for s, d in zip(srcs, dsts) if s != d]
        )
    return Matching(n, [])


@st.composite
def health_states(draw, n: int) -> FabricHealth:
    """A random fabric condition: dim a few ports, fail a ring lane or
    two, drop a wavelength — anything apply() accepts."""
    dimmed = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.floats(0.3, 1.0, allow_nan=False),
            max_size=3,
        )
    )
    n_failures = draw(st.integers(0, 2))
    failures = [
        (r, (r + 1) % n)
        for r in draw(
            st.lists(
                st.integers(0, n - 1),
                unique=True,
                min_size=n_failures,
                max_size=n_failures,
            )
        )
    ]
    dead = draw(st.integers(0, 1))
    return FabricHealth(
        port_multipliers=tuple(dimmed.items()),
        failed_transceivers=tuple(failures),
        dead_wavelengths=dead,
        total_wavelengths=4,
    )
