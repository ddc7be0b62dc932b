#!/usr/bin/env python
"""A tour of the photonic fabric models (paper §3.1).

Walks the two fabric designs the paper sketches — a centrally
programmed optical circuit switch and a passive wavelength-routed
fabric with tunable lasers — through the same Swing AllReduce step
sequence.  The cost model reads a design only through its delay model
over circuit configurations: the switch as a constant, per-port or
measured-table delay, the wavelength fabric as one constant laser
tuning time (all lasers retune in parallel).

Run:  python examples/photonic_fabric_tour.py
"""

from repro import MiB, make_collective, us
from repro.fabric import (
    ConstantReconfigurationDelay,
    PerPortReconfigurationDelay,
    TableReconfigurationDelay,
    configuration_from_matching,
    touched_ports,
)
from repro.units import format_time, ns


def drive(model, collective, label: str) -> None:
    """Realize each step's matching in turn, starting from a dark
    fabric, and report what the delay model charges."""
    current = frozenset()
    reconfigurations, total, ports = 0, 0.0, 0
    for step in collective.steps:
        target = configuration_from_matching(step.matching)
        delay = model.delay(current, target)
        if delay > 0:
            reconfigurations += 1
            total += delay
            ports += len(touched_ports(current, target))
        current = target
    print(
        f"  {label:>34}: {reconfigurations:3d} reconfigurations, "
        f"{format_time(total):>8} total, "
        f"{ports:4d} ports touched"
    )


def main() -> None:
    n = 32
    collective = make_collective("allreduce_swing", n, MiB(16))
    print(
        f"driving {collective.name} (n={n}, {collective.num_steps} steps) "
        "through each fabric model:\n"
    )

    print("optical circuit switch (central controller):")
    drive(ConstantReconfigurationDelay(us(10)), collective, "constant 10us")
    drive(
        PerPortReconfigurationDelay(base=us(2), per_port=ns(250)),
        collective,
        "2us + 250ns/port",
    )
    drive(
        TableReconfigurationDelay([(8, us(3)), (32, us(8)), (64, us(20))]),
        collective,
        "measured table",
    )

    print("\npassive wavelength-routed fabric (tunable lasers):")
    drive(ConstantReconfigurationDelay(us(4)), collective, "4us laser tuning")

    print(
        "\nreading: the wavelength fabric pays one parallel tuning per\n"
        "pattern change regardless of port count, while per-port OCS\n"
        "models grow with the reconfiguration's footprint — the paper's\n"
        "'variable reconfiguration delay' agenda item."
    )


if __name__ == "__main__":
    main()
