"""Figure 1 walkthrough: contention-free routing with a 4-slot table.

Recreates the paper's introductory example: two IP cores communicate
over a two-router network; connection cA holds slots {0, 2}, connection
cB holds slot {1}, and the reservation shifts by one slot per hop so no
two flits ever meet on a link.  The script prints the slot tables along
both paths and a slot-by-slot occupancy diagram from an actual
simulation.

Run with:  python examples/contention_free_routing.py
"""

from __future__ import annotations

from repro.core import (MB, Application, ChannelSpec, UseCase, configure,
                        shifted)
from repro.core.timeline import static_lifetimes
from repro.simulation import FlitLevelBackend, Saturating, SimRequest
from repro.simulation.backend import check_lifetime_contention
from repro.topology import Mapping, custom


def main() -> None:
    # The paper's Figure 1 structure: IP_A -> NI_A -> R -> R -> NI_B,
    # with cB entering at the first router from its own NI.
    topology = custom(
        router_edges=[("r_left", "r_right"), ("r_right", "r_left")],
        nis=[("ni_a", "r_left"), ("ni_b", "r_right"),
             ("ni_c", "r_left")])
    channels = (
        ChannelSpec("cA", "ip_a", "ip_b", 100 * MB, application="figure1"),
        ChannelSpec("cB", "ip_c", "ip_b", 50 * MB, application="figure1"),
    )
    use_case = UseCase("figure1", (Application("figure1", channels),))
    mapping = Mapping({"ip_a": "ni_a", "ip_b": "ni_b", "ip_c": "ni_c"})
    config = configure(topology, use_case, table_size=4,
                       frequency_hz=500e6, mapping=mapping)

    print("slot reservations (table of 4 slots, shift of one per hop):\n")
    for name in ("cA", "cB"):
        ca = config.allocation.channel(name)
        print(f"  connection {name}: injection slots "
              f"{sorted(ca.slots)} on path {ca.path!r}")
        for link, shift in zip(ca.path.links, ca.path.link_shifts):
            slots = sorted(shifted(s, shift, 4) for s in ca.slots)
            print(f"    link {link.src:8s} -> {link.dst:8s} "
                  f"slots {slots}")
        print()

    # Check the reservations for contention over the run, then simulate
    # both connections saturated and draw the link occupancy.
    check_lifetime_contention(static_lifetimes(config.allocation, 12), 12,
                              config.table_size)
    backend = FlitLevelBackend(config)
    result = backend.run(SimRequest(n_slots=12, traffic={
        spec.name: Saturating(config.fmt.payload_words_per_flit,
                              config.fmt.flit_size)
        for spec in channels}))

    print("slot-by-slot link occupancy over three table rotations")
    print("(no two flits ever share a link in a slot):\n")
    occupancy: dict[tuple[str, str], dict[int, str]] = {}
    for name in ("cA", "cB"):
        ca = config.allocation.channel(name)
        for record in result.stats.channel(name).injections:
            for link, shift in zip(ca.path.links, ca.path.link_shifts):
                cell = occupancy.setdefault(link.key, {})
                cell[record.slot_index + shift] = name
    links = sorted(occupancy)
    header = "  link                  | " + " | ".join(
        f"s{i:02d}" for i in range(12))
    print(header)
    print("  " + "-" * (len(header) - 2))
    for key in links:
        cells = [occupancy[key].get(i, " . ").center(3)
                 for i in range(12)]
        print(f"  {key[0]:>8s} -> {key[1]:8s} | " + " | ".join(cells))
    print("\nsimulation ran with contention checking enabled: the TDM")
    print("schedule guarantees the exclusivity shown above.")


if __name__ == "__main__":
    main()
