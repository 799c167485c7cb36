"""Section VII use case, best-effort side (the Æthereal comparison).

Paper claims regenerated here:

* with the same mapping and paths but best-effort service, application
  composability is lost (traces change when other applications change);
* average latency is lower than with GS for most connections, but the
  latency distribution widens and maxima grow;
* the network needs an operating frequency well above 500 MHz — more
  than 900 MHz in the paper — before the observed latency meets every
  connection's requirement.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.experiments.section7 import be_crossing_mhz, be_sweep_rows
from repro.simulation.backend import BestEffortBackend
from repro.simulation.composability import run_with_channels
from repro.usecase.runner import burst_traffic, run_be, run_gs

SWEEP_MHZ = [500, 700, 900, 1000, 1100]


def test_section7_be_frequency_sweep(section7):
    _, config = section7
    rows = be_sweep_rows(config, frequencies_mhz=SWEEP_MHZ, n_ticks=2500)
    print()
    print(format_table(rows, title="Section VII — best-effort frequency "
                                   "sweep (same paths, no TDM)"))
    crossing = be_crossing_mhz(rows)
    # aelite satisfies everything at 500 MHz; best effort does not...
    assert rows[0]["latency_ok"] < rows[0]["connections"]
    # ...and only catches up far above 500 MHz (paper: > 900 MHz).
    assert crossing is not None and crossing > 900


def test_section7_be_average_lower_max_higher(section7):
    _, config = section7
    gs = run_gs(config, n_slots=2000)
    be = run_be(config, frequency_hz=500e6, n_ticks=2000)
    lower_avg = higher_max = compared = 0
    for name in sorted(config.allocation.channels):
        g = gs.result.stats.service_latencies_ns(name)
        b = be.result.stats.service_latencies_ns(name)
        if not g or not b:
            continue
        compared += 1
        if sum(b) / len(b) < sum(g) / len(g):
            lower_avg += 1
        if max(b) > max(g):
            higher_max += 1
    print(f"\nBE vs GS at 500 MHz over {compared} connections: "
          f"lower average for {lower_avg}, higher maximum for "
          f"{higher_max}")
    # "For most connections, the average latency observed with BE
    # service is lower than with GS."
    assert lower_avg > 0.8 * compared
    # "...but the maximum latencies grow significantly": some
    # connections see a worse maximum than under TDM.
    assert higher_max > 0


def test_section7_be_composability_lost(section7):
    """Stopping other applications changes a BE connection's timing.

    The comparison targets an application that shares links with its
    neighbours (the clustered floorplan keeps sharing rare but the
    allocator's detours create it); aelite keeps traces bit-identical
    on exactly the same scenario (see ``bench_sec7_usecase_gs.py``),
    best effort does not.
    """
    _, config = section7
    traffic = burst_traffic(config)
    # Pick the application with the most channels on links shared with
    # other applications.
    link_apps: dict[tuple[str, str], set[str]] = {}
    for ca in config.allocation.channels.values():
        for key in ca.path.link_keys():
            link_apps.setdefault(key, set()).add(ca.spec.application)
    shared_links = {key for key, apps in link_apps.items()
                    if len(apps) > 1}
    sharing_count: dict[str, int] = {}
    for ca in config.allocation.channels.values():
        if any(key in shared_links for key in ca.path.link_keys()):
            app = ca.spec.application
            sharing_count[app] = sharing_count.get(app, 0) + 1
    target_app = max(sharing_count, key=lambda a: sharing_count[a])
    target_channels = sorted(
        name for name, ca in config.allocation.channels.items()
        if ca.spec.application == target_app)

    # The baseline runs at the configuration's frequency, the paper's.
    assert config.frequency_hz == 500e6

    def be_factory(cfg):
        return BestEffortBackend(cfg, buffer_flits=2)

    def run(active):
        return run_with_channels(config, traffic, active, 2000,
                                 backend_factory=be_factory)

    all_channels = set(traffic)
    full = run(all_channels)
    alone = run(set(target_channels))
    diverged = 0
    for name in target_channels:
        full_trace = [(m, cyc) for m, _slot, cyc in full.trace(name)]
        alone_trace = [(m, cyc) for m, _slot, cyc in alone.trace(name)]
        n = min(len(full_trace), len(alone_trace))
        if full_trace[:n] != alone_trace[:n]:
            diverged += 1
    print(f"\nBE: {diverged}/{len(target_channels)} {target_app} "
          "connections changed timing when the other applications "
          "stopped")
    assert diverged > 0  # composability is lost — unlike aelite
