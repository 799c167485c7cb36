"""The Section VII 200-connection use case: generator and runners."""

from repro.usecase.generator import (Section7Instance, Section7Parameters,
                                     generate_section7)
from repro.usecase.runner import (SECTION7_TABLE_SIZE, BeOutcome, GsOutcome,
                                  SweepRow, be_frequency_sweep, burst_traffic,
                                  cbr_traffic, configure_section7, run_be,
                                  run_gs)

__all__ = [
    "Section7Parameters", "Section7Instance", "generate_section7",
    "configure_section7", "cbr_traffic", "run_gs", "GsOutcome",
    "run_be", "BeOutcome", "be_frequency_sweep", "SweepRow",
    "burst_traffic", "SECTION7_TABLE_SIZE",
]
