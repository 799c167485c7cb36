"""Undisrupted reconfiguration: starting/stopping applications live.

The paper builds on the Æthereal reconfiguration flow ([16], "Undisrupted
quality-of-service during reconfiguration of multiple applications in
networks on chip"): because TDM reservations of different applications
are disjoint by construction, an application can be started or stopped
without touching — or even pausing — the others.

:class:`ReconfigurationManager` makes that an explicit, auditable
operation on a live :class:`~repro.core.allocation.Allocation`:

* :meth:`stop_application` releases exactly the application's slots;
* :meth:`start_application` allocates a new application into the free
  slots, never moving existing reservations;
* every transition returns a :class:`TransitionReport` proving that the
  reservations of all running applications are bit-identical before and
  after — the static counterpart of the simulator's trace-equality
  composability check.

A :class:`~repro.core.timeline.TimelineRecorder` fed the same starts and
stops builds the replayable
:class:`~repro.core.timeline.ReconfigurationTimeline`, so the sequence
can afterwards be *executed* by the flit-level simulator and the
trace-equality claim verified dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation, SlotAllocator
from repro.core.application import Application
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.topology.mapping import Mapping

__all__ = ["TransitionReport", "ReconfigurationManager"]


@dataclass(frozen=True)
class TransitionReport:
    """Audit record of one use-case transition.

    ``untouched`` proves isolation: the slot reservations (per link, per
    slot) of every application that kept running are identical before
    and after the transition.
    """

    action: str
    application: str
    channels_changed: tuple[str, ...]
    untouched: bool
    running_before: tuple[str, ...]
    running_after: tuple[str, ...]


def _reservation_snapshot(allocation: Allocation,
                          exclude_app: str) -> dict[str, object]:
    """Reservations of all applications except ``exclude_app``."""
    snapshot: dict[str, object] = {}
    for name, ca in allocation.channels.items():
        if ca.spec.application == exclude_app:
            continue
        snapshot[name] = (ca.path.link_keys(), ca.slots)
    return snapshot


class ReconfigurationManager:
    """Live use-case transitions over one allocation."""

    def __init__(self, allocator: SlotAllocator, mapping: Mapping):
        self.allocator = allocator
        self.mapping = mapping
        self.allocation = Allocation(
            allocator.topology, allocator.table_size,
            allocator.frequency_hz, allocator.fmt)
        self.history: list[TransitionReport] = []

    # -- queries --------------------------------------------------------------

    @property
    def running_applications(self) -> tuple[str, ...]:
        """Applications with at least one allocated channel."""
        return self.allocation.applications()

    def is_running(self, application: str) -> bool:
        """True when the application holds any reservations."""
        return application in self.running_applications

    # -- transitions ------------------------------------------------------------

    def start_application(self, application: Application
                          ) -> TransitionReport:
        """Allocate a new application without disturbing the others."""
        if self.is_running(application.name):
            raise ConfigurationError(
                f"application {application.name!r} is already running")
        before = _reservation_snapshot(self.allocation, application.name)
        running_before = self.running_applications
        try:
            self.allocator.extend(self.allocation,
                                  list(application.channels), self.mapping)
        except AllocationError:
            # A failed admission must leave no trace either.
            for spec in application.channels:
                if spec.name in self.allocation.channels:
                    self.allocation.release(spec.name)
            self.allocation.validate()
            raise
        after = _reservation_snapshot(self.allocation, application.name)
        report = TransitionReport(
            action="start", application=application.name,
            channels_changed=tuple(
                sorted(spec.name for spec in application.channels)),
            untouched=before == after,
            running_before=running_before,
            running_after=self.running_applications)
        self.history.append(report)
        return report

    def stop_application(self, application_name: str
                         ) -> TransitionReport:
        """Release one application's reservations; others keep theirs."""
        if not self.is_running(application_name):
            raise ConfigurationError(
                f"application {application_name!r} is not running")
        before = _reservation_snapshot(self.allocation, application_name)
        running_before = self.running_applications
        released = self.allocation.release_application(application_name)
        self.allocation.validate()
        after = _reservation_snapshot(self.allocation, application_name)
        report = TransitionReport(
            action="stop", application=application_name,
            channels_changed=released,
            untouched=before == after,
            running_before=running_before,
            running_after=self.running_applications)
        self.history.append(report)
        return report

    def switch(self, stop: str, start: Application
               ) -> tuple[TransitionReport, TransitionReport]:
        """A use-case transition: stop one application, start another."""
        return self.stop_application(stop), self.start_application(start)
