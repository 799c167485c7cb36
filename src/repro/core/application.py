"""Applications and use cases: the units of composability.

An *application* is a set of channels belonging to one piece of software
or hardware IP, developed and verified in isolation.  A *use case* is the
set of applications that run concurrently.  aelite's headline property is
that the temporal behaviour of each application is completely independent
of the others (composability): removing, adding, or misbehaving
applications never changes another application's flit timing.

These classes only group and validate channel specifications; the property
itself is enforced by the TDM allocation (disjoint slots by construction)
and demonstrated by :mod:`repro.simulation.composability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.connection import ChannelSpec
from repro.core.exceptions import ConfigurationError

__all__ = ["Application", "UseCase"]


@dataclass(frozen=True)
class Application:
    """A named set of channels verified as one unit."""

    name: str
    channels: tuple[ChannelSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("application name must be non-empty")
        seen: set[str] = set()
        for ch in self.channels:
            if ch.name in seen:
                raise ConfigurationError(
                    f"application {self.name!r} has duplicate channel "
                    f"{ch.name!r}")
            seen.add(ch.name)
            if ch.application and ch.application != self.name:
                raise ConfigurationError(
                    f"channel {ch.name!r} claims application "
                    f"{ch.application!r} but is listed under {self.name!r}")

    @property
    def total_throughput_bytes_per_s(self) -> float:
        """Aggregate required bandwidth of the application."""
        return sum(ch.throughput_bytes_per_s for ch in self.channels)

    @property
    def ips(self) -> tuple[str, ...]:
        """All IP ports referenced by this application, sorted."""
        names = {ch.src_ip for ch in self.channels}
        names |= {ch.dst_ip for ch in self.channels}
        return tuple(sorted(names))

    def channel(self, name: str) -> ChannelSpec:
        """Look up one channel by name."""
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise ConfigurationError(
            f"application {self.name!r} has no channel {name!r}")


@dataclass(frozen=True)
class UseCase:
    """A set of applications intended to run simultaneously."""

    name: str
    applications: tuple[Application, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("use-case name must be non-empty")
        app_names: set[str] = set()
        channel_names: set[str] = set()
        for app in self.applications:
            if app.name in app_names:
                raise ConfigurationError(
                    f"use case {self.name!r} has duplicate application "
                    f"{app.name!r}")
            app_names.add(app.name)
            for ch in app.channels:
                if ch.name in channel_names:
                    raise ConfigurationError(
                        f"channel name {ch.name!r} appears in more than one "
                        "application")
                channel_names.add(ch.name)

    @property
    def channels(self) -> tuple[ChannelSpec, ...]:
        """All channels across all applications, in application order."""
        out: list[ChannelSpec] = []
        for app in self.applications:
            out.extend(app.channels)
        return tuple(out)

    @property
    def ips(self) -> tuple[str, ...]:
        """All IP ports across all applications, sorted."""
        names: set[str] = set()
        for app in self.applications:
            names.update(app.ips)
        return tuple(sorted(names))

    def application(self, name: str) -> Application:
        """Look up one application by name."""
        for app in self.applications:
            if app.name == name:
                return app
        raise ConfigurationError(
            f"use case {self.name!r} has no application {name!r}")
