"""Saving and restoring complete network configurations.

A validated :class:`~repro.core.configuration.NocConfiguration` is the
artefact a design flow hands to implementation; this module gives it a
stable JSON form so configurations can be versioned, diffed and reloaded
without re-running the allocator.  The round trip is exact: topology
(with port numbers), mapping, channel specifications, paths and slot
reservations all survive bit-identically, and loading re-validates the
contention-free invariant.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Mapping as TMapping

from repro.core.allocation import Allocation
from repro.core.application import Application, UseCase
from repro.core.configuration import NocConfiguration
from repro.core.connection import ChannelSpec
from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive)
from repro.core.path import make_path
from repro.core.placement import ChannelAllocation
from repro.core.words import WordFormat
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping

__all__ = ["configuration_to_dict", "configuration_from_dict",
           "save_configuration", "load_configuration"]

_FORMAT_VERSION = 1


def configuration_to_dict(config: NocConfiguration) -> dict[str, object]:
    """JSON-serialisable form of a complete configuration."""
    return {
        "format_version": _FORMAT_VERSION,
        "table_size": config.table_size,
        "frequency_hz": config.frequency_hz,
        "word_format": asdict(config.fmt),
        "topology": config.topology.to_dict(),
        "mapping": config.mapping.to_dict(),
        "use_case": {
            "name": config.use_case.name,
            "applications": [
                {"name": app.name,
                 "channels": [spec.to_dict() for spec in app.channels]}
                for app in config.use_case.applications],
        },
        "allocation": {
            name: {
                "routers": list(ca.path.routers),
                "slots": list(ca.slots),
            }
            for name, ca in sorted(config.allocation.channels.items())
        },
    }


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer, else refused naming ``what``:
    ``int()`` would read ``2.5``, ``True`` or ``"3"`` as some other
    table size or slot."""
    if type(value) is not int:
        raise ConfigurationError(
            f"saved configuration field {what} must be an integer, got "
            f"{value!r}")
    return value


def configuration_from_dict(data: TMapping[str, object]
                            ) -> NocConfiguration:
    """Rebuild and re-validate a configuration saved with
    :func:`configuration_to_dict`.

    Malformed structure — a missing field, a field of the wrong type —
    is a :class:`ConfigurationError` naming the field, never a builtin
    exception from inside a constructor; well-formed reservations that
    collide or leave the table are an :class:`AllocationError` from
    :meth:`Allocation.commit`.
    """
    where = "the document"
    try:
        version = data.get("format_version")
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported configuration format version {version!r}")
        where = "word_format"
        fmt = WordFormat(**{
            f.name: _integer(data[where][f.name], f"{where}.{f.name}")
            for f in fields(WordFormat)})
        where = "topology"
        topology = Topology.from_dict(data["topology"])
        where = "mapping"
        mapping = Mapping.from_dict(data["mapping"])
        where = "use_case"
        uc_data = data["use_case"]
        applications = tuple(
            Application(str(app["name"]), tuple(
                ChannelSpec.from_dict(ch) for ch in app["channels"]))
            for app in uc_data["applications"])
        use_case = UseCase(str(uc_data["name"]), applications)
        where = "table_size / frequency_hz"
        table_size = _integer(data["table_size"], "table_size")
        frequency_hz = float(data["frequency_hz"])
        require_finite_positive("frequency_hz", frequency_hz)
        allocation = Allocation(topology, table_size, frequency_hz, fmt)
        specs = {spec.name: spec for spec in use_case.channels}
        where = "allocation"
        for name, entry in data["allocation"].items():
            where = f"allocation[{name!r}]"
            spec = specs.get(str(name))
            if spec is None:
                raise ConfigurationError(
                    f"allocation references unknown channel {name!r}")
            slots = entry["slots"]
            if type(slots) is not list or not slots:
                raise ConfigurationError(
                    f"saved configuration field {where}.slots must be a "
                    f"non-empty list, got {slots!r}")
            path = make_path(topology,
                             mapping.ni_of(spec.src_ip),
                             [str(r) for r in entry["routers"]],
                             mapping.ni_of(spec.dst_ip))
            allocation.commit(ChannelAllocation(
                spec=spec, path=path, slots=tuple(sorted(
                    _integer(slot, f"{where}.slots") for slot in slots)),
                table_size=allocation.table_size))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(
            f"malformed saved configuration: {where}: {exc!r}") from exc
    allocation.validate()
    return NocConfiguration(use_case=use_case, mapping=mapping,
                            allocation=allocation)


def save_configuration(config: NocConfiguration, path: str) -> None:
    """Write a configuration to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(configuration_to_dict(config), handle, indent=2,
                  sort_keys=True)


def load_configuration(path: str) -> NocConfiguration:
    """Read a configuration from a JSON file and re-validate it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(
                f"saved configuration {path} is not JSON: {exc}") from exc
    return configuration_from_dict(data)
