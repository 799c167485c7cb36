"""Shared fixtures: small topologies, use cases and configurations."""

from __future__ import annotations

import pytest

from repro.core.application import Application, UseCase
from repro.core.configuration import NocConfiguration, configure
from repro.core.connection import MB, ChannelSpec
from repro.core.words import WordFormat
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping


@pytest.fixture
def fmt() -> WordFormat:
    """The paper's default format: 32-bit words, 3-word flits."""
    return WordFormat()


@pytest.fixture
def tiny_config() -> NocConfiguration:
    """One router, two NIs, one channel each way, 8-slot table."""
    topo = mesh(1, 1, nis_per_router=2)
    channels = (
        ChannelSpec("a2b", "ipA", "ipB", 100 * MB, application="app"),
        ChannelSpec("b2a", "ipB", "ipA", 100 * MB, application="app"),
    )
    use_case = UseCase("tiny", (Application("app", channels),))
    mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni0_0_1"})
    return configure(topo, use_case, table_size=8, frequency_hz=500e6,
                     mapping=mapping)


@pytest.fixture
def mesh_config() -> NocConfiguration:
    """2x2 mesh with pipeline stages and three channels across it."""
    topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
    channels = (
        ChannelSpec("c0", "ipA", "ipB", 80 * MB, max_latency_ns=200.0,
                    application="appX"),
        ChannelSpec("c1", "ipB", "ipC", 80 * MB, max_latency_ns=200.0,
                    application="appX"),
        ChannelSpec("c2", "ipC", "ipA", 80 * MB, application="appY"),
    )
    use_case = UseCase("mesh", (
        Application("appX", channels[:2]),
        Application("appY", channels[2:]),
    ))
    mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0",
                       "ipC": "ni1_1_0"})
    return configure(topo, use_case, table_size=8, frequency_hz=500e6,
                     mapping=mapping)
