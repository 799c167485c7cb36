"""Asynchronous wrappers: stallable routers/NIs with token synchronisation."""

from repro.wrapper.asynchronous import (AsyncWrapper, DeadlockWatchdog,
                                        connect_wrappers)
from repro.wrapper.controller import PortInterfaceController
from repro.wrapper.port_interface import (InputPortInterface,
                                          OutputPortInterface, TokenChannel)

__all__ = ["AsyncWrapper", "connect_wrappers", "DeadlockWatchdog",
           "PortInterfaceController",
           "InputPortInterface", "OutputPortInterface", "TokenChannel"]
