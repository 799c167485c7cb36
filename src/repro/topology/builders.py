"""Topology builders: mesh, concentrated mesh, ring, torus, custom.

All builders produce validated :class:`~repro.topology.graph.Topology`
instances with deterministic names and port numbering:

* mesh routers are ``r{x}_{y}`` with ``x`` the column (0-based, west to
  east) and ``y`` the row (0-based, north to south); coordinates are stored
  as node attributes ``x``/``y`` so XY routing can use them;
* NIs of a router are ``ni{x}_{y}_{k}`` with ``k`` counting the NIs of that
  router (a *concentrated* topology in the paper's sense has several NIs
  per router, e.g. the 4x3 mesh with 4 NIs per router of Section VII);
* ring/torus routers reuse the same scheme (a ring is a 1-row torus).

``pipeline_stages`` applies to all router-to-router links; NI-to-router
links are assumed local (same clock region as the router's input stage).
Use :meth:`Topology.set_pipeline_stages` for heterogeneous pipelining.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.exceptions import TopologyError, require_whole
from repro.topology.graph import Topology

__all__ = ["mesh", "concentrated_mesh", "ring", "torus", "custom",
           "router_coords"]


def _router_name(x: int, y: int) -> str:
    return f"r{x}_{y}"


def _ni_name(x: int, y: int, k: int) -> str:
    return f"ni{x}_{y}_{k}"


def router_coords(topo: Topology, router: str) -> tuple[int, int]:
    """Mesh coordinates ``(x, y)`` stored by the builders."""
    attrs = topo.node_attrs(router)
    if "x" not in attrs or "y" not in attrs:
        raise TopologyError(f"router {router!r} carries no mesh coordinates")
    return int(attrs["x"]), int(attrs["y"])  # type: ignore[arg-type]


def mesh(cols: int, rows: int, *, nis_per_router: int = 1,
         pipeline_stages: int = 0, name: str | None = None) -> Topology:
    """Build a ``cols x rows`` 2D mesh.

    >>> topo = mesh(2, 2, nis_per_router=1)
    >>> len(topo.routers), len(topo.nis)
    (4, 4)
    >>> topo.has_link("r0_0", "r1_0") and topo.has_link("r1_0", "r0_0")
    True

    Parameters
    ----------
    cols, rows:
        Mesh extent; the paper's Section VII use case is ``mesh(4, 3,
        nis_per_router=4)``.
    nis_per_router:
        Number of NIs hanging off each router (concentration factor).
    pipeline_stages:
        Mesochronous link pipeline stages inserted on every router-router
        link.
    """
    if cols < 1 or rows < 1:
        raise TopologyError(f"mesh needs positive extent, got {cols}x{rows}")
    if nis_per_router < 0:
        raise TopologyError("nis_per_router must be >= 0")
    cols, rows = require_whole("cols", cols, 1), require_whole("rows", rows, 1)
    topo = Topology(name or f"mesh{cols}x{rows}")
    for y in range(rows):
        for x in range(cols):
            topo.add_router(_router_name(x, y), x=x, y=y)
    for y in range(rows):
        for x in range(cols):
            if x + 1 < cols:
                topo.connect_bidir(_router_name(x, y), _router_name(x + 1, y),
                                   pipeline_stages=pipeline_stages)
            if y + 1 < rows:
                topo.connect_bidir(_router_name(x, y), _router_name(x, y + 1),
                                   pipeline_stages=pipeline_stages)
    _attach_nis(topo, nis_per_router)
    topo.validate()
    return topo


def concentrated_mesh(cols: int, rows: int, *, nis_per_router: int = 4,
                      pipeline_stages: int = 0) -> Topology:
    """A mesh with several NIs per router (the paper's evaluation topology)."""
    return mesh(cols, rows, nis_per_router=nis_per_router,
                pipeline_stages=pipeline_stages,
                name=f"cmesh{cols}x{rows}x{nis_per_router}")


def ring(n: int, *, nis_per_router: int = 1,
         pipeline_stages: int = 0) -> Topology:
    """A bidirectional ring of ``n`` routers."""
    if n < 3:
        raise TopologyError(f"ring needs >= 3 routers, got {n}")
    n = require_whole("ring size", n, 3)
    topo = Topology(f"ring{n}")
    for i in range(n):
        topo.add_router(_router_name(i, 0), x=i, y=0)
    for i in range(n):
        topo.connect_bidir(_router_name(i, 0), _router_name((i + 1) % n, 0),
                           pipeline_stages=pipeline_stages)
    _attach_nis(topo, nis_per_router)
    topo.validate()
    return topo


def torus(cols: int, rows: int, *, nis_per_router: int = 1,
          pipeline_stages: int = 0) -> Topology:
    """A 2D torus (mesh with wrap-around links)."""
    if cols < 3 or rows < 3:
        raise TopologyError(
            f"torus needs extent >= 3 in both dimensions, got {cols}x{rows}")
    cols, rows = require_whole("cols", cols, 3), require_whole("rows", rows, 3)
    topo = Topology(f"torus{cols}x{rows}")
    for y in range(rows):
        for x in range(cols):
            topo.add_router(_router_name(x, y), x=x, y=y)
    for y in range(rows):
        for x in range(cols):
            topo.connect_bidir(_router_name(x, y),
                               _router_name((x + 1) % cols, y),
                               pipeline_stages=pipeline_stages)
    for x in range(cols):
        for y in range(rows):
            topo.connect_bidir(_router_name(x, y),
                               _router_name(x, (y + 1) % rows),
                               pipeline_stages=pipeline_stages)
    _attach_nis(topo, nis_per_router)
    topo.validate()
    return topo


def custom(router_edges: Iterable[tuple[str, str]],
           nis: Sequence[tuple[str, str]]) -> Topology:
    """Build an arbitrary topology.

    Parameters
    ----------
    router_edges:
        Directed router-to-router edges; add both directions for
        bidirectional cables.
    nis:
        Pairs ``(ni_name, router_name)``; each NI is connected both ways to
        its router.
    """
    topo = Topology("custom")
    routers: list[str] = []
    edges = list(router_edges)
    for a, b in edges:
        for r in (a, b):
            if r not in routers:
                routers.append(r)
    ni_routers = [r for _, r in nis if r not in routers]
    for r in routers + ni_routers:
        topo.add_router(r)
    for a, b in edges:
        topo.connect(a, b)
    for ni_name, router in nis:
        topo.add_ni(ni_name)
        topo.connect(ni_name, router)
        topo.connect(router, ni_name)
    topo.validate()
    return topo


def _attach_nis(topo: Topology, nis_per_router: int) -> None:
    """Attach ``nis_per_router`` NIs to every router of ``topo``."""
    nis_per_router = require_whole("nis_per_router", nis_per_router, 0)
    for router in topo.routers:
        attrs = topo.node_attrs(router)
        x = int(attrs.get("x", 0))  # type: ignore[arg-type]
        y = int(attrs.get("y", 0))  # type: ignore[arg-type]
        for k in range(nis_per_router):
            ni = _ni_name(x, y, k)
            topo.add_ni(ni, x=x, y=y, index=k)
            topo.connect(ni, router)
            topo.connect(router, ni)
