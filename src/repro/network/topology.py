"""Interconnect topologies.

Three families are modelled:

* :class:`TorusTopology` -- the standard GS1280 2-D torus (Figure 3),
  with physical link classes (module / backplane / cable) that carry
  different wire delays, reproducing the latency spread of Figure 13.
* :class:`ShuffleTopology` -- the paper's "shuffle" re-cabling
  (Section 4.1, Figures 16/17): on two-row machines the redundant
  North-South links are re-pointed at the furthest node; on taller
  machines the long-dimension wraparounds are twisted by half the
  orthogonal extent.  Both constructions reproduce the corresponding
  Table 1 rows exactly (4x2 and 4x4); see EXPERIMENTS.md for the larger
  idealized shapes.
* :class:`SwitchTopology` -- the GS320 hierarchy (CPU - QBB switch -
  global switch) flattened to CPU endpoints with per-hop switch classes.

All topologies expose the same interface: integer nodes, a neighbor
map with link classes, BFS distance tables, and minimal next-hop sets,
so one router/fabric implementation serves every machine.
"""

from __future__ import annotations

from collections import deque

from repro.config import LinkClass, TorusShape
from repro.network import geometry

__all__ = [
    "Topology",
    "TorusTopology",
    "ShuffleTopology",
    "SwitchTopology",
    "build_gs1280_topology",
]


class Topology:
    """An undirected multigraph of nodes with classed links.

    Subclasses populate ``self._adj`` (node -> list of (neighbor,
    link_class, shuffle_flag) tuples) in their constructor and then call
    :meth:`_finalize` to build routing tables.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("topology needs at least one node")
        self.n_nodes = n_nodes
        self._adj: dict[int, list[tuple[int, str, bool]]] = {
            n: [] for n in range(n_nodes)
        }
        self._dist: list[list[int]] = []
        self._dist_base: list[list[int]] = []
        self._next: list[list[tuple[int, ...]]] = []
        self._next_base: list[list[tuple[int, ...]]] = []
        #: Bumped on every routing-table rebuild (construction and
        #: :meth:`fail_link`); routers key their per-destination link
        #: caches on it so a failed link invalidates them all at once.
        self.routes_version: int = 0
        #: When False, :meth:`minimal_next_hops` re-derives hop sets from
        #: the BFS distance tables per call (the reference path, used by
        #: the property tests and the perf harness's "before" side).
        self.route_cache_enabled: bool = True
        #: Links removed by :meth:`fail_link`, as (a, b, class, shuffle,
        #: idx_in_adj[a], idx_in_adj[b]) in failure order;
        #: :meth:`repair_link` restores from here.  The adjacency indices
        #: let repair reinsert the link at its original position, so a
        #: fail/repair round trip reproduces the original route tables
        #: exactly (next-hop tuples preserve adjacency order).
        self._failed: list[tuple[int, int, str, bool, int, int]] = []

    # -- construction ---------------------------------------------------
    def _add_link(self, a: int, b: int, link_class: str, shuffle: bool = False):
        """Add an undirected link; parallel links are collapsed."""
        if a == b:
            raise ValueError(f"self-link at node {a}")
        if any(n == b for n, _, _ in self._adj[a]):
            return  # collapse parallel physical links (no extra graph edge)
        self._adj[a].append((b, link_class, shuffle))
        self._adj[b].append((a, link_class, shuffle))

    def _finalize(self) -> None:
        self._dist = [self._bfs(src, use_shuffle=True) for src in range(self.n_nodes)]
        if self.has_shuffle_links():
            self._dist_base = [
                self._bfs(src, use_shuffle=False) for src in range(self.n_nodes)
            ]
        else:
            self._dist_base = self._dist
        self._build_route_tables()

    def _build_route_tables(self) -> None:
        """Precompute per-(src, dst) minimal next-hop tuples.

        Two variants mirror the two phases of shuffle routing: the
        shuffle-eligible table (all links, shuffle distances) and the
        base-restricted table (non-shuffle links, base distances).  The
        shuffle table bakes in the fall-through to the base hops for the
        (theoretical) case where no all-links neighbor reduces the
        shuffle distance, so lookups never need a second probe.
        """
        n = self.n_nodes
        dist, dist_base = self._dist, self._dist_base
        nxt: list[list[tuple[int, ...]]] = []
        nxt_base: list[list[tuple[int, ...]]] = []
        for src in range(n):
            adj_src = self._adj[src]
            d_src, db_src = dist[src], dist_base[src]
            row: list[tuple[int, ...]] = []
            row_base: list[tuple[int, ...]] = []
            for dst in range(n):
                if src == dst:
                    row.append(())
                    row_base.append(())
                    continue
                target = d_src[dst] - 1
                hops = tuple(
                    nb for nb, _cls, _sh in adj_src if dist[nb][dst] == target
                )
                target_base = db_src[dst] - 1
                hops_base = tuple(
                    nb
                    for nb, _cls, sh in adj_src
                    if not sh and dist_base[nb][dst] == target_base
                )
                row.append(hops or hops_base)
                row_base.append(hops_base)
            nxt.append(row)
            nxt_base.append(row_base)
        self._next = nxt
        self._next_base = nxt_base
        self.routes_version += 1

    def _bfs(self, src: int, use_shuffle: bool) -> list[int]:
        dist = [-1] * self.n_nodes
        dist[src] = 0
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v, _cls, shuffle in self._adj[u]:
                if shuffle and not use_shuffle:
                    continue
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        if any(d < 0 for d in dist):
            raise ValueError("topology is disconnected")
        return dist

    # -- queries ---------------------------------------------------------
    def neighbors(self, node: int) -> list[tuple[int, str, bool]]:
        """(neighbor, link_class, is_shuffle_link) triples of ``node``."""
        return self._adj[node]

    def link_class(self, a: int, b: int) -> str:
        for n, cls, _ in self._adj[a]:
            if n == b:
                return cls
        raise KeyError(f"no link {a}->{b}")

    def distance(self, a: int, b: int) -> int:
        """Minimal hop count (shuffle links allowed)."""
        return self._dist[a][b]

    def base_distance(self, a: int, b: int) -> int:
        """Minimal hop count using only non-shuffle links."""
        return self._dist_base[a][b]

    def minimal_next_hops(
        self, src: int, dst: int, max_shuffle_hops: int | None = None,
        hops_taken: int = 0,
    ) -> list[int]:
        """Neighbors of ``src`` on a minimal path to ``dst``.

        ``max_shuffle_hops`` implements the paper's shuffle routing
        policies (Fig 18): shuffle links are eligible only while
        ``hops_taken < max_shuffle_hops``; afterwards routing continues
        minimally over the base (torus) links.  ``None`` means shuffle
        links are always eligible.
        """
        if src == dst:
            return []
        shuffle_ok = max_shuffle_hops is None or hops_taken < max_shuffle_hops
        if self.route_cache_enabled:
            return list(self.next_hops(src, dst, shuffle_ok))
        return self._minimal_next_hops_uncached(src, dst, shuffle_ok)

    def next_hops(self, src: int, dst: int, shuffle_ok: bool = True) -> tuple[int, ...]:
        """Precomputed minimal next-hop tuple for ``src`` -> ``dst``.

        The per-packet fast path: one table lookup, no allocation.  The
        returned tuple is shared -- callers must not mutate-by-rebuild.
        """
        if shuffle_ok:
            return self._next[src][dst]
        return self._next_base[src][dst]

    def _minimal_next_hops_uncached(
        self, src: int, dst: int, shuffle_ok: bool
    ) -> list[int]:
        """Reference derivation straight from the BFS distance tables
        (what :meth:`next_hops` precomputes)."""
        if shuffle_ok:
            target = self._dist[src][dst] - 1
            hops = [
                n
                for n, _cls, _sh in self._adj[src]
                if self._dist[n][dst] == target
            ]
            if hops:
                return hops
        # Restricted phase: minimal over base links only.
        target = self._dist_base[src][dst] - 1
        return [
            n
            for n, _cls, sh in self._adj[src]
            if not sh and self._dist_base[n][dst] == target
        ]

    def has_shuffle_links(self) -> bool:
        return any(sh for adj in self._adj.values() for _, _, sh in adj)

    def fail_link(self, a: int, b: int) -> None:
        """Remove a physical link (cable pull / failure) and rebuild the
        routing tables.  Raises :class:`ValueError` if the nodes are not
        adjacent or if losing the link would disconnect the network (the
        topology is left untouched in both cases).  The adaptive router
        then routes around the failure with no further configuration --
        the resilience property the 21364's table-driven routing
        provides.  Rebuilding bumps :attr:`routes_version`, which
        explicitly invalidates every router-side next-hop cache.
        """
        if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
            raise ValueError(
                f"cannot fail link {a}<->{b}: node ids must be in "
                f"[0, {self.n_nodes})"
            )
        idx_a = next(
            (i for i, t in enumerate(self._adj[a]) if t[0] == b), None
        )
        if idx_a is None:
            raise ValueError(
                f"cannot fail link {a}<->{b}: the nodes are not "
                f"connected by a physical link"
            )
        idx_b = next(i for i, t in enumerate(self._adj[b]) if t[0] == a)
        removed = self._adj[a][idx_a]
        removed_rev = self._adj[b][idx_b]
        del self._adj[a][idx_a]
        del self._adj[b][idx_b]
        try:
            self._finalize()
        except ValueError:
            # Disconnection is detected before any table is replaced
            # (the BFS raises mid-comprehension), so restoring the
            # adjacency lists restores the exact pre-call state.
            self._adj[a].insert(idx_a, removed)
            self._adj[b].insert(idx_b, removed_rev)
            raise ValueError(
                f"cannot fail link {a}<->{b}: removing it would "
                f"disconnect the network"
            ) from None
        self._failed.append((a, b, removed[1], removed[2], idx_a, idx_b))

    def repair_link(self, a: int, b: int) -> None:
        """Restore a link previously removed by :meth:`fail_link` (with
        its original class, shuffle flag, and adjacency position) and
        rebuild the routing tables.  Because the link returns to its
        original position, the rebuilt route tables match the pre-failure
        tables exactly.  Raises :class:`ValueError` if no such failed
        link is on record."""
        for index, (fa, fb, cls, shuffle, idx_a, idx_b) in enumerate(self._failed):
            if (fa, fb) in ((a, b), (b, a)):
                del self._failed[index]
                self._adj[fa].insert(idx_a, (fb, cls, shuffle))
                self._adj[fb].insert(idx_b, (fa, cls, shuffle))
                self._finalize()
                return
        raise ValueError(f"cannot repair link {a}<->{b}: it is not failed")

    def failed_links(self) -> list[tuple[int, int]]:
        """The (a, b) pairs currently failed, in failure order."""
        return [(a, b) for a, b, *_rest in self._failed]

    def edges(self) -> list[tuple[int, int, str, bool]]:
        """Each undirected edge once, as (a, b, class, shuffle) with a < b."""
        out = []
        for a, adj in self._adj.items():
            for b, cls, sh in adj:
                if a < b:
                    out.append((a, b, cls, sh))
        return out

    # -- graph metrics (used by the Table 1 analytic model) --------------
    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs (self pairs included,
        matching the paper's analytical-model convention)."""
        total = sum(sum(row) for row in self._dist)
        return total / (self.n_nodes**2)

    def worst_distance(self) -> int:
        return max(max(row) for row in self._dist)

    def bisection_width(self, shape: TorusShape) -> int:
        """Links crossing the best axis-aligned bisection of the grid."""
        best: int | None = None
        for axis, size in ((0, shape.cols), (1, shape.rows)):
            if size % 2 or size < 2:
                continue
            half = {
                n
                for n in range(self.n_nodes)
                if geometry.coords_of(shape, n)[axis] < size // 2
            }
            cut = sum(
                1 for a, b, _cls, _sh in self.edges() if (a in half) != (b in half)
            )
            best = cut if best is None else min(best, cut)
        if best is None:
            raise ValueError(f"shape {shape} has no even dimension to bisect")
        return best


class TorusTopology(Topology):
    """Standard GS1280 2-D torus with physical link classes.

    Link classes follow the machine packaging (calibrated against
    Figure 13): the two CPUs of a dual-processor module are vertical
    neighbors in even/odd row pairs (MODULE links), other in-drawer hops
    ride the BACKPLANE, and wraparounds are inter-drawer CABLEs.  On
    two-row machines the vertical "wraparound" is the redundant second
    link of the module pair and is collapsed.
    """

    def __init__(self, shape: TorusShape) -> None:
        super().__init__(shape.n_nodes)
        self.shape = shape
        cols, rows = shape.cols, shape.rows
        for row in range(rows):
            for col in range(cols):
                node = geometry.node_at(shape, col, row)
                if cols > 1:
                    east = geometry.node_at(shape, col + 1, row)
                    cls = (
                        LinkClass.CABLE if col == cols - 1 and cols > 2
                        else LinkClass.BACKPLANE
                    )
                    self._add_link(node, east, cls)
                if rows > 1:
                    south = geometry.node_at(shape, col, row + 1)
                    if row == rows - 1 and rows > 2:
                        cls = LinkClass.CABLE
                    elif row % 2 == 0:
                        cls = LinkClass.MODULE
                    else:
                        cls = LinkClass.BACKPLANE
                    self._add_link(node, south, cls)
        self._finalize()


class ShuffleTopology(Topology):
    """The paper's shuffle re-cabling of a torus (Section 4.1).

    Two-row machines (the configuration actually built and measured,
    Figures 16-18): keep the horizontal rings and one North-South link
    per module pair, and re-point the redundant second North-South link
    of column ``c`` at the furthest node ``(c + cols/2, other row)``.

    Taller machines (Table 1's analytical extrapolation): twist the
    horizontal wraparound of row ``r`` to land on row ``r + rows/2``,
    shortening paths that would otherwise cross both dimensions.
    """

    def __init__(self, shape: TorusShape) -> None:
        super().__init__(shape.n_nodes)
        self.shape = shape
        cols, rows = shape.cols, shape.rows
        if rows == 2:
            if cols % 2:
                raise ValueError("two-row shuffle needs an even column count")
            for col in range(cols):
                a = geometry.node_at(shape, col, 0)
                b = geometry.node_at(shape, col, 1)
                self._add_link(a, b, LinkClass.MODULE)
                far = geometry.node_at(shape, col + cols // 2, 1)
                self._add_link(a, far, LinkClass.CABLE, shuffle=True)
                for row in (0, 1):
                    node = geometry.node_at(shape, col, row)
                    east = geometry.node_at(shape, col + 1, row)
                    cls = (
                        LinkClass.CABLE if col == cols - 1 and cols > 2
                        else LinkClass.BACKPLANE
                    )
                    self._add_link(node, east, cls)
        else:
            if rows % 2:
                raise ValueError("twisted shuffle needs an even row count")
            for row in range(rows):
                for col in range(cols - 1):
                    self._add_link(
                        geometry.node_at(shape, col, row),
                        geometry.node_at(shape, col + 1, row),
                        LinkClass.BACKPLANE,
                    )
                self._add_link(
                    geometry.node_at(shape, cols - 1, row),
                    geometry.node_at(shape, 0, row + rows // 2),
                    LinkClass.CABLE,
                    shuffle=True,
                )
            for col in range(cols):
                for row in range(rows):
                    node = geometry.node_at(shape, col, row)
                    south = geometry.node_at(shape, col, row + 1)
                    if row == rows - 1:
                        cls = LinkClass.CABLE
                    elif row % 2 == 0:
                        cls = LinkClass.MODULE
                    else:
                        cls = LinkClass.BACKPLANE
                    self._add_link(node, south, cls)
        self._finalize()


class SwitchTopology(Topology):
    """The GS320 hierarchy (CPU - QBB switch - global switch) as a graph.

    Nodes ``0 .. n_cpus-1`` are CPU endpoints; each group of
    ``cpus_per_group`` CPUs hangs off one QBB-switch node, and the QBB
    switches meet at a single global-switch node (all SWITCH-class
    links).  The event-driven GS320 model uses :class:`SwitchFabric`
    (shared contended links) instead, but this graph view gives the
    switch machines the same routing-table interface as the tori --
    which is what the route-cache property tests and the analytic
    distance metrics consume.
    """

    def __init__(self, n_cpus: int, cpus_per_group: int = 4) -> None:
        if n_cpus < 1:
            raise ValueError("switch topology needs at least one CPU")
        if cpus_per_group < 1:
            raise ValueError("cpus_per_group must be >= 1")
        self.n_cpus = n_cpus
        self.cpus_per_group = cpus_per_group
        n_groups = (n_cpus + cpus_per_group - 1) // cpus_per_group
        self.n_groups = n_groups
        # CPUs, then one switch per group, then the global switch.
        super().__init__(n_cpus + n_groups + 1)
        global_switch = n_cpus + n_groups
        for cpu in range(n_cpus):
            self._add_link(cpu, n_cpus + cpu // cpus_per_group, LinkClass.SWITCH)
        for g in range(n_groups):
            self._add_link(n_cpus + g, global_switch, LinkClass.SWITCH)
        self._finalize()

    def switch_of(self, cpu: int) -> int:
        """Graph node id of ``cpu``'s QBB switch."""
        return self.n_cpus + cpu // self.cpus_per_group


def build_gs1280_topology(shape: TorusShape, shuffle: bool = False) -> Topology:
    """Factory: standard torus or shuffle variant for a GS1280 shape."""
    if shuffle:
        return ShuffleTopology(shape)
    return TorusTopology(shape)

