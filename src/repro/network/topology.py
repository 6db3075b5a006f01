"""Interconnect topologies.

Two families are modelled:

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

Both expose the same interface: integer nodes, a neighbor map with link
classes, BFS distance tables, and minimal next-hop sets, so one
router/fabric implementation serves every machine.  (The GS320 switch
hierarchy is modelled by :class:`repro.network.fabric.SwitchFabric`.)

Like the 21364's routing tables, which are set up once per machine
configuration, the distance and next-hop tables are a pure function of
the adjacency: :func:`_route_tables` computes them once per distinct
adjacency and every topology with that adjacency shares the same
immutable tuples.
"""

from __future__ import annotations

import functools
from collections import deque
from itertools import compress
from operator import eq

from repro.config import LinkClass, TorusShape
from repro.network import geometry

__all__ = [
    "Topology",
    "TorusTopology",
    "ShuffleTopology",
    "build_gs1280_topology",
]


#: Routing-relevant adjacency: per node, its (neighbor, is_shuffle)
#: pairs in adjacency order.  Link classes set wire delays, not routes,
#: so they are not part of it.
Adjacency = tuple[tuple[tuple[int, bool], ...], ...]
DistTable = tuple[tuple[int, ...], ...]
HopTable = tuple[tuple[tuple[int, ...], ...], ...]


def _bfs(adj: Adjacency, src: int, use_shuffle: bool) -> tuple[int, ...]:
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        du = dist[u] + 1
        for v, shuffle in adj[u]:
            if shuffle and not use_shuffle:
                continue
            if dist[v] < 0:
                dist[v] = du
                frontier.append(v)
    if -1 in dist:
        raise ValueError("topology is disconnected")
    return tuple(dist)


def _hop_row(
    nbs: tuple[int, ...], dist: DistTable, src: int
) -> tuple[tuple[int, ...], ...]:
    """Per destination, the neighbors ``nbs`` of ``src`` that are one hop
    closer to it under ``dist`` (in adjacency order; ``()`` for ``src``
    itself, whose target distance -1 no neighbor has)."""
    if not nbs:  # a single-node machine
        return ((),) * len(dist)
    targets = [d - 1 for d in dist[src]]
    on_path = [list(map(eq, dist[nb], targets)) for nb in nbs]
    return tuple([tuple(compress(nbs, flags)) for flags in zip(*on_path)])


@functools.lru_cache(maxsize=16)
def _route_tables(
    adj: Adjacency,
) -> tuple[DistTable, DistTable, HopTable, HopTable]:
    """Distance and minimal next-hop tables of one adjacency:
    ``(dist, dist_base, next, next_base)``, indexed ``[src][dst]``.

    Two variants mirror the two phases of shuffle routing: the
    shuffle-eligible tables (all links) and the base-restricted tables
    (non-shuffle links only).  Every ``next[src][dst]`` with
    ``dst != src`` is non-empty: the adjacency is connected (``_bfs``
    raises otherwise) and links come in pairs, so the node before
    ``src`` on a shortest path back from ``dst`` is a neighbor one hop
    closer.  Lookups therefore never fall back from the shuffle table
    to the base one.  Without shuffle links both variants are the same
    objects.  Raises :class:`ValueError` (not cached) if the adjacency,
    or its base-link part, is disconnected.
    """
    n = len(adj)
    dist = tuple(_bfs(adj, src, True) for src in range(n))
    nxt = tuple(
        _hop_row(tuple(nb for nb, _sh in adj[src]), dist, src)
        for src in range(n)
    )
    if not any(sh for nbrs in adj for _nb, sh in nbrs):
        return dist, dist, nxt, nxt
    dist_base = tuple(_bfs(adj, src, False) for src in range(n))
    nxt_base = tuple(
        _hop_row(tuple(nb for nb, sh in adj[src] if not sh), dist_base, src)
        for src in range(n)
    )
    return dist, dist_base, nxt, nxt_base


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
        # Shared with every topology of the same adjacency (see
        # _route_tables); tuples, so no holder can edit another's routes.
        self._dist: DistTable = ()
        self._dist_base: DistTable = ()
        self._next: HopTable = ()
        self._next_base: HopTable = ()
        #: Bumped on every routing-table rebuild (construction,
        #: :meth:`fail_link`, :meth:`repair_link`); routers key their
        #: per-destination link caches on it so a failed link
        #: invalidates them all at once.
        self.routes_version: int = 0
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
        """Point this topology at the (shared) tables of its adjacency."""
        adj = self._adj
        key = tuple(
            tuple((nb, sh) for nb, _cls, sh in adj[n])
            for n in range(self.n_nodes)
        )
        self._dist, self._dist_base, self._next, self._next_base = (
            _route_tables(key)
        )
        self.routes_version += 1

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
        return list(self.next_hops(src, dst, shuffle_ok))

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
        (what :meth:`next_hops` precomputes); the tests and the perf
        harness's smoke check compare the tables against it."""
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
            # (_route_tables raises, and caches nothing), so restoring
            # the adjacency lists restores the exact pre-call state.
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
        original position, the adjacency is the pre-failure one again and
        so are the route tables (the very same shared objects).  Raises
        :class:`ValueError` if no such failed link is on record."""
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


def build_gs1280_topology(shape: TorusShape, shuffle: bool = False) -> Topology:
    """Factory: standard torus or shuffle variant for a GS1280 shape."""
    if shuffle:
        return ShuffleTopology(shape)
    return TorusTopology(shape)

