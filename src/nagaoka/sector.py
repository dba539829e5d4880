"""Hole-spin configuration space of the one-hole sector.

A configuration places the single hole on one site and an up/down spin on
every other site.  It is encoded as ``(hole, up_mask)`` machine words: bit z
of ``up_mask`` is set iff site z carries an up spin, the hole's bit is
forced to 0, and the down spins are implicit.  The encoding gives O(1) move
application and hashing at desk scale.

The magnetization sector S3 = M collects the configurations with
n_up - n_down = 2M.  Hole moves along nonzero hopping bonds turn each
sector into an undirected graph; its connectivity is the combinatorial
heart of the one-hole ferromagnetism results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from weakref import WeakKeyDictionary

from .errors import guard_dimension
from .model import LatticeModel


@dataclass(frozen=True)
class HoleSpinConfig:
    hole: int
    up_mask: int

    def n_up(self) -> int:
        return self.up_mask.bit_count()

    def occupied(self, site: int) -> bool:
        return site != self.hole


def as_half_integer(m) -> Fraction:
    """Normalize a magnetization to an exact half-integer Fraction."""
    frac = Fraction(m).limit_denominator(2)
    if frac != Fraction(m):
        raise ValueError(f"magnetization {m} is not a half-integer")
    return frac


def sector_magnetizations(sites: int) -> list[Fraction]:
    """All valid M values, ascending: -(sites-1)/2 ... (sites-1)/2 in steps of 1."""
    n = sites - 1
    return [Fraction(2 * k - n, 2) for k in range(n + 1)]


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Canonically ordered basis of a magnetization sector.

    Ordering is lexicographic in (hole, up_mask); ``index`` inverts it.
    """

    sites: int
    m: Fraction
    configs: tuple[HoleSpinConfig, ...]
    index: dict[HoleSpinConfig, int]

    @property
    def dimension(self) -> int:
        return len(self.configs)

    @property
    def n_up(self) -> int:
        return (self.sites - 1 + int(2 * self.m)) // 2


def enumerate_sector(model: LatticeModel, m) -> SectorBasis:
    """Complete, duplicate-free, canonically ordered basis of sector M."""
    frac = as_half_integer(m)
    sites = model.sites
    twice = int(2 * frac)
    n_up2 = sites - 1 + twice
    if n_up2 % 2 or not 0 <= n_up2 // 2 <= sites - 1:
        raise ValueError(
            f"M = {frac} out of range for {sites} sites; valid sectors are "
            f"{', '.join(str(v) for v in sector_magnetizations(sites))}")
    n_up = n_up2 // 2
    dim = sites * comb(sites - 1, n_up)
    guard_dimension(dim, f"sector M = {frac} of {sites} sites")

    configs = []
    for hole in range(sites):
        others = [z for z in range(sites) if z != hole]
        for ups in combinations(others, n_up):
            mask = 0
            for z in ups:
                mask |= 1 << z
            configs.append(HoleSpinConfig(hole, mask))
    configs.sort(key=lambda c: (c.hole, c.up_mask))
    assert len(configs) == dim
    return SectorBasis(sites=sites, m=frac, configs=tuple(configs),
                       index={c: i for i, c in enumerate(configs)})


def apply_move(config: HoleSpinConfig, frm: int, to: int) -> HoleSpinConfig | None:
    """Hop the hole from ``frm`` to ``to``; the spin at ``to`` backfills ``frm``.

    Returns None when the move is undefined, i.e. the hole is not at ``frm``.
    The move is an involution on its domain: hopping back restores the input.
    """
    if frm == to:
        raise ValueError("hole move needs two distinct sites")
    if config.hole != frm:
        return None
    mask = config.up_mask
    if mask >> to & 1:                      # an up spin moves to the old hole site
        mask = (mask ^ (1 << to)) | (1 << frm)
    return HoleSpinConfig(to, mask)


@dataclass(frozen=True, eq=False)
class SectorGraph:
    """Configuration graph of one sector: nodes are canonical basis indices,
    edges are hole hops along nonzero hopping bonds, labeled by target site."""

    basis: SectorBasis
    neighbors: tuple[tuple[tuple[int, int], ...], ...]   # per node: (node', to_site)


_GRAPH_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def configuration_graph(model: LatticeModel, m) -> SectorGraph:
    """Build (or fetch the cached) configuration graph of sector M."""
    frac = as_half_integer(m)
    per_model = _GRAPH_CACHE.setdefault(model, {})
    if frac in per_model:
        return per_model[frac]
    basis = enumerate_sector(model, frac)
    t = model.hopping
    bonds = [[y for y in range(model.sites) if y != x and t[x, y] != 0.0]
             for x in range(model.sites)]
    neighbors = []
    for config in basis.configs:
        out = []
        for y in bonds[config.hole]:
            moved = apply_move(config, config.hole, y)
            out.append((basis.index[moved], y))
        neighbors.append(tuple(out))
    graph = SectorGraph(basis=basis, neighbors=tuple(neighbors))
    per_model[frac] = graph
    return graph


@dataclass(frozen=True)
class ConnectivityReport:
    m: Fraction
    dimension: int
    connected: bool
    orbits: tuple[tuple[int, ...], ...]   # canonical indices, grouped by orbit

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def connectivity_check(model: LatticeModel, m) -> ConnectivityReport:
    """BFS orbit decomposition of the sector's configuration graph.

    The sector is connected iff there is a single orbit.  Every edge has a
    reverse edge (moves are involutions), so orbits are plain components.
    """
    graph = configuration_graph(model, m)
    n = graph.basis.dimension
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            orbit.append(node)
            for nxt, _ in graph.neighbors[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])
    return ConnectivityReport(m=graph.basis.m, dimension=n,
                              connected=len(orbits) == 1, orbits=tuple(orbits))


@dataclass(frozen=True)
class Connector:
    """A hole path x_1, ..., x_l whose composed moves map one configuration
    to another; its length is the hop count l - 1."""

    path: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.path) - 1

    def apply(self, config: HoleSpinConfig) -> HoleSpinConfig | None:
        out = config
        for frm, to in zip(self.path, self.path[1:]):
            out = apply_move(out, frm, to)
            if out is None:
                return None
        return out


def find_connector(model: LatticeModel, m, a: HoleSpinConfig,
                   b: HoleSpinConfig) -> Connector | None:
    """Shortest connector from a to b, or None when they sit in different
    orbits.  Comes straight off the BFS tree of the configuration graph."""
    graph = configuration_graph(model, m)
    basis = graph.basis
    src, dst = basis.index[a], basis.index[b]
    if src == dst:
        return Connector(path=(a.hole,))
    prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt, to_site in graph.neighbors[node]:
            if nxt in prev:
                continue
            prev[nxt] = (node, to_site)
            if nxt == dst:
                hops = []
                cur = dst
                while cur != src:
                    cur, site = prev[cur]
                    hops.append(site)
                hops.reverse()
                return Connector(path=(a.hole, *hops))
            queue.append(nxt)
    return None
