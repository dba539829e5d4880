"""Hole-spin configuration space of the one-hole sector.

A configuration places the single hole on one site and an up/down spin on
every other site, encoded as ``(hole, up_mask)``: bit z of ``up_mask`` is
set iff site z carries an up spin, the hole's bit is 0, and the down spins
are implicit.  A sector basis (S3 = M, i.e. n_up - n_down = 2M) holds the
encoding as two int64 arrays in lexicographic (hole, up_mask) order: for
each hole, the K = C(sites-1, n_up) ascending hole-free masks with the
hole's zero bit inserted, so a configuration's row is hole * K plus the rank
of its hole-free mask.

Hole moves along nonzero hopping bonds turn each sector into an undirected
graph whose connectivity is the combinatorial heart of the one-hole
ferromagnetism results.  ``hole_moves`` applies the move rule to a whole
basis at once; the scalar ``apply_move`` is the same rule for one
configuration, and the tests hold the vectorized rule to it.  Global spin
inversion, ``spin_flip``, maps sector M onto a given -M basis configuration
by configuration; hole moves commute with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import ModelValidationError, guard_dimension
from .model import MAX_SITES, LatticeModel


@dataclass(frozen=True)
class HoleSpinConfig:
    hole: int
    up_mask: int


def as_half_integer(m) -> Fraction:
    """Normalize a magnetization to an exact half-integer Fraction with
    |M| <= MAX_SITES/2.  The messages do not format ``m``: an exact number
    can have more digits than Python will print."""
    frac = Fraction(m)
    if frac.denominator > 2:
        raise ValueError("magnetization is not a half-integer")
    if abs(frac) > Fraction(MAX_SITES, 2):
        raise ValueError(f"magnetization is out of range: |M| > {MAX_SITES}/2")
    return frac


def sector_magnetizations(sites: int) -> list[Fraction]:
    """All valid M values, ascending: -(sites-1)/2 ... (sites-1)/2 in steps of 1."""
    n = sites - 1
    return [Fraction(2 * k - n, 2) for k in range(n + 1)]


def _combination_masks(width: int, ones: int) -> np.ndarray:
    """All ``width``-bit masks with ``ones`` bits set, ascending.  The masks
    below bit i+1 with j ones are those below bit i with j ones, then those
    with j-1 ones plus bit i (all larger); counts that can no longer reach
    ``ones`` are dropped, so no intermediate array outgrows the result."""
    none = np.empty(0, dtype=np.int64)
    by_ones = {0: np.zeros(1, dtype=np.int64)}
    for i in range(width):
        by_ones = {j: np.concatenate([by_ones.get(j, none), by_ones.get(j - 1, none) | (1 << i)])
                   for j in range(max(0, ones - width + i + 1), min(i + 1, ones) + 1)}
    return by_ones[ones]


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Canonically ordered basis of a magnetization sector: configuration i
    is ``(holes[i], masks[i])``, lexicographic in (hole, up_mask); ``rank``
    inverts the order."""

    sites: int
    m: Fraction
    holes: np.ndarray     # int64
    masks: np.ndarray     # int64

    @property
    def dimension(self) -> int:
        return self.holes.size

    @property
    def n_up(self) -> int:
        return (self.sites - 1 + int(2 * self.m)) // 2

    @property
    def configs(self) -> tuple[HoleSpinConfig, ...]:
        """The basis as configuration objects, for listings and oracles."""
        return tuple(HoleSpinConfig(h, u)
                     for h, u in zip(self.holes.tolist(), self.masks.tolist()))

    def rank(self, holes, masks):
        """Canonical row of each configuration ``(holes[i], masks[i])``;
        scalars give an int.  Raises ValueError if any configuration is not
        in the sector."""
        try:
            holes = np.asarray(holes, dtype=np.int64)
            masks = np.asarray(masks, dtype=np.int64)
        except OverflowError:
            raise ValueError("configuration outside the sector") from None
        per_hole = self.dimension // self.sites
        free = self.masks[:per_hole] >> 1           # hole 0: masks are free masks << 1
        ok = (holes >= 0) & (holes < self.sites)
        at = np.where(ok, holes, 0)
        ok &= ((masks >> at) & 1) == 0
        reduced = (masks & ((1 << at) - 1)) | ((masks >> (at + 1)) << at)   # drop the hole bit
        pos = np.minimum(np.searchsorted(free, reduced), per_hole - 1)
        ok &= free[pos] == reduced
        if not np.all(ok):
            raise ValueError(f"configuration outside the sector M = {self.m} "
                             f"of {self.sites} sites")
        rows = at * per_hole + pos
        return int(rows) if rows.ndim == 0 else rows


def enumerate_sector(model: LatticeModel, m) -> SectorBasis:
    """Complete, duplicate-free, canonically ordered basis of sector M."""
    return _sector_basis(model.sites, m)


def _sector_basis(sites: int, m) -> SectorBasis:
    frac = as_half_integer(m)
    if sites > MAX_SITES:
        raise ModelValidationError(
            "size", f"{sites} sites; sector bases hold at most {MAX_SITES} sites")
    twice = int(2 * frac)
    n_up2 = sites - 1 + twice
    if n_up2 % 2 or not 0 <= n_up2 // 2 <= sites - 1:
        raise ValueError(
            f"M = {frac} out of range for {sites} sites; valid sectors are "
            f"{', '.join(str(v) for v in sector_magnetizations(sites))}")
    n_up = n_up2 // 2
    dim = sites * comb(sites - 1, n_up)
    guard_dimension(dim, f"sector M = {frac} of {sites} sites")

    free = _combination_masks(sites - 1, n_up)
    hole = np.arange(sites, dtype=np.int64)[:, None]
    masks = (free & ((1 << hole) - 1)) | ((free >> hole) << (hole + 1))   # insert the hole bit
    holes = np.repeat(hole.ravel(), free.size)
    assert holes.size == dim
    return SectorBasis(sites=sites, m=frac, holes=holes, masks=masks.ravel())


def spin_flip(basis: SectorBasis, flipped: SectorBasis) -> np.ndarray:
    """Global spin inversion from sector M onto the -M basis ``flipped``:
    for each configuration of ``basis``, the row of its image there.  The
    hole stays put and every spin flips, so the up mask becomes its
    complement on the occupied sites; ``rank`` refuses an image outside
    ``flipped``."""
    masks = ~basis.masks & ((1 << basis.sites) - 1) & ~(1 << basis.holes)
    return flipped.rank(basis.holes, masks)


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


def hole_moves(model: LatticeModel, basis: SectorBasis) -> np.ndarray:
    """All hole hops as rows of a (4, n_moves) integer array: target index,
    source index, from site, to site; ordered by source, then target site.

    The rule of ``apply_move`` on every configuration at once: for each
    bond (x, y) the configurations with the hole at x are one block of rows,
    and an up spin at y swaps with the hole.
    """
    t = model.hopping
    xs, ys = np.nonzero((t != 0.0) & ~np.eye(basis.sites, dtype=bool))
    per_hole = basis.dimension // basis.sites
    src = xs[:, None] * per_hole + np.arange(per_hole)
    masks = basis.masks[src]
    swap = ((masks >> ys[:, None]) & 1) * ((1 << ys) | (1 << xs))[:, None]
    target = basis.rank(np.broadcast_to(ys[:, None], src.shape), masks ^ swap)
    moves = np.stack(np.broadcast_arrays(target, src, xs[:, None], ys[:, None])).reshape(4, -1)
    return moves[:, np.argsort(moves[1], kind="stable")].astype(np.intp)


def configuration_graph(model: LatticeModel, basis: SectorBasis) -> sp.csr_matrix:
    """Adjacency of the sector's configuration graph: entry (i, j) is 1 iff
    one hole hop takes configuration i to j, whose hole is the hop's target
    site."""
    target, source = hole_moves(model, basis)[:2]
    n = basis.dimension
    return sp.csr_matrix((np.ones(target.size), (source, target)), shape=(n, n))


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
    """Orbit decomposition of the sector's configuration graph.

    The sector is connected iff there is a single orbit.  Every edge has a
    reverse edge (moves are involutions), so orbits are plain components.
    Each orbit is sorted, and orbits are ordered by their smallest member.
    """
    basis = enumerate_sector(model, m)
    _, labels = connected_components(configuration_graph(model, basis), directed=False)
    by_label = np.argsort(labels, kind="stable")
    groups = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    orbits = sorted((tuple(g.tolist()) for g in groups), key=lambda o: o[0])
    return ConnectivityReport(m=basis.m, dimension=basis.dimension,
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
    orbits.  Read off the breadth-first tree of the configuration graph:
    each node on the tree path from a to b contributes its hole site."""
    basis = enumerate_sector(model, m)
    src = basis.rank(a.hole, a.up_mask)
    node = basis.rank(b.hole, b.up_mask)
    _, pred = breadth_first_order(configuration_graph(model, basis), src,
                                  return_predecessors=True)
    nodes = [node]
    while node != src:
        node = pred[node]
        if node < 0:
            return None
        nodes.append(node)
    return Connector(path=tuple(basis.holes[nodes[::-1]].tolist()))
