"""Seeded inputs and operation lists of the two benchmark workloads.

Every workload is a fixed list of ``nagaoka`` command lines over model files
written here from the seed, plus the checks that judge their outputs.  The
seed draws hopping amplitudes uniformly in [0.5, 1.5] on each lattice's
fixed edge set (and, for the phonon workload, one coupling from
{0.25, 0.5, 1.0}); sizes, sparsity and sector lists never depend on it, so
every seed runs the same amount of structural work.

Nothing here imports ``nagaoka``: the lattices, the model files and the
oracles are the benchmark's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

HOLSTEIN_COUPLINGS = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class Check:
    """An oracle over the outputs of the operations it names."""

    ops: tuple[int, ...]
    fn: Callable[..., None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]
    checks: tuple[Check, ...]


# ---------------------------------------------------------------------------
# lattices and model files
# ---------------------------------------------------------------------------

def lattice_edges(family: str, extent) -> tuple[int, list[tuple[int, int]]]:
    """(sites, edges x < y) of a named lattice family."""
    if family == "complete":
        return extent, [(x, y) for x in range(extent) for y in range(x + 1, extent)]
    if family == "chain":
        return extent, [(i, i + 1) for i in range(extent - 1)]
    if family in ("square_patch", "triangular_patch"):
        nx, ny = extent
        idx = lambda i, j: i * ny + j  # noqa: E731
        edges = []
        for i in range(nx):
            for j in range(ny):
                if i + 1 < nx:
                    edges.append((idx(i, j), idx(i + 1, j)))
                if j + 1 < ny:
                    edges.append((idx(i, j), idx(i, j + 1)))
                if family == "triangular_patch" and i + 1 < nx and j + 1 < ny:
                    edges.append((idx(i, j), idx(i + 1, j + 1)))
        return nx * ny, sorted(edges)
    raise ValueError(f"unknown lattice family {family!r}")


@dataclass(frozen=True)
class Lattice:
    sites: int
    edges: tuple[tuple[int, int], ...]
    hopping: np.ndarray          # symmetric, seeded amplitudes on the edges


def seeded_lattice(rng: np.random.Generator, family: str, extent) -> Lattice:
    sites, edges = lattice_edges(family, extent)
    t = np.zeros((sites, sites))
    for x, y in edges:
        t[x, y] = t[y, x] = rng.uniform(0.5, 1.5)
    return Lattice(sites=sites, edges=tuple(edges), hopping=t)


def write_model(path: Path, lat: Lattice, *, u="inf", phonon=None, radiation=None) -> str:
    """Write a model file with explicit ``x y t`` hopping rows."""
    lines = ["[lattice]", f"sites = {lat.sites}"]
    lines += [f"{x} {y} {float(lat.hopping[x, y])!r}" for x, y in lat.edges]
    lines += ["[coulomb]", f"u = {u}"]
    if phonon is not None:
        gamma, cutoff = phonon
        lines += ["[phonon]", "omega = 1.0", f"cutoff = {cutoff}"]
        lines += [f"{x} {x} {gamma!r}" for x in range(lat.sites)]
    if radiation is not None:
        kappa, cutoff = radiation
        lines += ["[radiation]", "L = 4.0", f"kappa = {kappa!r}", "m0 = 1.0",
                  f"cutoff = {cutoff}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def sectors(sites: int) -> list[Fraction]:
    n = sites - 1
    return [Fraction(2 * k - n, 2) for k in range(n + 1)]


def _s_max(lat: Lattice) -> Fraction:
    return Fraction(lat.sites - 1, 2)


def _nagaoka_energy(lat: Lattice) -> float:
    """Ground energy of every sector of a connected one-hole model: the
    fully polarized sector is one hole hopping with -t, and by Tasaki's
    theorem the maximal-spin multiplet is the unique ground state of every
    sector."""
    return float(-np.linalg.eigvalsh(lat.hopping)[-1])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self):
        self.ops: list[tuple[str, ...]] = []
        self.checks: list[Check] = []

    def op(self, *argv: str) -> int:
        self.ops.append(tuple(argv))
        return len(self.ops) - 1

    def check(self, ops, fn):
        self.checks.append(Check(ops=tuple(ops), fn=fn))

    def build(self, name: str) -> Workload:
        return Workload(name=name, ops=tuple(self.ops), checks=tuple(self.checks))


def _ed_checks(b: _Builder, idx: int, lat: Lattice, ms, certify: int | None = None):
    energy = _nagaoka_energy(lat)
    b.check([idx], lambda out: oracles.spectral_rows(
        out, sites=lat.sites, sectors=ms, spin=_s_max(lat), energy=energy))
    if certify is not None:
        b.check([certify], lambda out: oracles.certificates(out, sectors=ms))


LARGEU_US = (1e2, 1e3, 2e3, 4e3)


def sector_ladder(seed: int, root: Path) -> Workload:
    """Infinite U, no bosons: enumeration, BFS, direct assembly, dense
    eigensolves, spin resolution through the Fock space, PF certificates;
    plus a finite-U probe on complete-4 so the Fock assembly, dense inverses
    and power-iteration norm of ``largeu`` are measured too."""
    rng = np.random.default_rng([seed, 1])
    b = _Builder()
    tri = seeded_lattice(rng, "triangular_patch", (2, 4))
    c9 = seeded_lattice(rng, "complete", 9)
    c4 = seeded_lattice(rng, "complete", 4)
    f_tri = write_model(root / "tri2x4.model", tri)
    f_c9 = write_model(root / "complete9.model", c9)
    f_c4 = write_model(root / "complete4.model", c4, u="4.0")

    ed = b.op("ed", "--all", "--model", f_tri)
    cert = b.op("certify", "--all", "--model", f_tri)
    _ed_checks(b, ed, tri, sectors(tri.sites), certify=cert)
    b.check([b.op("connectivity", "--all", "--model", f_tri)],
            lambda out: oracles.connectivity(out, sites=tri.sites, edges=tri.edges,
                                             sectors=sectors(tri.sites)))
    ed = b.op("ed", "--m", "0", "--model", f_c9)
    cert = b.op("certify", "--m", "0", "--model", f_c9)
    _ed_checks(b, ed, c9, [Fraction(0)], certify=cert)
    b.check([b.op("assemble", "--form", "hubbard", "--u", "4", "--model", f_c4)],
            lambda out: oracles.hubbard_export(out, c4.hopping, 4.0))
    b.check([b.op("largeu", "--u-list", ",".join(f"{u:g}" for u in LARGEU_US), "--model", f_c4)],
            lambda out: oracles.largeu_table(out, LARGEU_US))
    return b.build("sector-ladder")


def phonon_radiation(seed: int, root: Path) -> Workload:
    """Boson-dressed forms: Kronecker assembly, dense hopping phases and
    eigensolves on both sides of the dense/Lanczos crossover (972 and 1323
    dense, 2646 and 3072 Lanczos)."""
    rng = np.random.default_rng([seed, 2])
    b = _Builder()
    c4 = seeded_lattice(rng, "complete", 4)
    tri = seeded_lattice(rng, "complete", 3)
    gamma = HOLSTEIN_COUPLINGS[int(rng.integers(len(HOLSTEIN_COUPLINGS)))]
    f_hol = write_model(root / "holstein4.model", c4, phonon=(gamma, 2))
    f_rad = write_model(root / "radiation3.model", tri, radiation=(1.0, 2))
    s32 = Fraction(3, 2)

    def dressed(op, ms, cutoff):
        b.check([op], lambda out: oracles.spectral_rows(
            out, sites=4, sectors=ms, spin=s32, boson_dim=(cutoff + 1) ** 4,
            cutoff=cutoff))

    for cutoff in (2, 3):
        dressed(b.op("ed", "--all", "--form", "holstein", "--cutoff", str(cutoff),
                     "--model", f_hol), sectors(4), cutoff)
    lf_top = b.op("ed", "--m", "3/2", "--form", "langfirsov", "--cutoff", "2", "--model", f_hol)
    lf_mid = b.op("ed", "--m", "1/2", "--form", "langfirsov", "--cutoff", "2", "--model", f_hol)
    dressed(lf_top, [s32], 2)
    dressed(lf_mid, [Fraction(1, 2)], 2)
    b.check([lf_top, lf_mid], oracles.equal_ground_energies)
    dressed(b.op("ed", "--m", "1/2", "--form", "langfirsov", "--cutoff", "3", "--model", f_hol),
            [Fraction(1, 2)], 3)

    bare = _nagaoka_energy(tri)
    for m in ("1", "0"):
        op = b.op("ed", "--m", m, "--cutoff", "20", "--model", f_rad)
        b.check([op], lambda out, m=m: oracles.spectral_rows(
            out, sites=3, sectors=[Fraction(m)], spin=Fraction(1), boson_dim=21 ** 2,
            cutoff=20, energy=bare, energy_tol=1e-10))

    export = b.op("assemble", "--form", "langfirsov", "--cutoff", "2", "--m", "1/2",
                  "--model", f_hol)
    b.check([export, lf_mid], lambda out, ed_out: oracles.langfirsov_export(
        out, ed_out, dimension=12 * 81))
    return b.build("phonon-radiation")


_BUILDERS = {
    "sector-ladder": sector_ladder,
    "phonon-radiation": phonon_radiation,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's model files under ``root`` and return its ops."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](seed, root)
