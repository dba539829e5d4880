"""The index-array assembly of every boson-dressed form against the scipy
route of ``assembly_oracle``: the same dtype, indptr, indices and data, on
every sector at cutoffs 0-3, after the ``SparseHermitian`` canonical form
both routes end in."""

import math

import numpy as np
import pytest

import assembly_oracle as oracle
from nagaoka.acceptance import holstein_model, radiation_triangle, transverse_mode_subset
from nagaoka.corpus import complete4, corpus_models, pair2, triangle3
from nagaoka.hamiltonian import (
    _mode_coefficients,
    assemble_holstein_sector,
    assemble_hubbard_full,
    assemble_lang_firsov_sector,
    assemble_qgrid_sector,
    assemble_radiation_sector,
    photon_modes,
)
from nagaoka.manybody import SparseHermitian
from nagaoka.model import LatticeModel, PhononBlock, RadiationBlock
from nagaoka.sector import sector_magnetizations

CUTOFFS = [0, 1, 2, 3]


def assert_same_csr(got, want, what=""):
    want = SparseHermitian(want).matrix
    assert got.shape == want.shape and got.dtype == want.dtype, what
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"{what}: {attr}"


def phonon_models(cutoff: int) -> dict:
    g = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.5]])
    return {
        "complete4": holstein_model(complete4(), 0.5, cutoff=cutoff),       # criterion 7
        "pair2-diagonal": holstein_model(pair2(), 0.5, omega=1.3, cutoff=cutoff),
        "triangle3-offdiagonal": LatticeModel(3, triangle3().hopping, phonon=PhononBlock(
            coupling=g, frequency=0.7, per_site_cutoff=cutoff)),
    }


PHONON_CASES = [(name, cutoff) for cutoff in CUTOFFS for name in sorted(phonon_models(0))]


@pytest.mark.parametrize("name, cutoff", PHONON_CASES)
def test_holstein_sectors_equal_the_scipy_route(name, cutoff):
    model = phonon_models(cutoff)[name]
    for m in sector_magnetizations(model.sites):
        assert_same_csr(assemble_holstein_sector(model, m).op.matrix,
                        oracle.holstein_sector(model, m, cutoff), f"M={m}")


@pytest.mark.parametrize("name, cutoff", [c for c in PHONON_CASES if c[0] != "complete4"])
def test_full_space_holstein_equals_the_scipy_route(name, cutoff):
    model = phonon_models(cutoff)[name]
    assert_same_csr(assemble_hubbard_full(model, 2.0).matrix, oracle.holstein_full(model, 2.0))


@pytest.mark.parametrize("name, cutoff", PHONON_CASES)
def test_lang_firsov_sectors_equal_the_scipy_route(name, cutoff):
    model = phonon_models(cutoff)[name]
    for m in sector_magnetizations(model.sites):
        assert_same_csr(assemble_lang_firsov_sector(model, m).op.matrix,
                        oracle.lang_firsov_sector(model, m, cutoff), f"M={m}")


def planar_triangle() -> LatticeModel:
    """Triangle in the xy plane of the box of ``radiation_triangle``."""
    positions = np.array([[-0.5, -0.25, 0.0], [0.5, -0.25, 0.0], [0.0, 0.6, 0.0]])
    return LatticeModel(3, triangle3().hopping, radiation=RadiationBlock(
        box_length=4.0, uv_cutoff=1.8, mass=1.0, photon_cutoff=2, site_positions=positions))


def coupled_modes(model) -> list:
    """The modes with a nonzero coefficient on some bond."""
    bonds = [(x, y) for x in range(model.sites) for y in range(x + 1, model.sites)]
    return [md for md in photon_modes(model)
            if any(_mode_coefficients(model, [md], x, y)[0] != 0 for x, y in bonds)]


def radiation_cases() -> dict:
    line = radiation_triangle(kappa=1.8)
    planar = planar_triangle()
    return {
        "decoupled": (radiation_triangle(kappa=1.0), None),
        "transverse": (line, transverse_mode_subset(line)),                # criterion 10
        "planar": (planar, coupled_modes(planar)),
    }


def test_planar_triangle_couples_four_modes_with_complex_coefficients():
    model, modes = radiation_cases()["planar"]
    assert len(modes) == 4
    coefficients = np.concatenate([_mode_coefficients(model, modes, x, y)
                                   for x, y in ((0, 1), (0, 2), (1, 2))])
    assert np.any(coefficients.real != 0) and np.any(coefficients.imag != 0)


RADIATION_CASES = [(name, cutoff) for cutoff in CUTOFFS for name in sorted(radiation_cases())]


@pytest.mark.parametrize("name, cutoff", RADIATION_CASES)
def test_radiation_sectors_equal_the_scipy_route(name, cutoff):
    model, modes = radiation_cases()[name]
    for m in sector_magnetizations(3):
        got = assemble_radiation_sector(model, m, cutoff=cutoff, modes=modes).op.matrix
        assert got.dtype == (np.float64 if name == "decoupled" else np.complex128)
        assert_same_csr(got, oracle.radiation_sector(model, m, cutoff, modes), f"M={m}")


QGRID_CASES = {   # criterion 12's two grids, and three modes whose diagonals add up
    "pair2-64": (pair2(), 64, 6),
    "pair2-128": (pair2(), 128, 12),
    "triangle3-16": (triangle3(), 16, 3),
}


@pytest.mark.parametrize("name", sorted(QGRID_CASES))
def test_qgrid_equals_the_scipy_route(name):
    """The grid polaron frame that the grid certificate solves."""
    base, points, cells = QGRID_CASES[name]
    model = holstein_model(base, gamma=0.5)
    spacing = math.sqrt(2.0) * 0.5 / cells
    for m in sector_magnetizations(model.sites):
        got = assemble_qgrid_sector(model, m, points, spacing).op.matrix
        assert_same_csr(got, oracle.qgrid_sector(model, m, points, spacing), f"M={m}")


def _dressed_assemblies(form: str):
    """Every sector of ``form`` on the corpus models: Holstein and
    Lang-Firsov at gamma = 0.5 and cutoff 2 on each corpus graph and the
    off-diagonal triangle, the radiation cases at cutoff 2 and the grids."""
    if form == "radiation":
        for model, modes in radiation_cases().values():
            for m in sector_magnetizations(3):
                yield assemble_radiation_sector(model, m, cutoff=2, modes=modes)
    elif form == "qgrid":
        for base, points, cells in QGRID_CASES.values():
            model = holstein_model(base, gamma=0.5)
            for m in sector_magnetizations(model.sites):
                yield assemble_qgrid_sector(model, m, points, math.sqrt(2.0) * 0.5 / cells)
    else:
        assemble = assemble_holstein_sector if form == "holstein" else assemble_lang_firsov_sector
        models = [holstein_model(base, 0.5, cutoff=2) for base in corpus_models().values()]
        for model in models + [phonon_models(2)["triangle3-offdiagonal"]]:
            for m in sector_magnetizations(model.sites):
                yield assemble(model, m)


@pytest.mark.parametrize("form", ["holstein", "lang_firsov", "radiation", "qgrid"])
def test_kron_sum_budget_counts_the_entries_it_builds(monkeypatch, form):
    """The count ``_kron_sum`` holds to the entry budget is the length of
    the triplet arrays it then hands to the COO build."""
    import nagaoka.hamiltonian as hamiltonian

    counts, built = [], []
    guard, csr = hamiltonian.guard_entries, hamiltonian._csr

    def counting_guard(count, what):
        counts.append(count)
        guard(count, what)

    def counting_csr(parts, dim):
        built.append(sum(len(rows) for rows, _, _ in parts))
        return csr(parts, dim)

    monkeypatch.setattr(hamiltonian, "guard_entries", counting_guard)
    monkeypatch.setattr(hamiltonian, "_csr", counting_csr)
    sectors = list(_dressed_assemblies(form))
    assert len(counts) == len(sectors) and all(counts)
    assert counts == built
