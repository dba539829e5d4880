"""Global spin inversion: every form is spin-blind, so the assembled matrix
and S^2 of sector -M are exactly those of sector M permuted by the flip.
The permutation here is the scalar oracle: each configuration flipped on
its own and looked up in a dict over the -M basis.  Production checks H
only; the S^2 identity is checked here on the oracle's sector S^2."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nagaoka.acceptance import holstein_model, radiation_triangle, transverse_mode_subset
from nagaoka.corpus import complete4, triangle3
from nagaoka.errors import InconsistencyError
from nagaoka.hamiltonian import (
    assemble_holstein_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
)
from nagaoka.manybody import SparseHermitian
from nagaoka.model import LatticeModel, PhononBlock
from nagaoka.sector import HoleSpinConfig, sector_magnetizations
from nagaoka.spectral import (
    RESIDUAL_TOL,
    ground_cluster,
    ground_report,
    verified_spin_flip,
)
from spin_oracle import sector_spin_squared
from test_hamiltonian import OFFDIAGONAL_G, with_phonons
from test_sector import oracle_models


def flip_rows(basis, basis_flip) -> np.ndarray:
    full = (1 << basis.sites) - 1
    index = {c: i for i, c in enumerate(basis_flip.configs)}
    return np.array([index[HoleSpinConfig(c.hole, full ^ c.up_mask ^ (1 << c.hole))]
                     for c in basis.configs], dtype=np.int64)


def permuted(mat: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """Entry (i, j) is mat[perm[i], perm[j]], rebuilt from COO triplets."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    coo = mat.tocoo()
    return sp.csr_matrix((coo.data, (inverse[coo.row], inverse[coo.col])), shape=mat.shape)


def assert_same_csr(a: sp.csr_matrix, b: sp.csr_matrix):
    assert a.dtype == b.dtype
    for name in ("indptr", "indices", "data"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def assert_exact_flip(h, h_flip):
    """H(-M) and S^2(-M), flipped, equal H(M) and S^2(M) as CSR arrays, and
    the production check returns the oracle's permutation."""
    rows = flip_rows(h.basis, h_flip.basis)
    nb = 1 if h.boson is None else h.boson.dimension
    perm = (rows[:, None] * nb + np.arange(nb)).ravel()
    s2, s2_flip = (sector_spin_squared(h.model, m) for m in (h.m, h_flip.m))
    assert_same_csr(permuted(h_flip.op.matrix, perm), h.op.matrix)
    assert_same_csr(permuted(s2_flip.matrix, rows), s2.matrix)
    assert np.array_equal(verified_spin_flip(h, h_flip), perm)


def positive_sectors(sites: int) -> list[Fraction]:
    return [m for m in sector_magnetizations(sites) if m > 0]


def test_nagaoka_sectors_are_exact_spin_flips():
    for model in oracle_models().values():
        for m in positive_sectors(model.sites):
            assert_exact_flip(assemble_nagaoka_sector(model, m),
                              assemble_nagaoka_sector(model, -m))


PHONON_MODELS = {
    **{f"complete4-g{g}": holstein_model(complete4(), g) for g in (0.25, 0.5, 1.0)},
    "offdiagonal-triangle": with_phonons(triangle3(), OFFDIAGONAL_G),
}


@pytest.mark.parametrize("name", sorted(PHONON_MODELS))
@pytest.mark.parametrize("assemble", [assemble_holstein_sector, assemble_lang_firsov_sector])
@pytest.mark.parametrize("cutoff", [2, 3])
def test_phonon_forms_are_exact_spin_flips(name, assemble, cutoff):
    model = PHONON_MODELS[name]
    for m in positive_sectors(model.sites):
        assert_exact_flip(assemble(model, m, cutoff=cutoff), assemble(model, -m, cutoff=cutoff))


def test_radiation_forms_are_exact_spin_flips():
    decoupled = radiation_triangle(kappa=1.0)
    assert_exact_flip(assemble_radiation_sector(decoupled, 1, cutoff=20),
                      assemble_radiation_sector(decoupled, -1, cutoff=20))
    coupled = radiation_triangle(kappa=1.8)
    modes = transverse_mode_subset(coupled)
    h = assemble_radiation_sector(coupled, 1, cutoff=2, modes=modes)
    assert h.op.matrix.dtype == np.complex128
    assert_exact_flip(h, assemble_radiation_sector(coupled, -1, cutoff=2, modes=modes))


@st.composite
def generated_models(draw):
    sites = draw(st.integers(2, 7))
    pairs = [(x, y) for x in range(sites) for y in range(x + 1, sites)]
    t = np.zeros((sites, sites))
    for x, y in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))):
        t[x, y] = t[y, x] = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        t[np.diag_indices(sites)] = draw(st.lists(st.floats(0.0, 2.0),
                                                  min_size=sites, max_size=sites))
    u = np.zeros((sites, sites))
    for x, y in pairs:
        u[x, y] = u[y, x] = draw(st.floats(0.0, 2.0))
    phonon = None
    if sites <= 4 and draw(st.booleans()):
        g = np.zeros((sites, sites))
        for x, y in draw(st.lists(st.sampled_from([(x, x) for x in range(sites)] + pairs),
                                  unique=True, min_size=1)):
            g[x, y] = g[y, x] = draw(st.floats(-1.0, 1.0))
        phonon = PhononBlock(coupling=g, frequency=draw(st.floats(0.5, 2.0)),
                             per_site_cutoff=draw(st.integers(1, 2)))
    return LatticeModel(sites, t, offsite_u=u, phonon=phonon)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(generated_models())
def test_spin_flip_identity_on_generated_graphs(model):
    forms = [assemble_nagaoka_sector]
    if model.phonon is not None:
        forms += [assemble_holstein_sector, assemble_lang_firsov_sector]
    for assemble in forms:
        for m in positive_sectors(model.sites):
            assert_exact_flip(assemble(model, m), assemble(model, -m))


_COUPLED = radiation_triangle(kappa=1.8)
_HOLSTEIN = holstein_model(complete4(), 0.5)
SOLVED_FORMS = {
    "complete4": (complete4(), assemble_nagaoka_sector),
    "holstein": (_HOLSTEIN, partial(assemble_holstein_sector, cutoff=2)),
    "langfirsov": (_HOLSTEIN, partial(assemble_lang_firsov_sector, cutoff=2)),
    "radiation": (_COUPLED, partial(assemble_radiation_sector, cutoff=2,
                                    modes=transverse_mode_subset(_COUPLED))),
}


@pytest.mark.parametrize("case", sorted(SOLVED_FORMS))
def test_flipped_ground_vector_solves_the_flipped_sector(case):
    model, build = SOLVED_FORMS[case]
    for m in positive_sectors(model.sites):
        h, h_flip = build(model, m), build(model, -m)
        perm = verified_spin_flip(h, h_flip)
        e = ground_report(h).ground_energy
        v0 = ground_cluster(h.op.matrix)[4]
        v = np.empty_like(v0)
        v[perm] = v0                                 # M's ground vector carried by the inversion
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        residual = np.linalg.norm(h_flip.op.matrix @ v - e * v)
        assert residual <= RESIDUAL_TOL * (1.0 + abs(e))


def test_verified_spin_flip_enumerates_no_sector(monkeypatch):
    model = complete4()
    h, h_flip = (assemble_nagaoka_sector(model, m) for m in (Fraction(3, 2), Fraction(-3, 2)))

    def forbidden(*args):
        raise AssertionError("the -M basis is the one h_flip holds")

    monkeypatch.setattr("nagaoka.sector._sector_basis", forbidden)
    assert np.array_equal(verified_spin_flip(h, h_flip), flip_rows(h.basis, h_flip.basis))


def test_verified_spin_flip_rejects_a_spin_dependent_form():
    model = complete4()
    m = Fraction(1, 2)
    h, h_flip = assemble_nagaoka_sector(model, m), assemble_nagaoka_sector(model, -m)
    field = sp.diags(0.1 * (h_flip.basis.masks & 1))             # a field on site 0's spin
    zeeman = type(h_flip)(model=model, m=h_flip.m, basis=h_flip.basis,
                          op=SparseHermitian(h_flip.op.matrix + field),
                          provenance=h_flip.provenance)
    with pytest.raises(InconsistencyError, match="not the spin flip"):
        verified_spin_flip(h, zeeman)
    with pytest.raises(InconsistencyError, match="is not the spin flip of M"):
        verified_spin_flip(h, h)
