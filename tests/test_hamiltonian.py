from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import nagaoka.hamiltonian as hamiltonian
from nagaoka.acceptance import holstein_model, radiation_triangle, transverse_mode_subset
from nagaoka.corpus import complete4, corpus_models, pair2, triangle3
from nagaoka.hamiltonian import (
    _dressed_hops,
    _kron_sum,
    _polaron_phase,
    _sector_diagonal,
    assemble_holstein_sector,
    assemble_hubbard_full,
    assemble_lang_firsov_sector,
    assemble_nagaoka_projected,
    assemble_nagaoka_sector,
    assemble_qgrid_sector,
    assemble_radiation_sector,
    effective_coulomb,
    hubbard_electron_matrix,
    lang_firsov_constant,
    unitary_exp,
)
from nagaoka.manybody import (
    SparseHermitian,
    _csr,
    boson_basis,
    build_gutzwiller,
    full_fock_basis,
    sector_embedding,
)
from nagaoka.model import LatticeModel, PhononBlock, generate_lattice
from nagaoka.sector import enumerate_sector, hole_moves, sector_magnetizations
from occupation_oracle import momentum_quadrature, spin_ops


def with_phonons(base, coupling, omega=1.0, cutoff=2):
    return LatticeModel(base.sites, base.hopping, onsite_u=base.onsite_u,
                        phonon=PhononBlock(coupling=np.asarray(coupling, dtype=float),
                                           frequency=omega, per_site_cutoff=cutoff))


def test_two_site_sector_matrix_exact():
    h = assemble_nagaoka_sector(pair2(), Fraction(1, 2))
    assert np.array_equal(h.op.toarray(), [[0.0, -1.0], [-1.0, 0.0]])
    vals, vecs = np.linalg.eigh(h.op.toarray())
    assert np.allclose(vals, [-1.0, 1.0])
    ground = vecs[:, 0] * np.sign(vecs[0, 0])
    assert np.allclose(ground, np.full(2, 1 / np.sqrt(2)))


def test_negated_offdiagonal_is_exactly_the_hopping():
    model = complete4()
    h = assemble_nagaoka_sector(model, Fraction(1, 2)).op.toarray()
    off = -(h - np.diag(np.diag(h)))
    assert set(np.round(np.unique(off), 12)) <= {0.0, 1.0}


def test_coo_assembly_equals_the_per_hop_loop():
    # one COO build is exact only if no (target, source) pair comes twice;
    # the reference is the per-hop lil_matrix fill it replaced
    model = LatticeModel(6, generate_lattice("complete", 6, 1.0))
    for m in sector_magnetizations(6):
        basis = enumerate_sector(model, m)
        rows, cols, xs, ys = moves = hole_moves(model, basis)
        assert np.unique(rows * basis.dimension + cols).size == rows.size > 0
        ref = sp.lil_matrix((basis.dimension, basis.dimension))
        for i, j, x, y in moves.T:
            ref[i, j] += -model.hopping[x, y]
        ref = SparseHermitian((ref.tocsr() + sp.diags(_sector_diagonal(model, basis))).tocsr()).matrix
        got = assemble_nagaoka_sector(model, m).op.matrix
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
            assert np.array_equal(a, b)


def dense(triplets, dim: int) -> np.ndarray:
    return _csr([triplets], dim).toarray()


def test_bond_slices_partition_the_hopping_matrix():
    model = complete4()
    basis = enumerate_sector(model, Fraction(1, 2))
    one = (np.zeros(1, dtype=np.int64),) * 2 + (np.ones(1),)
    terms = _dressed_hops(model, basis, lambda x, y: one)
    assert len(terms) == 12                      # every ordered bond of K4
    h = assemble_nagaoka_sector(model, Fraction(1, 2)).op.toarray()
    hop = sum(dense(block, basis.dimension) for block, _ in terms)
    assert np.array_equal(hop, h - np.diag(np.diag(h)))
    for block, _ in terms:
        assert np.unique(block[2]).size == 1 and block[2][0] < 0


def test_direct_equals_projected_with_offsite_coulomb():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 2.0, size=(3, 3))
    u = u + u.T
    base = triangle3()
    model = LatticeModel(3, base.hopping, offsite_u=u)
    for m in sector_magnetizations(3):
        direct = assemble_nagaoka_sector(model, m).op.toarray()
        proj = assemble_nagaoka_projected(model, m).op.toarray()
        assert np.max(np.abs(direct - proj)) <= 1e-12
        assert np.any(np.diag(direct) != 0.0)


def test_direct_equals_projected_corpus():
    for model in corpus_models().values():
        for m in sector_magnetizations(model.sites):
            d = assemble_nagaoka_sector(model, m).op.toarray()
            p = assemble_nagaoka_projected(model, m).op.toarray()
            assert np.max(np.abs(d - p)) <= 1e-12


def test_projected_space_preserves_magnetization_blocks():
    """Hopping never connects different magnetization sectors."""
    model = triangle3()
    from nagaoka.hamiltonian import hubbard_electron_matrix
    hfull = hubbard_electron_matrix(model, 0.0).toarray()
    embeddings = {m: sector_embedding(model, m) for m in sector_magnetizations(3)}
    ms = list(embeddings)
    for i, ma in enumerate(ms):
        for mb in ms[i + 1:]:
            rows_a = embeddings[ma][2]
            rows_b = embeddings[mb][2]
            assert np.max(np.abs(hfull[np.ix_(rows_a, rows_b)])) == 0.0


def test_reassembled_projected_space_commutes_with_total_spin():
    model = complete4()
    from nagaoka.hamiltonian import hubbard_electron_matrix
    fock = full_fock_basis(4, 3)
    hfull = hubbard_electron_matrix(model, 0.0).toarray()
    s2full = spin_ops(fock.sites, fock.n_electrons)["Stot2"].toarray()
    rows, signs = [], []
    for m in sector_magnetizations(4):
        _, _, r, s = sector_embedding(model, m)
        rows.extend(r.tolist())
        signs.extend(s.tolist())
    rows = np.array(rows)
    d = np.diag(signs)
    h = d @ hfull[np.ix_(rows, rows)] @ d
    s2 = d @ s2full[np.ix_(rows, rows)] @ d
    assert np.max(np.abs(h @ s2 - s2 @ h)) <= 1e-10


def test_full_hubbard_two_site_single_particle_spectrum():
    model = LatticeModel(2, pair2().hopping, onsite_u=0.0)
    h = assemble_hubbard_full(model, 0.0)
    vals = np.linalg.eigvalsh(h.toarray())
    assert np.allclose(vals, [-1.0, -1.0, 1.0, 1.0])


def test_onsite_term_vanishes_inside_projected_subspace():
    model = LatticeModel(4, complete4().hopping, onsite_u=0.0)
    fock = full_fock_basis(4, 3)
    p = build_gutzwiller(fock).matrix
    h0 = assemble_hubbard_full(model, 0.0).matrix
    h9 = assemble_hubbard_full(model, 9.0).matrix
    diff = p @ (h9 - h0) @ p
    assert np.max(np.abs(diff.toarray())) == 0.0


def test_fock_diagonal_equals_the_per_word_loop():
    # reference: U * (doubly occupied sites) + n U_xy n, word by word
    rng = np.random.default_rng(8)
    uxy = rng.uniform(0.0, 2.0, size=(4, 4))
    models = list(corpus_models().values()) + [
        LatticeModel(4, complete4().hopping, offsite_u=uxy + uxy.T)]
    for model in models:
        fock = full_fock_basis(model.sites, model.n_electrons)
        lo = (1 << model.sites) - 1
        ref = []
        for w in fock.words.tolist():
            up, down = w & lo, w >> model.sites
            n = np.array([(up >> x & 1) + (down >> x & 1) for x in range(model.sites)], float)
            ref.append(3.5 * (up & down).bit_count() + n @ model.offsite_u @ n)
        got = hubbard_electron_matrix(model, 3.5).diagonal()
        if np.any(model.offsite_u):
            assert np.max(np.abs(got - ref)) <= 1e-14
        else:
            assert np.array_equal(got, ref)


def test_full_hubbard_hermitian_with_phonons():
    model = with_phonons(LatticeModel(3, triangle3().hopping, onsite_u=2.0),
                         0.3 * np.eye(3), cutoff=1)
    h = assemble_hubbard_full(model, 2.0)
    assert isinstance(h, SparseHermitian)
    dense = h.toarray()
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12


def test_effective_coulomb():
    base = triangle3()
    g = 0.7 * np.eye(3)
    model = with_phonons(base, g)
    ueff = effective_coulomb(model)
    off = ueff - np.diag(np.diag(ueff))
    assert np.max(np.abs(off - model.offsite_u)) == 0.0    # diagonal coupling: no dressing
    g0 = with_phonons(base, np.zeros((3, 3)))
    assert np.array_equal(effective_coulomb(g0), g0.offsite_u)
    rng = np.random.default_rng(2)
    gr = rng.standard_normal((3, 3))
    gr = gr + gr.T
    omega = 1.7
    mr = with_phonons(base, gr, omega=omega)
    assert np.allclose(effective_coulomb(mr), mr.offsite_u - gr @ gr / omega)
    assert np.allclose(effective_coulomb(mr), effective_coulomb(mr).T)


def test_holstein_decoupled_spectrum():
    model = with_phonons(pair2(), np.zeros((2, 2)), omega=0.9, cutoff=2)
    h = assemble_holstein_sector(model, Fraction(1, 2), cutoff=2)
    full = np.sort(np.linalg.eigvalsh(h.op.toarray()))
    electron = np.linalg.eigvalsh(assemble_nagaoka_sector(model, Fraction(1, 2)).op.toarray())
    ladder = np.sort([e + 0.9 * (n1 + n2) for e in electron
                      for n1 in range(3) for n2 in range(3)])
    assert np.allclose(full, ladder, atol=1e-12)


def test_holstein_sector_equals_full_space_projection():
    """The phonon-coupled sector assembly must agree entrywise with the
    projection of the full-space U = 0 Hamiltonian, boson factor included;
    off-diagonal couplings exercise the density-displacement cross terms."""
    from nagaoka.manybody import boson_basis, sector_embedding

    g = np.array([[0.4, 0.1, 0.0], [0.1, 0.4, 0.1], [0.0, 0.1, 0.4]])
    model = with_phonons(triangle3(), g, omega=1.3, cutoff=2)
    finite = LatticeModel(3, model.hopping, onsite_u=0.0, phonon=model.phonon)
    hfull = assemble_hubbard_full(finite, 0.0).matrix.toarray()
    nb = boson_basis(3, 2).dimension
    for m in sector_magnetizations(3):
        _, _, rows, signs = sector_embedding(model, m)
        idx = np.array([r * nb + b for r in rows for b in range(nb)])
        sgn = np.repeat(signs, nb)
        projected = np.diag(sgn) @ hfull[np.ix_(idx, idx)] @ np.diag(sgn)
        direct = assemble_holstein_sector(model, m, cutoff=2).op.toarray()
        assert np.max(np.abs(projected - direct)) <= 1e-12


def test_holstein_ground_energy_monotone_in_cutoff():
    model = with_phonons(pair2(), 0.6 * np.eye(2))
    energies = []
    for cutoff in (1, 2, 4, 6):
        h = assemble_holstein_sector(model, Fraction(1, 2), cutoff=cutoff)
        energies.append(np.linalg.eigvalsh(h.op.toarray())[0])
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))


def test_lang_firsov_reduces_to_holstein_at_zero_coupling():
    model = with_phonons(pair2(), np.zeros((2, 2)))
    lf = assemble_lang_firsov_sector(model, Fraction(1, 2), cutoff=2)
    hd = assemble_holstein_sector(model, Fraction(1, 2), cutoff=2)
    assert np.max(np.abs(lf.op.toarray() - hd.op.toarray())) == 0.0
    assert lf.dropped_constant == 0.0


def test_unitary_exp_is_exactly_unitary():
    from nagaoka.hamiltonian import unitary_exp

    rng = np.random.default_rng(12)
    gen = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    gen = gen + gen.conj().T
    u = unitary_exp(gen)
    assert np.max(np.abs(u.conj().T @ u - np.eye(40))) <= 1e-12


OFFDIAGONAL_G = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.2], [0.0, 0.2, 0.5]])


def test_lang_firsov_phases_unitary_for_offdiagonal_coupling():
    model = with_phonons(triangle3(), OFFDIAGONAL_G, cutoff=2)
    lf = assemble_lang_firsov_sector(model, 0, cutoff=2)
    dense = lf.op.toarray()
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12


def test_lang_firsov_constant_diagonal_coupling():
    model = with_phonons(pair2(), 0.5 * np.eye(2), omega=2.0)
    # displacement energy: -(1/omega) * gamma^2 per electron
    assert np.isclose(lang_firsov_constant(model), -0.25 / 2.0 * 1)


def test_lang_firsov_reconciles_with_direct_form():
    model = with_phonons(pair2(), 0.5 * np.eye(2))
    diffs = []
    for cutoff in (2, 4, 8):
        e_direct = np.linalg.eigvalsh(
            assemble_holstein_sector(model, Fraction(1, 2), cutoff=cutoff).op.toarray())[0]
        lf = assemble_lang_firsov_sector(model, Fraction(1, 2), cutoff=cutoff)
        e_frame = np.linalg.eigvalsh(lf.op.toarray())[0] + lf.dropped_constant
        diffs.append(abs(e_direct - e_frame))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
    assert diffs[2] <= 1e-10


def test_lang_firsov_reconciles_with_nonuniform_site_couplings():
    """Heterogeneous diagonal couplings leave a site-dependent displacement
    energy that must stay inside the matrix, not in the scalar constant."""
    g = np.diag([0.3, 0.5, 0.4])
    model = with_phonons(triangle3(), g)
    diffs = []
    for cutoff in (2, 4):
        e_direct = np.linalg.eigvalsh(
            assemble_holstein_sector(model, 0, cutoff=cutoff).op.toarray())[0]
        lf = assemble_lang_firsov_sector(model, 0, cutoff=cutoff)
        e_frame = np.linalg.eigvalsh(lf.op.toarray())[0] + lf.dropped_constant
        diffs.append(abs(e_direct - e_frame))
    assert diffs[1] < diffs[0]
    assert diffs[1] <= 1e-4


def test_sector_assembly_requires_infinite_u():
    finite = LatticeModel(2, pair2().hopping, onsite_u=3.0)
    with pytest.raises(ValueError):
        assemble_nagaoka_sector(finite, Fraction(1, 2))
    with pytest.raises(ValueError):
        assemble_hubbard_full(pair2(), np.inf)


def test_onsite_hopping_diagonal():
    t = np.array([[0.5, 1.0], [1.0, 0.25]])
    model = LatticeModel(2, t)
    h = assemble_nagaoka_sector(model, Fraction(1, 2)).op.toarray()
    # hole at 0 leaves the site-1 potential, and vice versa
    assert np.allclose(np.diag(h), [0.25, 0.5])
    p = assemble_nagaoka_projected(model, Fraction(1, 2)).op.toarray()
    assert np.max(np.abs(h - p)) <= 1e-12


POLARON_CASES = {
    "complete4": (holstein_model(complete4(), gamma=0.5), Fraction(1, 2), 3),
    "offdiagonal-triangle": (with_phonons(triangle3(), OFFDIAGONAL_G), 0, 2),
}


@pytest.mark.parametrize("name", sorted(POLARON_CASES))
def test_polaron_phase_product_equals_full_space_exponential(name):
    """The per-mode product phase against one dense exponential of the
    whole-space generator sum_z shift_z p_z, the route it replaced."""
    model, _, cutoff = POLARON_CASES[name]
    ph = model.phonon
    bosons = boson_basis(model.sites, cutoff)
    p_ops = [momentum_quadrature(model.sites, cutoff, z, ph.frequency) for z in range(model.sites)]
    bonds = [(x, y) for x in range(model.sites) for y in range(x + 1, model.sites)
             if model.hopping[x, y] != 0.0]
    assert bonds
    for x, y in bonds:
        gen = sum(-np.sqrt(2.0) * ph.frequency ** (-1.5) * (ph.coupling[x, z] - ph.coupling[y, z])
                  * p_ops[z] for z in range(model.sites))
        product = dense(_polaron_phase(model, x, y, bosons), bosons.dimension)
        assert np.max(np.abs(product - unitary_exp(gen))) <= 1e-12


@pytest.mark.parametrize("name", sorted(POLARON_CASES))
def test_polaron_frame_stores_no_rounding_noise(name):
    model, m, cutoff = POLARON_CASES[name]
    mat = assemble_lang_firsov_sector(model, m, cutoff=cutoff).op.matrix
    assert np.min(np.abs(mat.data)) >= 1e-13


def _complex_mode_exponentials(amplitudes, cutoff: int):
    """The complex route the real factors replaced: every mode has a
    factor, the identity included, complex128 from one complex
    ``unitary_exp``."""
    b = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)
    return {z: np.eye(cutoff + 1, dtype=complex) if c == 0
            else unitary_exp(c * b + np.conj(c) * b.conjugate().T)
            for z, c in enumerate(amplitudes)}


@pytest.mark.parametrize("name", sorted(POLARON_CASES))
def test_polaron_phase_is_the_real_part_of_the_complex_route(monkeypatch, name):
    model, _, cutoff = POLARON_CASES[name]
    bosons = boson_basis(model.sites, cutoff)
    bonds = [(x, y) for x in range(model.sites) for y in range(x + 1, model.sites)
             if model.hopping[x, y] != 0.0]
    for x, y in bonds:
        phase = _polaron_phase(model, x, y, bosons)
        assert phase[2].dtype == np.float64
        with monkeypatch.context() as mp:
            mp.setattr(hamiltonian, "_mode_exponentials", _complex_mode_exponentials)
            oracle = dense(_polaron_phase(model, x, y, bosons), bosons.dimension)
        theta = dense(phase, bosons.dimension)
        assert np.array_equal(theta, oracle.real)
        assert np.max(np.abs(oracle.imag)) <= 1e-15
        assert np.max(np.abs(theta.T @ theta - np.eye(theta.shape[0]))) <= 1e-14


def test_radiation_form_is_real_only_without_coupled_modes(monkeypatch):
    coupled = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(coupled)
    for m in sector_magnetizations(3):
        mat = assemble_radiation_sector(coupled, m, cutoff=2, modes=sub).op.matrix
        with monkeypatch.context() as mp:
            mp.setattr(hamiltonian, "_mode_exponentials", _complex_mode_exponentials)
            oracle = assemble_radiation_sector(coupled, m, cutoff=2, modes=sub).op.matrix
        assert mat.dtype == oracle.dtype == np.complex128
        for arrays in ("data", "indices", "indptr"):
            assert getattr(mat, arrays).tobytes() == getattr(oracle, arrays).tobytes()
        decoupled = assemble_radiation_sector(radiation_triangle(kappa=1.0), m)
        assert decoupled.op.matrix.dtype == np.float64


class _Captured(Exception):
    pass


def _captured_terms(monkeypatch, module, build):
    """The Kronecker terms and factor dimensions a form hands to
    ``_kron_sum``; the build stops there."""
    captured = []

    def capture(terms, dims):
        captured.extend([terms, dims])
        raise _Captured

    monkeypatch.setattr(module, "_kron_sum", capture)
    with pytest.raises(_Captured):
        build()
    return captured


@pytest.mark.parametrize("form", ["polaron-frame", "qgrid"])
def test_kron_sum_equals_dense_kronecker_sum(monkeypatch, form):
    """complete-4 polaron frame at cutoff 2, and criterion 12's 2-site model
    on a 32-point grid (its 64-point grid would need a 0.5 GB dense oracle)."""
    if form == "polaron-frame":
        model = holstein_model(complete4(), gamma=0.5)
        terms, dims = _captured_terms(monkeypatch, hamiltonian, lambda: assemble_lang_firsov_sector(
            model, Fraction(1, 2), cutoff=2))
    else:
        model = holstein_model(pair2(), gamma=0.5)
        spacing = np.sqrt(2.0) * 0.5 / 3
        terms, dims = _captured_terms(monkeypatch, hamiltonian,
                                      lambda: assemble_qgrid_sector(model, Fraction(1, 2), 32,
                                                                    spacing))
    eye = [np.eye(n) for n in dims]
    want = sum(np.kron(eye[0] if a is None else dense(a, dims[0]),
                       eye[1] if b is None else dense(b, dims[1])) for a, b in terms)
    assert np.max(np.abs(_kron_sum(terms, dims).toarray() - want)) <= 1e-14
