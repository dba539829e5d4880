"""Quantized hopping-phase machinery: mode sets, kernels, unitaries, and the
radiation-dressed sector Hamiltonian."""

import numpy as np
import pytest
import scipy.linalg as sla

from nagaoka.acceptance import radiation_triangle, transverse_mode_subset
from nagaoka.hamiltonian import (
    assemble_nagaoka_sector,
    assemble_radiation_sector,
    peierls_kernel,
    peierls_unitary,
    photon_modes,
    riemann_kernel,
)
from nagaoka.manybody import SparseHermitian, _csr, boson_basis
from nagaoka.sector import sector_magnetizations
from nagaoka.spectral import ground_report
from norm_oracle import operator_norm
from occupation_oracle import peierls_phase


def test_kernel_limits():
    x = np.array([0.0, 0.0, 0.0])
    y = np.array([2.0, 0.0, 0.0])
    k_perp = np.array([0.0, 3.0, 1.0])
    assert np.isclose(peierls_kernel(x, y, k_perp), np.exp(1j * k_perp @ x))
    assert np.isclose(peierls_kernel(x, y, np.zeros(3)), 1.0)
    shifted = np.array([1.0, -2.0, 0.5])
    assert np.isclose(peierls_kernel(shifted, shifted + y, k_perp),
                      np.exp(1j * (k_perp @ shifted)))


def test_kernel_matches_quadrature_oracle():
    from scipy.integrate import quad

    rng = np.random.default_rng(31)
    for _ in range(25):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        k = rng.standard_normal(3) * rng.uniform(0.0, 8.0)
        segment = lambda s: np.exp(1j * (k @ (x + s * (y - x))))
        re = quad(lambda s: segment(s).real, 0.0, 1.0, epsabs=1e-13)[0]
        im = quad(lambda s: segment(s).imag, 0.0, 1.0, epsabs=1e-13)[0]
        assert abs((re + 1j * im) - peierls_kernel(x, y, k)) <= 1e-12


def test_kernel_bounded_by_one():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        k = rng.standard_normal(3) * rng.uniform(0.0, 10.0)
        assert abs(peierls_kernel(x, y, k)) <= 1.0 + 1e-12


def test_kernel_symmetric_under_endpoint_swap():
    rng = np.random.default_rng(23)
    for _ in range(100):
        x, y, k = (rng.standard_normal(3) for _ in range(3))
        assert np.isclose(peierls_kernel(x, y, k), peierls_kernel(y, x, k))


def test_kernel_rejects_equal_endpoints():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        peierls_kernel(p, p, np.ones(3))
    with pytest.raises(ValueError):
        riemann_kernel(p, p + 1, np.ones(3), 0)


def test_riemann_kernel_error_halves():
    x = np.array([0.0, 0.0, 0.0])
    y = np.array([1.0, 0.5, -0.3])
    k = np.array([0.7, -1.2, 0.4])
    exact = peierls_kernel(x, y, k)
    errors = [abs(riemann_kernel(x, y, k, n) - exact) for n in (8, 16, 32, 64, 128)]
    for a, b in zip(errors, errors[1:]):
        assert 0.375 <= b / a <= 0.625


def test_mode_set_contents_and_order():
    decoupled = radiation_triangle(kappa=1.0)
    modes = photon_modes(decoupled)
    assert [(m.nvec, m.lam) for m in modes] == [((0, 0, 0), 1), ((0, 0, 0), 2)]
    assert all(m.omega == decoupled.radiation.mass for m in modes)
    assert all(np.all(m.eps == 0.0) for m in modes)

    coupled = radiation_triangle(kappa=1.8)
    modes = photon_modes(coupled)
    assert len(modes) == 14          # k = 0 pair plus the six shortest vectors
    keys = [(m.nvec, m.lam) for m in modes]
    assert keys == sorted(keys)
    for m in modes:
        if np.any(m.eps != 0.0):
            assert np.isclose(np.linalg.norm(m.eps), 1.0)
            assert abs(m.eps @ m.k) <= 1e-12          # transverse
            assert np.isclose(m.omega, np.linalg.norm(m.k))
        else:
            assert m.nvec[0] == 0 and m.nvec[1] == 0  # only k1 = k2 = 0 modes decouple


def test_phase_antisymmetric_under_path_reversal():
    model = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(model)
    forward = peierls_phase(model, sub, 0, 1, 2)
    backward = peierls_phase(model, sub, 1, 0, 2)
    assert np.max(np.abs(forward + backward)) <= 1e-14
    with pytest.raises(ValueError):
        peierls_phase(model, sub, 1, 1, 2)


def test_phase_unitary_matches_matrix_exponential():
    model = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(model)
    bosons = boson_basis(len(sub), 2)
    phase = peierls_phase(model, sub, 0, 2, 2)
    via_kron = _csr([peierls_unitary(model, sub, 0, 2, bosons)], bosons.dimension).toarray()
    assert np.max(np.abs(sla.expm(1j * phase) - via_kron)) <= 1e-12
    defect = np.max(np.abs(via_kron.conj().T @ via_kron - np.eye(via_kron.shape[0])))
    assert defect <= 1e-12


def test_riemann_operator_converges_to_phase():
    model = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(model)
    bosons = boson_basis(len(sub), 1)
    target = _csr([peierls_unitary(model, sub, 0, 1, bosons)], bosons.dimension).toarray()
    errors = []
    for n in (8, 32, 128):
        herm = peierls_phase(model, sub, 0, 1, 1, n_segments=n)
        assert np.array_equal(herm, herm.conj().T)
        errors.append(operator_norm(sla.expm(1j * herm) - target))
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert errors[2] <= 2e-3


def test_decoupled_assembly_reproduces_bare_spectrum_with_mass_ladder():
    model = radiation_triangle(kappa=1.0)
    for m in sector_magnetizations(3):
        h = assemble_radiation_sector(model, m)
        assert isinstance(h.op, SparseHermitian)
        full = np.linalg.eigvalsh(h.op.toarray())
        electron = np.linalg.eigvalsh(assemble_nagaoka_sector(model, m).op.toarray())
        ladder = np.sort([e + model.radiation.mass * (n1 + n2)
                          for e in electron for n1 in range(3) for n2 in range(3)])
        assert np.max(np.abs(full - ladder)) <= 1e-10


def test_coupled_assembly_ground_multiplet():
    model = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(model)
    reports = [ground_report(assemble_radiation_sector(model, m, cutoff=2, modes=sub))
               for m in sector_magnetizations(3)]
    energies = [r.ground_energy for r in reports]
    assert max(energies) - min(energies) <= 1e-9
    assert energies[0] > -2.0                       # the phase dressing is visible
    for r in reports:
        assert float(r.resolved_s) == 1.0
        assert r.degeneracy == 1


def test_radiation_requires_block():
    from nagaoka.corpus import triangle3
    with pytest.raises(ValueError):
        assemble_radiation_sector(triangle3(), 0)

