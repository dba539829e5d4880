"""The scipy assembly route of the boson-dressed forms: the tests' second
route for the index-array assembly of ``nagaoka.hamiltonian`` and the
position grid of ``nagaoka.positivity``.

Every per-mode factor is a scipy matrix, a per-bond boson factor is a chain
of ``sp.kron``, a Kronecker sum over modes is a running sparse sum, and the
hop block of a bond is its own CSR matrix.  Values are multiplied and summed
in the order the production code uses, so tests can require equal CSR
arrays.  The pieces both routes share, the per-mode exponential, the sector
diagonal, the polaron shift and the radiation mode coefficients, are
imported.
"""

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

from nagaoka.hamiltonian import (
    _mode_coefficients,
    _mode_exponential,
    _polaron_shift,
    _sector_diagonal,
    assemble_nagaoka_sector,
    hubbard_electron_matrix,
    photon_modes,
)
from nagaoka.manybody import full_fock_basis
from nagaoka.sector import enumerate_sector, hole_moves


def lowering(cutoff: int) -> sp.csr_matrix:
    n = np.arange(1, cutoff + 1)
    return sp.csr_matrix((np.sqrt(n.astype(float)), (n - 1, n)), shape=(cutoff + 1, cutoff + 1))


def number(cutoff: int) -> sp.csr_matrix:
    n = np.arange(1, cutoff + 1)
    return sp.csr_matrix((n.astype(float), (n, n)), shape=(cutoff + 1, cutoff + 1))


def mode_product(factors) -> sp.csr_matrix:
    """Kronecker product of per-mode factors, mode 0 most significant."""
    return reduce(lambda acc, f: sp.kron(acc, f, format="csr"), factors)


def mode_sum(factors: dict, modes: int) -> sp.csr_matrix:
    """factors[z] on mode z, summed over the named modes in order, one
    sparse addition per mode."""
    total = 0
    for z, factor in factors.items():
        levels = factor.shape[0]
        total = total + sp.kron(sp.kron(sp.identity(levels ** z), factor),
                                sp.identity(levels ** (modes - z - 1)), format="csr")
    return total


def kron_sum(terms) -> sp.csr_matrix:
    """sum_k A_k (x) B_k over scipy matrices, from one COO build."""
    rows, cols, vals = [], [], []
    for a, b in terms:
        a, b = sp.coo_matrix(a), sp.coo_matrix(b)
        rows.append((a.row.astype(np.int64)[:, None] * b.shape[0] + b.row).ravel())
        cols.append((a.col.astype(np.int64)[:, None] * b.shape[1] + b.col).ravel())
        vals.append((a.data[:, None] * b.data).ravel())
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


def move_blocks(model, basis) -> dict:
    """Hopping matrices grouped by ordered bond (hole from x to y)."""
    moves = hole_moves(model, basis)
    n = basis.dimension
    blocks = {}
    for x, y in np.unique(moves[2:].T, axis=0):
        rows, cols, xs, ys = moves[:, (moves[2] == x) & (moves[3] == y)]
        blocks[(int(x), int(y))] = sp.coo_matrix((-model.hopping[xs, ys], (rows, cols)),
                                                 shape=(n, n)).tocsr()
    return blocks


def dressed_hops(blocks: dict, phase) -> list:
    terms = []
    for (x, y), block in blocks.items():
        if x < y:
            theta = phase(x, y)
            terms += [(block, theta), (blocks[(y, x)], theta.conjugate().T)]
    return terms


def mode_exponentials(amplitudes, cutoff: int) -> list:
    b = lowering(cutoff).toarray()
    eye = sp.identity(cutoff + 1, format="csr")
    return [eye if c == 0 else sp.csr_matrix(_mode_exponential(c, b)) for c in amplitudes]


def _identities(n_electron: int, n_boson: int):
    return sp.identity(n_electron, format="csr"), sp.identity(n_boson, format="csr")


def holstein_terms(electron, occ, phonon, modes: int, cutoff: int) -> list:
    eye_e, eye_b = _identities(occ.shape[0], (cutoff + 1) ** modes)
    terms = [(electron, eye_b)]
    b = lowering(cutoff)
    for y in range(occ.shape[1]):
        gcol = phonon.coupling[:, y]
        if np.any(gcol):
            terms.append((sp.diags(occ @ gcol), mode_sum({y: b + b.T}, modes)))
    nb = mode_sum(dict.fromkeys(range(modes), number(cutoff)), modes)
    return terms + [(eye_e, phonon.frequency * nb)]


def holstein_sector(model, m, cutoff: int) -> sp.csr_matrix:
    electron = assemble_nagaoka_sector(model, m)
    occ = np.ones((electron.dimension, model.sites))
    occ[np.arange(electron.dimension), electron.basis.holes] = 0.0
    return kron_sum(holstein_terms(electron.op.matrix, occ, model.phonon, model.sites, cutoff))


def holstein_full(model, u: float) -> sp.csr_matrix:
    fock = full_fock_basis(model.sites, model.n_electrons)
    n_site = fock.occupations.sum(axis=1).astype(float)
    return kron_sum(holstein_terms(hubbard_electron_matrix(model, u), n_site, model.phonon,
                                   model.sites, model.phonon.per_site_cutoff))


def _dressed_sector(model, basis, phase, diagonal, boson_diagonal) -> sp.csr_matrix:
    eye_e, eye_b = _identities(basis.dimension, boson_diagonal.shape[0])
    return kron_sum(dressed_hops(move_blocks(model, basis), phase)
                    + [(sp.diags(diagonal), eye_b), (eye_e, boson_diagonal)])


def lang_firsov_sector(model, m, cutoff: int) -> sp.csr_matrix:
    ph = model.phonon
    basis = enumerate_sector(model, m)

    def phase(x, y):
        amplitudes = -1j * math.sqrt(ph.frequency / 2.0) * _polaron_shift(model, x, y)
        return mode_product(mode_exponentials(amplitudes, cutoff))

    nb = mode_sum(dict.fromkeys(range(model.sites), number(cutoff)), model.sites)
    return _dressed_sector(model, basis, phase, _sector_diagonal(model, basis, dressed=True),
                           ph.frequency * nb)


def radiation_sector(model, m, cutoff: int, modes=None) -> sp.csr_matrix:
    modes = photon_modes(model) if modes is None else modes
    basis = enumerate_sector(model, m)

    def phase(x, y):
        return mode_product(mode_exponentials(_mode_coefficients(model, modes, x, y), cutoff))

    field = mode_sum({j: mode.omega * number(cutoff) for j, mode in enumerate(modes)}, len(modes))
    return _dressed_sector(model, basis, phase, _sector_diagonal(model, basis), field)


def oscillator(points: int, spacing: float, frequency: float) -> sp.csr_matrix:
    q = (np.arange(points) - (points - 1) / 2.0) * spacing
    kinetic = sp.diags([np.full(points, 1.0 / spacing**2),
                        np.full(points - 1, -0.5 / spacing**2),
                        np.full(points - 1, -0.5 / spacing**2)],
                       offsets=[0, 1, -1])
    potential = sp.diags(0.5 * frequency**2 * q**2 - 0.5 * frequency)
    return (kinetic + potential).tocsr()


def qgrid_sector(model, m, points: int, spacing: float) -> sp.csr_matrix:
    """The position-grid polaron frame of ``assemble_qgrid_sector``, for a
    commensurate spacing."""
    basis = enumerate_sector(model, m)

    def phase(x, y):
        steps = [int(round(a / spacing)) for a in _polaron_shift(model, x, y)]
        return mode_product([sp.eye(points, points, k=s, format="csr") for s in steps])

    grid_h = mode_sum(dict.fromkeys(range(model.sites),
                                    oscillator(points, spacing, model.phonon.frequency)),
                      model.sites)
    return _dressed_sector(model, basis, phase, _sector_diagonal(model, basis, dressed=True),
                           grid_h)
