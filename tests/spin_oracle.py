"""The sector S^2 matrix: the tests' oracle for the total spin that
``nagaoka.spectral`` reads off one ladder map.

The whole Casimir is built from both neighbour sectors, M^2 + (L*L + L_+ L_+*) / 2,
and evaluated on the ground cluster as V*S^2V; production never forms it.
"""

import numpy as np
import scipy.sparse as sp

from nagaoka.manybody import SparseHermitian, sector_ladder
from nagaoka.sector import enumerate_sector
from nagaoka.spectral import as_matrix, ground_cluster


def sector_spin_squared(model, m) -> SparseHermitian:
    """Total-spin Casimir restricted to one magnetization sector:
    M^2 + (L*L + L_+ L_+*) / 2, with L the lowering map out of M and L_+
    the one into it."""
    basis = enumerate_sector(model, m)
    n = basis.dimension
    m_frac = basis.m
    max_m = (model.sites - 1) / 2
    s2 = float(m_frac) ** 2 * sp.identity(n, format="csr")
    if float(m_frac) > -max_m:
        low = sector_ladder(basis, enumerate_sector(model, m_frac - 1))
        s2 = s2 + 0.5 * (low.conjugate().T @ low)
    if float(m_frac) < max_m:
        low_above = sector_ladder(enumerate_sector(model, m_frac + 1), basis)
        s2 = s2 + 0.5 * (low_above @ low_above.conjugate().T)
    return SparseHermitian(s2.tocsr())


def cluster_spin_levels(h) -> np.ndarray:
    """Eigenvalues of V*S^2V over the ground cluster V of the sector
    Hamiltonian ``h`` (the vectors of the production block solve), with
    S^2 the sector matrix, Kronecker-multiplied by the boson identity."""
    v, *_ = ground_cluster(as_matrix(h))
    s2 = sector_spin_squared(h.model, h.m).matrix
    if h.boson is not None:
        s2 = sp.kron(s2, sp.identity(h.boson.dimension, format="csr"), format="csr")
    return np.linalg.eigvalsh(v.conj().T @ (s2 @ v))
