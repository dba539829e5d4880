"""Exact-diagonalization laboratory for single-hole ferromagnetism in
Hubbard-type models, with and without phonon or radiation coupling."""

from .errors import (
    AmbiguousSpinError,
    ConvergenceError,
    DimensionBudgetError,
    InconsistencyError,
    ModelParseError,
    ModelValidationError,
)
from .hamiltonian import (
    SectorHamiltonian,
    assemble_holstein_sector,
    assemble_hubbard_full,
    assemble_lang_firsov_hole_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_projected,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
    effective_coulomb,
    peierls_kernel,
    photon_modes,
)
from .model import INFINITE, LatticeModel, PhononBlock, RadiationBlock, generate_lattice, load_model
from .positivity import (
    PositivityCertificate,
    diagonal_perturbation_equivalence,
    ergodicity_certificate,
    improves_positivity_exp,
    pf_certificate,
    preserves_positivity,
    spin_lowering_positivity,
)
from .sector import (
    Connector,
    HoleSpinConfig,
    SectorBasis,
    apply_move,
    connectivity_check,
    enumerate_sector,
    find_connector,
)
from .spectral import (
    SpectralReport,
    eig_lowest,
    energy_split_bound,
    ground_report,
    resolvent_gap,
    resolvent_gaps,
)

__version__ = "0.1.0"
