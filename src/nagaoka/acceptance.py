"""Acceptance suite: every release gate as an executable check.

Each criterion function returns a human-readable detail string and raises
AssertionError (with a meaningful message) on failure; ``run_acceptance``
wraps them with timing, runtime budgets and one pass/fail line each.  The
pytest suite calls the same functions, so the CLI ``reproduce`` command and
``pytest tests/test_acceptance.py`` exercise identical code.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .corpus import complete4, corpus_models, pair2, triangle3
from .hamiltonian import (
    GRID_FORM,
    assemble_holstein_sector,
    assemble_lang_firsov_sector,
    assemble_nagaoka_projected,
    assemble_nagaoka_sector,
    assemble_radiation_sector,
    assemble_sector,
    peierls_kernel,
    peierls_unitary,
    photon_modes,
    riemann_kernel,
)
from .manybody import _csr, boson_basis
from .model import LatticeModel, PhononBlock, RadiationBlock
from .positivity import (
    SectorCertifier,
    diagonal_perturbation_equivalence,
    eigenvector_certificate,
    ergodicity_certificate,
    spin_lowering_positivity,
)
from .sector import connectivity_check, sector_magnetizations
from .spectral import eig_lowest, ground_report, resolvent_gaps

_SEED = 20240915


# ---------------------------------------------------------------------------
# experiment configurations used by several criteria
# ---------------------------------------------------------------------------

def holstein_model(base: LatticeModel, gamma: float, omega: float = 1.0,
                   cutoff: int = 2) -> LatticeModel:
    g = gamma * np.eye(base.sites)
    return LatticeModel(base.sites, base.hopping, onsite_u=base.onsite_u,
                        phonon=PhononBlock(coupling=g, frequency=omega,
                                           per_site_cutoff=cutoff))


def radiation_triangle(kappa: float, cutoff: int = 2) -> LatticeModel:
    """Triangle embedded on a line in a box of side 4; the first nonzero
    wave number is 2 pi / 4 ~ 1.571, so kappa = 1 keeps only the two k = 0
    modes while kappa = 1.8 admits the six shortest nonzero vectors."""
    base = triangle3()
    return LatticeModel(3, base.hopping,
                        radiation=RadiationBlock(box_length=4.0, uv_cutoff=kappa,
                                                 mass=1.0, photon_cutoff=cutoff))


def transverse_mode_subset(model: LatticeModel):
    """The (0, +-1, 0) wave vectors: transverse polarizations overlap the
    x-axis bonds, unlike the (+-1, 0, 0) pair, whose polarizations are
    perpendicular to every bond of the line-embedded lattice."""
    return [md for md in photon_modes(model) if md.nvec in ((0, 1, 0), (0, -1, 0))]


def connected_corpus() -> dict[str, LatticeModel]:
    """Corpus models whose sectors all pass the connectivity check."""
    out = {}
    for name, model in corpus_models().items():
        if all(connectivity_check(model, m).connected
               for m in sector_magnetizations(model.sites)):
            out[name] = model
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> str:
    """Maximal-spin unique ground multiplet on every all-sector-connected model."""
    models = connected_corpus()
    assert {"triangle3", "complete4", "square_diag4"} <= models.keys(), \
        f"expected the three guaranteed-connected models, got {sorted(models)}"
    lines = []
    for name, model in models.items():
        s_max = (model.sites - 1) / 2.0
        reports = [ground_report(assemble_nagaoka_sector(model, m))
                   for m in sector_magnetizations(model.sites)]
        energies = [r.ground_energy for r in reports]
        spread = max(energies) - min(energies)
        assert spread <= 1e-10, f"{name}: sector energies differ by {spread:.2e}"
        for r in reports:
            assert float(r.resolved_s) == s_max, \
                f"{name} M={r.m}: resolved S = {r.resolved_s}, want {s_max}"
            assert r.degeneracy == 1, f"{name} M={r.m}: degeneracy {r.degeneracy}"
            assert r.gap > 0.0, f"{name} M={r.m}: no gap above the ground state"
        assert len(reports) == model.sites, "multiplet size must equal the site count"
        lines.append(f"{name}: E={energies[0]:+.6f}, multiplet {len(reports)}, "
                     f"min gap {min(r.gap for r in reports):.4f}")
    return f"{len(models)} connected models ({', '.join(models)}); " + "; ".join(lines)


def criterion_2() -> str:
    """Connectivity failure detection and exact agreement of the ergodicity
    certificate with the BFS oracle on every (model, sector) pair.

    The open 3-chain has integer sectors only; its mixed-spin sector M = 0
    is the one that splits (the half-integer labels make sense for even
    site counts)."""
    chain = corpus_models()["chain3"]
    rep = connectivity_check(chain, 0)
    assert not rep.connected, "open 3-chain mixed sector must be disconnected"
    assert sorted(rep.orbit_sizes) == [3, 3], f"orbit sizes {rep.orbit_sizes}"
    pairs = 0
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites):
            bfs = connectivity_check(model, m).connected
            erg = ergodicity_certificate(assemble_nagaoka_sector(model, m))
            assert bfs == erg, f"{name} M={m}: BFS {bfs} vs ergodicity {erg}"
            pairs += 1
    return f"3-chain M=0 orbits {{3,3}}; ergodicity == BFS on all {pairs} sector pairs"


def criterion_3() -> str:
    """Entrywise equality of the two independent sector constructions."""
    worst = 0.0
    pairs = 0
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites):
            direct = assemble_nagaoka_sector(model, m).op.toarray()
            projected = assemble_nagaoka_projected(model, m).op.toarray()
            diff = float(np.max(np.abs(direct - projected))) if direct.size else 0.0
            assert diff <= 1e-12, f"{name} M={m}: routes differ by {diff:.2e}"
            worst = max(worst, diff)
            pairs += 1
    return f"direct == projected on {pairs} sector matrices, max entry diff {worst:.2e}"


def criterion_4() -> str:
    """Perron-Frobenius certificate on every connected sector."""
    checked = 0
    min_entries = []
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites):
            if not connectivity_check(model, m).connected:
                continue
            h = assemble_nagaoka_sector(model, m)
            cert = eigenvector_certificate(h)
            assert cert.offdiag_sign_ok, f"{name} M={m}: off-diagonal sign broken"
            assert cert.irreducible, f"{name} M={m}: reducible"
            assert cert.ground_unique and cert.ground_strictly_positive, \
                f"{name} M={m}: uniqueness/positivity failed"
            assert cert.min_entry > 1e-12
            min_entries.append(cert.min_entry)
            checked += 1
    return f"{checked} connected sectors certified, smallest ground entry {min(min_entries):.3e}"


def _ratio_law(model: LatticeModel, label: str, lines: list[str],
               ratio_us=(1e3, 1e4, 1e5, 1e6), check_tail=True) -> None:
    """Shared sweep: decreasing gap, halving ratios, and the 1e-4 tail."""
    us = sorted({1.0, 1e2, *ratio_us, *(2 * u for u in ratio_us)})
    delta = dict(zip(us, resolvent_gaps(model, us)[1]))
    if max(delta.values()) <= 1e-12:
        # U multiplies the zero operator (no double occupancy at this filling):
        # the limit holds exactly at every U and the ratio law is vacuous.
        lines.append(f"{label}: U-coupling inert, max delta {max(delta.values()):.1e} (exact limit)")
        return
    tail = [u for u in us if u >= 1e2]
    for lo, hi in zip(tail, tail[1:]):
        assert delta[hi] < delta[lo], \
            f"{label}: delta not decreasing between U={lo:g} and U={hi:g}"
    for u in ratio_us:
        ratio = delta[2 * u] / delta[u]
        assert 0.4 <= ratio <= 0.6, f"{label}: delta(2U)/delta(U) = {ratio:.3f} at U={u:g}"
    if check_tail:
        assert delta[1e6] <= 1e-4 * delta[1.0], \
            f"{label}: delta(1e6) = {delta[1e6]:.2e} vs 1e-4 * delta(1) = {1e-4 * delta[1.0]:.2e}"
    lines.append(f"{label}: delta(1)={delta[1.0]:.2e}, ratios "
                 + ", ".join(f"{delta[2 * u] / delta[u]:.3f}" for u in ratio_us))


def criterion_5() -> str:
    """Norm-resolvent convergence to the projected limit, with the O(1/U)
    ratio law wherever the U coupling acts.

    At one electron on two sites no configuration is doubly occupiable, so
    U multiplies the zero operator and the limit is exact at every U; the
    2-site rows assert that exactness.  The halving law gets its teeth from
    the 4-site model and from a 3-site phonon-coupled model."""
    lines: list[str] = []
    _ratio_law(complete4(), "complete4", lines)
    _ratio_law(pair2(), "pair2", lines)
    _ratio_law(holstein_model(pair2(), gamma=0.5, cutoff=4), "pair2+phonons(c=4)", lines)
    _ratio_law(holstein_model(triangle3(), gamma=0.4, cutoff=2),
               "triangle3+phonons(c=2)", lines, ratio_us=(1e3, 1e4), check_tail=False)
    return "; ".join(lines)


def criterion_6() -> str:
    """Doubly-occupied block energy floor E(H1) >= C + U across the corpus."""
    from .spectral import energy_split_bound

    rows = 0
    for name, model in corpus_models().items():
        for u in (0.0, 1.0, 10.0, 100.0, 1000.0):
            split = energy_split_bound(model, u)
            assert split.bound_ok, f"{name} U={u}: E(H1)={split.e_h1} < C+U={split.c_const + u}"
            rows += 1
    return f"bound holds on {rows} (model, U) pairs"


def criterion_7() -> str:
    """Phonon stability of the maximal-spin ground multiplet.

    The spin content is asserted for both assembly routes; the cutoff
    convergence guard runs on the polaron-frame form, whose truncation
    converges at the stated cutoffs (the displacement is rotated into
    hopping phases instead of boson occupations)."""
    base = complete4()
    guards = {0.25: 1e-4, 0.5: 1e-2, 1.0: 1e-2}
    lines = []
    for gamma, guard in guards.items():
        model = holstein_model(base, gamma)
        energies = {}
        for cutoff in (2, 3):
            for assemble in (assemble_lang_firsov_sector, assemble_holstein_sector):
                reports = [ground_report(assemble(model, m, cutoff=cutoff))
                           for m in sector_magnetizations(4)]
                for r in reports:
                    assert float(r.resolved_s) == 1.5, \
                        f"g={gamma} cutoff={cutoff}: S={r.resolved_s} in M={r.m}"
                    assert r.degeneracy == 1, f"g={gamma} cutoff={cutoff}: degeneracy in M={r.m}"
                spread = max(r.ground_energy for r in reports) - min(r.ground_energy for r in reports)
                assert spread <= 1e-8, f"g={gamma}: sector energy spread {spread:.2e}"
                if assemble is assemble_lang_firsov_sector:
                    energies[cutoff] = reports[0].ground_energy
        shift = abs(energies[3] - energies[2])
        assert shift <= guard, f"g={gamma}: cutoff 2->3 shift {shift:.3e} > {guard:g}"
        lines.append(f"g={gamma}: S=3/2 unique (both forms), polaron-frame shift {shift:.2e}")
    return "; ".join(lines)


def criterion_8() -> str:
    """Polaron-frame energies plus the recorded constant reconcile with the
    direct phonon form, with error shrinking monotonically as the cutoff
    doubles."""
    model = holstein_model(pair2(), gamma=0.5)
    diffs = []
    for cutoff in (2, 4, 8):
        direct = eig_lowest(assemble_holstein_sector(model, 0.5, cutoff=cutoff), 1)[0][0]
        frame = assemble_lang_firsov_sector(model, 0.5, cutoff=cutoff)
        rotated = eig_lowest(frame, 1)[0][0] + frame.dropped_constant
        diffs.append(abs(direct - rotated))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1], \
        f"reconciliation error not shrinking: {diffs}"
    return "cutoffs 2->4->8: |E_direct - (E_frame + const)| = " + \
        ", ".join(f"{d:.2e}" for d in diffs)


def criterion_9() -> str:
    """Spin-lowering sector matrices are entrywise {0, +1} everywhere."""
    pairs = 0
    for name, model in corpus_models().items():
        for m in sector_magnetizations(model.sites)[1:]:
            assert spin_lowering_positivity(model, m), f"{name} M={m}"
            pairs += 1
    return f"{pairs} adjacent sector pairs, all entries in {{0, +1}}"


def criterion_10() -> str:
    """Radiation stability at desk scale.

    With kappa below the first nonzero wave number the mode set is the two
    k = 0 pairs and the assembled spectrum must equal the bare spectrum plus
    the mass ladder exactly; the hopping-phase unitaries and the Riemann-sum
    kernel convergence are checked on a transverse mode subset (the full
    ball at the first shell has 14 modes, solved at cutoff 1 beyond the corpus)."""
    decoupled = radiation_triangle(kappa=1.0)
    modes = photon_modes(decoupled)
    assert len(modes) == 2, f"decoupled mode set has {len(modes)} pairs, want 2"
    lines = []
    for m in sector_magnetizations(3):
        h = assemble_radiation_sector(decoupled, m)
        rep = ground_report(h)
        assert float(rep.resolved_s) == 1.0, f"M={m}: S={rep.resolved_s}"
        assert rep.degeneracy == 1, f"M={m}: degeneracy {rep.degeneracy}"
        full = np.linalg.eigvalsh(h.op.toarray())
        electron = np.linalg.eigvalsh(assemble_nagaoka_sector(decoupled, m).op.toarray())
        cut = decoupled.radiation.photon_cutoff
        ladder = np.sort([e + decoupled.radiation.mass * (n1 + n2)
                          for e in electron
                          for n1 in range(cut + 1) for n2 in range(cut + 1)])
        mismatch = float(np.max(np.abs(full - ladder)))
        assert mismatch <= 1e-10, f"M={m}: decoupled spectrum off by {mismatch:.2e}"
        lines.append(f"M={m}: ladder exact ({mismatch:.1e})")

    coupled = radiation_triangle(kappa=1.8)
    sub = transverse_mode_subset(coupled)
    bosons = boson_basis(len(sub), 2)
    phase = _csr([peierls_unitary(coupled, sub, 0, 1, bosons)], bosons.dimension).toarray()
    unitarity = float(np.max(np.abs(phase.conj().T @ phase - np.eye(phase.shape[0]))))
    assert unitarity <= 1e-12, f"phase unitarity defect {unitarity:.2e}"

    reports = [ground_report(assemble_radiation_sector(coupled, m, cutoff=2, modes=sub))
               for m in sector_magnetizations(3)]
    for r in reports:
        assert float(r.resolved_s) == 1.0 and r.degeneracy == 1, \
            f"coupled M={r.m}: S={r.resolved_s}, deg={r.degeneracy}"
    spread = max(r.ground_energy for r in reports) - min(r.ground_energy for r in reports)
    assert spread <= 1e-9, f"coupled sector energies differ by {spread:.2e}"

    x = np.array([0.0, 0.0, 0.0])
    y = np.array([1.0, 0.5, -0.3])
    k = np.array([0.7, -1.2, 0.4])
    exact = peierls_kernel(x, y, k)
    errors = {n: abs(riemann_kernel(x, y, k, n) - exact) for n in (8, 16, 32, 64, 128)}
    for n in (8, 16, 32, 64):
        ratio = errors[2 * n] / errors[n]
        assert 0.375 <= ratio <= 0.625, f"kernel error ratio {ratio:.3f} at N={n}"
    lines.append(f"coupled S=1 (shifted E={reports[0].ground_energy:+.6f}), "
                 f"unitarity {unitarity:.1e}, kernel halving ok")
    return "; ".join(lines)


def criterion_11() -> str:
    """Random diagonal perturbations never change the ergodicity certificate."""
    rng = np.random.default_rng(_SEED)
    trials = 0
    for name, model in corpus_models().items():
        sectors = sector_magnetizations(model.sites)
        hams = {m: assemble_nagaoka_sector(model, m) for m in sectors}
        for _ in range(100):
            m = sectors[rng.integers(len(sectors))]
            scale = 10.0 ** rng.uniform(-2, 2)
            diag = scale * rng.standard_normal(hams[m].dimension)
            assert diagonal_perturbation_equivalence(hams[m], diag), \
                f"{name} M={m}: diagonal changed the certificate"
            trials += 1
    return f"{trials} random diagonal perturbations, certificate invariant"


def criterion_12() -> str:
    """Grid-basis positivity and cross-representation energy convergence.

    2-site phonon model with gamma = 0.5: the polaron displacement is
    sqrt(2)/2, taken as 6 (then 12) grid cells so refinement stays
    commensurate; the 64-point certificate must be strictly positive and the
    refined energy must land within 1e-3 of the cutoff-16 boson-basis value.
    The grids are certified as by ``certify --qgrid``: one solve each."""
    model = holstein_model(pair2(), gamma=0.5)
    reference = float(eig_lowest(assemble_holstein_sector(model, 0.5, cutoff=16), 1)[0][0])
    displacement = np.sqrt(2.0) * 0.5
    certs, errors = [], []
    for grid in ((64, displacement / 6), (128, displacement / 12)):
        h = assemble_sector(model, GRID_FORM, 0.5, grid)
        certs.append(SectorCertifier(model, GRID_FORM, grid)(h))
        errors.append(abs(certs[-1].ground_energy + h.dropped_constant - reference))
        assert certs[-1].ground_strictly_positive, \
            f"{grid[0]}-point ground vector not strictly positive (min {certs[-1].min_entry:.2e})"
    assert certs[0].offdiag_sign_ok and certs[0].irreducible
    err64, err128 = errors
    assert err128 <= 1e-3, f"refined grid energy off by {err128:.2e}"
    assert err128 < err64, f"refinement not converging: {err64:.2e} -> {err128:.2e}"
    return (f"min entry {certs[0].min_entry:.2e} at 64 points; "
            f"energy error {err64:.2e} -> {err128:.2e} vs cutoff-16 reference")


CRITERIA: dict[int, tuple[str, callable]] = {
    1: ("nagaoka-ground-multiplet", criterion_1),
    2: ("connectivity-detection", criterion_2),
    3: ("cross-construction-equality", criterion_3),
    4: ("perron-frobenius-certificates", criterion_4),
    5: ("norm-resolvent-limit", criterion_5),
    6: ("energy-split-bound", criterion_6),
    7: ("phonon-stability", criterion_7),
    8: ("polaron-frame-consistency", criterion_8),
    9: ("spin-lowering-positivity", criterion_9),
    10: ("radiation-stability", criterion_10),
    11: ("diagonal-perturbation-invariance", criterion_11),
    12: ("grid-positivity", criterion_12),
}

RUNTIME_LIMITS = {1: 10.0, 2: 1.0, 5: 60.0, 7: 300.0, 10: 120.0}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def run_criterion(number: int) -> CriterionResult:
    name, func = CRITERIA[number]
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except Exception as exc:  # noqa: BLE001 - any failure is a failed criterion
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    limit = RUNTIME_LIMITS.get(number)
    if passed and limit is not None and elapsed > limit:
        passed = False
        detail = f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget; {detail}"
    return CriterionResult(number=number, name=name, passed=passed,
                           detail=detail, seconds=elapsed)


def run_acceptance(numbers=None, stream=None) -> tuple[list[CriterionResult], bool]:
    """Run the requested criteria (all by default), printing one line each."""
    stream = stream or sys.stdout
    numbers = sorted(numbers) if numbers else sorted(CRITERIA)
    unknown = [n for n in numbers if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid: {sorted(CRITERIA)}")
    results = []
    for number in numbers:
        result = run_criterion(number)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} [{number:2d}] {result.name} ({result.seconds:.2f}s): {result.detail}",
              file=stream)
    all_passed = all(r.passed for r in results)
    print(f"{'ALL CRITERIA PASS' if all_passed else 'CRITERIA FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})", file=stream)
    return results, all_passed
