"""Output oracles of the benchmark, independent of the code under test.

Physics fields are compared with tolerances, structural fields exactly, so a
legitimate last-bit change in an energy is not counted as a failure.  Each
check raises :class:`OracleError` naming what is wrong.  The references are
theorems or acceptance criteria of the lab, recomputed here with numpy:

* Tasaki's theorem: on a connected one-hole model the maximal-spin multiplet
  is the unique ground state of every sector, with the energy of the fully
  polarized sector (one hole hopping with -t);
* criterion 5: the resolvent distance decreases in U and halves as U doubles;
* criterion 7: the phonon-dressed ground multiplet keeps S = 3/2, unique;
* criterion 10: decoupled radiation leaves the bare ground energy unchanged;
* second routes: exported triplets rebuild the matrix whose spectrum the
  ``ed`` command reported, or a Hubbard matrix built here from scratch.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

CLUSTER_TOL = 1e-8
SPIN_TOL = 1e-6
MIN_ENTRY = 1e-12


class OracleError(AssertionError):
    """An operation's output contradicts its oracle."""


def _require(cond, message: str):
    if not cond:
        raise OracleError(message)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * (1.0 + abs(ref))


def _n_up(sites: int, m: Fraction) -> int:
    return (sites - 1 + int(2 * m)) // 2


def sector_dimension(sites: int, m: Fraction) -> int:
    return sites * comb(sites - 1, _n_up(sites, m))


def _results(text: str) -> list[dict]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"payload is not JSON: {exc}") from None
    _require(isinstance(payload, dict) and isinstance(payload.get("results"), list),
             "payload has no results list")
    return payload["results"]


def _sector_list(rows, sectors):
    got = [row.get("m") for row in rows]
    want = [str(Fraction(m)) for m in sectors]
    _require(got == want, f"sectors {got} != {want}")


# ---------------------------------------------------------------------------
# spectral reports
# ---------------------------------------------------------------------------

def spectral_rows(text: str, *, sites: int, sectors, spin: Fraction, energy: float | None = None,
                  boson_dim: int | None = None, cutoff: int | None = None,
                  energy_tol: float = CLUSTER_TOL) -> list[float]:
    """``ed`` rows: unique ground multiplet of spin ``spin`` in every sector,
    equal energies across sectors, exact dimensions."""
    rows = _results(text)
    _sector_list(rows, sectors)
    energies = []
    for row, m in zip(rows, sectors):
        where = f"M={row['m']}"
        sector_dim = sector_dimension(sites, Fraction(m))
        _require(row["sector_dimension"] == sector_dim,
                 f"{where}: sector dimension {row['sector_dimension']} != {sector_dim}")
        _require(row["boson_dimension"] == boson_dim,
                 f"{where}: boson dimension {row['boson_dimension']} != {boson_dim}")
        _require(row["cutoff"] == cutoff, f"{where}: cutoff {row['cutoff']} != {cutoff}")
        _require(row["dimension"] == sector_dim * (boson_dim or 1),
                 f"{where}: dimension {row['dimension']}")
        _require(row["degeneracy"] == 1, f"{where}: degeneracy {row['degeneracy']} != 1")
        _require(row["resolved_s"] == str(spin), f"{where}: S = {row['resolved_s']} != {spin}")
        s_s1 = float(spin * (spin + 1))
        _require(abs(row["stot2_expectation"] - s_s1) <= SPIN_TOL,
                 f"{where}: <S^2> = {row['stot2_expectation']} != {s_s1}")
        e0 = row["ground_energy"]
        _require(np.isfinite(e0), f"{where}: ground energy {e0}")
        _require(row["gap"] > CLUSTER_TOL * (1.0 + abs(e0)), f"{where}: gap {row['gap']}")
        if energy is not None:
            _require(_close(e0, energy, energy_tol),
                     f"{where}: E0 = {e0!r}, reference {energy!r}")
        energies.append(e0)
    spread = max(energies) - min(energies)
    _require(spread <= CLUSTER_TOL * (1.0 + abs(energies[0])),
             f"sector energies spread by {spread:.3e}")
    return energies


def equal_ground_energies(*texts: str):
    """Ground energies from several ``ed`` payloads agree (SU(2) multiplet)."""
    energies = [row["ground_energy"] for text in texts for row in _results(text)]
    spread = max(energies) - min(energies)
    _require(spread <= CLUSTER_TOL * (1.0 + abs(energies[0])),
             f"sector energies spread by {spread:.3e}")


def certificates(text: str, *, sectors):
    """``certify`` rows: every Perron-Frobenius field true, ground vector
    strictly positive."""
    rows = _results(text)
    _sector_list(rows, sectors)
    for row in rows:
        where = f"M={row['m']}"
        _require(row["basis"] == "configuration", f"{where}: basis {row['basis']}")
        for key in ("offdiag_sign_ok", "irreducible", "ground_unique",
                    "ground_strictly_positive"):
            _require(row[key] is True, f"{where}: {key} = {row[key]}")
        _require(MIN_ENTRY < row["min_entry"] <= 1.0, f"{where}: min_entry {row['min_entry']}")


# ---------------------------------------------------------------------------
# configuration space
# ---------------------------------------------------------------------------

def sector_configs(sites: int, m: Fraction) -> list[tuple[int, int]]:
    """(hole, up_mask) pairs of a sector in canonical (lexicographic) order."""
    n_up = _n_up(sites, m)
    out = []
    for hole in range(sites):
        others = [z for z in range(sites) if z != hole]
        for ups in combinations(others, n_up):
            out.append((hole, sum(1 << z for z in ups)))
    return sorted(out)


def orbit_sizes(sites: int, edges, m: Fraction) -> list[int]:
    """Orbit sizes of the hole-move graph, orbits ordered by smallest index."""
    configs = sector_configs(sites, m)
    index = {c: i for i, c in enumerate(configs)}
    nbrs = {x: [] for x in range(sites)}
    for x, y in edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    seen = [False] * len(configs)
    sizes = []
    for start in range(len(configs)):
        if seen[start]:
            continue
        seen[start] = True
        queue, size = deque([start]), 0
        while queue:
            hole, mask = configs[queue.popleft()]
            size += 1
            for y in nbrs[hole]:
                moved = mask
                if mask >> y & 1:        # the up spin at y backfills the old hole
                    moved = (mask ^ (1 << y)) | (1 << hole)
                j = index[(y, moved)]
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        sizes.append(size)
    return sizes


def connectivity(text: str, *, sites: int, edges, sectors):
    """``connectivity``: orbit sizes from an independent BFS."""
    rows = _results(text)
    _sector_list(rows, sectors)
    for row, m in zip(rows, sectors):
        m = Fraction(m)
        sizes = orbit_sizes(sites, edges, m)
        _require(row["orbit_sizes"] == sizes, f"M={m}: orbits {row['orbit_sizes']} != {sizes}")
        _require(row["dimension"] == sum(sizes), f"M={m}: dimension {row['dimension']}")
        _require(row["connected"] is (len(sizes) == 1), f"M={m}: connected {row['connected']}")


# ---------------------------------------------------------------------------
# exported triplets
# ---------------------------------------------------------------------------

def parse_triplets(text: str) -> tuple[dict, np.ndarray]:
    """Header and dense matrix of an ``assemble`` payload; checks the count
    line, the 1-based index range and the row-major order."""
    lines = text.splitlines()
    _require(len(lines) >= 2, "assemble payload too short")
    try:
        header = json.loads(lines[0])
        rows, cols, nnz = (int(v) for v in lines[1].split())
        data = np.array([ln.split() for ln in lines[2:]], dtype=float).reshape(-1, 4)
    except ValueError as exc:
        raise OracleError(f"malformed assemble payload: {exc}") from None
    _require(rows == cols == header.get("dimension"), f"shape {rows}x{cols} vs header")
    _require(data.shape[0] == nnz, f"{data.shape[0]} triplets, count line says {nnz}")
    r, c = data[:, 0].astype(int) - 1, data[:, 1].astype(int) - 1
    _require(np.all((r >= 0) & (r < rows) & (c >= 0) & (c < cols)), "triplet index out of range")
    key = r * cols + c
    _require(np.all(np.diff(key) > 0), "triplets not in strict row-major order")
    mat = np.zeros((rows, cols), dtype=complex)
    mat[r, c] = data[:, 2] + 1j * data[:, 3]
    return header, mat


def _hermitian(mat: np.ndarray):
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    defect = float(np.abs(mat - mat.conj().T).max(initial=0.0))
    _require(defect <= 1e-12 * scale, f"rebuilt matrix not Hermitian (defect {defect:.3e})")


def langfirsov_export(text: str, ed_text: str, *, dimension: int):
    """Second route: the exported polaron-frame matrix is Hermitian and its
    lowest eigenvalue is the energy ``ed`` reported for the same sector."""
    header, mat = parse_triplets(text)
    _require(header.get("form") == "langfirsov" and header.get("dimension") == dimension,
             f"header {header.get('form')} {header.get('dimension')}")
    _hermitian(mat)
    lowest = float(np.linalg.eigvalsh(mat)[0])
    (row,) = _results(ed_text)
    _require(header.get("m") == row["m"], f"export sector {header.get('m')} vs ed {row['m']}")
    _require(_close(lowest, row["ground_energy"], CLUSTER_TOL),
             f"rebuilt lowest eigenvalue {lowest!r} vs ed {row['ground_energy']!r}")


def hubbard_matrix(hopping: np.ndarray, u: float) -> np.ndarray:
    """H = sum t_xy c*_x,s c_y,s + U sum n_up n_down at N = sites - 1 electrons,
    built from scratch in this module's own mode order and sign convention."""
    sites = hopping.shape[0]
    modes = 2 * sites
    states = [w for w in range(1 << modes) if w.bit_count() == sites - 1]
    index = {w: i for i, w in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for j, w in enumerate(states):
        for x in range(sites):
            h[j, j] += u * ((w >> x & 1) & (w >> (x + sites) & 1))
        for s in (0, sites):
            for x in range(sites):
                for y in range(sites):
                    t = hopping[x, y]
                    a, c = y + s, x + s
                    if t == 0.0 or not w >> a & 1:
                        continue
                    w1 = w ^ (1 << a)
                    if w1 >> c & 1:
                        continue
                    sign = (-1) ** ((w & ((1 << a) - 1)).bit_count()
                                    + (w1 & ((1 << c) - 1)).bit_count())
                    h[index[w1 | (1 << c)], j] += sign * t
    return h


def hubbard_export(text: str, hopping: np.ndarray, u: float):
    """Finite-U export: Hermitian, with the spectrum of an independently
    built Hubbard matrix."""
    header, mat = parse_triplets(text)
    sites = hopping.shape[0]
    _require(header.get("form") == "hubbard" and header.get("u") == u, "hubbard header")
    _require(header.get("dimension") == comb(2 * sites, sites - 1),
             f"dimension {header.get('dimension')}")
    _hermitian(mat)
    got = np.linalg.eigvalsh(mat)
    want = np.linalg.eigvalsh(hubbard_matrix(hopping, u))
    worst = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    _require(worst <= 1e-10, f"Hubbard spectrum off by {worst:.3e}")


# ---------------------------------------------------------------------------
# large-U sweep
# ---------------------------------------------------------------------------

def largeu_table(text: str, us):
    """``largeu`` CSV: the requested U list, delta*U consistent, and the
    criterion-5 law (delta decreasing for U >= 100, delta(2U)/delta(U) in
    [0.4, 0.6] for U >= 1000)."""
    lines = text.strip().splitlines()
    _require(lines and lines[0] == "u,delta,delta_times_u", "largeu header")
    try:
        table = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise OracleError(f"malformed largeu row: {exc}") from None
    _require([row[0] for row in table] == sorted(us), f"U list {[row[0] for row in table]}")
    delta = {}
    for u, d, du in table:
        _require(np.isfinite(d) and d >= 0.0, f"U={u:g}: delta {d}")
        _require(_close(du, u * d, 1e-12), f"U={u:g}: delta_times_u {du!r} != {u * d!r}")
        delta[u] = d
    tail = [u for u in sorted(delta) if u >= 1e2]
    for lo, hi in zip(tail, tail[1:]):
        _require(delta[hi] < delta[lo], f"delta not decreasing between U={lo:g} and U={hi:g}")
    for u in tail:
        if u >= 1e3 and 2 * u in delta:
            ratio = delta[2 * u] / delta[u]
            _require(0.4 <= ratio <= 0.6, f"delta(2U)/delta(U) = {ratio:.3f} at U={u:g}")
