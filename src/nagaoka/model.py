"""Lattice model definition, validation, generation and file ingestion.

A model is valid when it satisfies the four conditions

    A.1  the hopping matrix t and the off-site Coulomb matrix U_xy are
         real symmetric,
    A.2  t_xy >= 0 entrywise,
    A.3  the electron number is N = |sites| - 1 (one hole; implicit, not
         stored),
    A.4  the electron-phonon coupling matrix g is real symmetric.

Every value is also finite: the matrices, the phonon frequency, the
radiation box, ball radius and mass, and the site positions (an infinite
on-site U is the one symbolic exception).

Site indices are 0-based integers in a fixed global order; that order is
used for all fermionic sign bookkeeping downstream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ModelParseError, ModelValidationError

#: Distinguished symbolic value for an infinite on-site repulsion.  The
#: infinite-U theory is built directly in the projected sector basis and
#: never approximated by a large float.
INFINITE = math.inf

#: Sector bases keep a configuration's up spins in an int64 word, so a
#: model has at most 63 sites.
MAX_SITES = 63

_SYM_TOL = 1e-12


def _as_square(a, n, what) -> np.ndarray:
    arr = np.array(a, dtype=float)  # copy: the model owns (and freezes) its matrices
    if arr.shape != (n, n):
        raise ModelValidationError("shape", f"{what} must be {n}x{n}, got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        x, y = bad[0]
        raise ModelValidationError("finite", f"{what} entry ({x}, {y}) = {arr[x, y]} is not finite")
    return arr


def _as_symmetric(a, n, what, condition) -> np.ndarray:
    arr = _as_square(a, n, what)
    bad = np.argwhere(np.abs(arr - arr.T) > _SYM_TOL)
    if bad.size:
        x, y = bad[0]
        raise ModelValidationError(condition, f"{what} asymmetric at ({x}, {y})")
    return arr


def _set_frozen(obj, name, arr: np.ndarray):
    """Freeze ``arr`` and set it as the field ``name`` of the frozen ``obj``."""
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _finite_positive(value: float, condition: str, what: str):
    if not (math.isfinite(value) and value > 0):
        raise ModelValidationError(condition, f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True, eq=False)
class PhononBlock:
    """Dispersionless local phonons linearly coupled to electron density."""

    coupling: np.ndarray          # g_xy, real symmetric
    frequency: float              # omega > 0
    per_site_cutoff: int = 2      # truncation of each local oscillator


@dataclass(frozen=True, eq=False)
class RadiationBlock:
    """Quantized radiation field in a box V = [-L/2, L/2]^3."""

    box_length: float             # L > 0
    uv_cutoff: float              # kappa > 0, ball radius for the mode set
    mass: float                   # m0 > 0, energy of the k = 0 modes
    photon_cutoff: int = 1        # per-mode occupation truncation
    site_positions: np.ndarray | None = None   # (sites, 3), inside V


@dataclass(frozen=True, eq=False)
class LatticeModel:
    """Single source of model truth; immutable after construction.

    ``onsite_u`` is either a finite float >= 0 or :data:`INFINITE`.
    """

    sites: int
    hopping: np.ndarray
    onsite_u: float = INFINITE
    offsite_u: np.ndarray | None = None
    phonon: PhononBlock | None = None
    radiation: RadiationBlock | None = None

    def __post_init__(self):
        if self.sites < 2:
            raise ModelValidationError("size", "need at least 2 sites")
        t = _as_symmetric(self.hopping, self.sites, "hopping", "A.1")
        neg = np.argwhere(t < -_SYM_TOL)
        if neg.size:
            x, y = neg[0]
            raise ModelValidationError("A.2", f"t[{x}, {y}] = {t[x, y]} < 0")
        _set_frozen(self, "hopping", t)

        if self.onsite_u != INFINITE:
            u = float(self.onsite_u)
            if not math.isfinite(u) or u < 0:
                raise ModelValidationError("U", f"onsite U must be >= 0 or INFINITE, got {u}")
            object.__setattr__(self, "onsite_u", u)

        uxy = self.offsite_u
        if uxy is None:
            uxy = np.zeros((self.sites, self.sites))
        uxy = _as_symmetric(uxy, self.sites, "offsite_u", "A.1")
        np.fill_diagonal(uxy, 0.0)  # diagonal of U_xy is ignored by definition
        _set_frozen(self, "offsite_u", uxy)

        if self.phonon is not None:
            ph = self.phonon
            g = _as_symmetric(ph.coupling, self.sites, "phonon coupling", "A.4")
            _finite_positive(ph.frequency, "phonon", "frequency")
            if ph.per_site_cutoff < 0:
                raise ModelValidationError("phonon", "per_site_cutoff must be >= 0")
            _set_frozen(ph, "coupling", g)

        if self.radiation is not None:
            rad = self.radiation
            for what in ("box_length", "uv_cutoff", "mass"):
                _finite_positive(getattr(rad, what), "radiation", what)
            if rad.photon_cutoff < 0:
                raise ModelValidationError("radiation", "photon_cutoff must be >= 0")
            pos = rad.site_positions
            if pos is None:
                # default embedding: integer points of a line through the box center
                off = (self.sites - 1) / 2.0
                pos = np.array([[j - off, 0.0, 0.0] for j in range(self.sites)])
            pos = np.asarray(pos, dtype=float)
            if pos.shape != (self.sites, 3):
                raise ModelValidationError(
                    "radiation", f"site_positions must be ({self.sites}, 3), got {pos.shape}")
            if not np.all(np.isfinite(pos)):
                raise ModelValidationError("radiation", "site_positions must be finite")
            half = rad.box_length / 2.0
            if np.any(np.abs(pos) > half + 1e-12):
                raise ModelValidationError("radiation", "site_positions outside the box V")
            _set_frozen(rad, "site_positions", pos)

    @property
    def n_electrons(self) -> int:
        """Electron count pinned by condition A.3."""
        return self.sites - 1

    @property
    def u_is_infinite(self) -> bool:
        return self.onsite_u == INFINITE


def generate_lattice(name: str, extent, t: float) -> np.ndarray:
    """Hopping matrix of a named graph family with amplitude t on edges.

    Supported names: chain, ring, complete, square_patch, triangular_patch.
    ``extent`` is a site count for the 1d families and an (nx, ny) pair for
    the patches.  Deterministic: identical inputs give identical matrices.
    """
    if not t > 0:
        raise ModelValidationError("A.2", f"edge amplitude must be > 0, got {t}")
    if isinstance(extent, int):
        dims = (extent,)
    else:
        dims = tuple(int(d) for d in extent)

    if name in ("chain", "ring", "complete"):
        if len(dims) != 1 or dims[0] < 2:
            raise ModelParseError(f"{name} needs a single extent >= 2, got {dims}")
        n = dims[0]
        edges = (combinations(range(n), 2) if name == "complete"
                 else ((i, (i + 1) % n) for i in range(n - (name == "chain"))))
    elif name in ("square_patch", "triangular_patch"):
        if len(dims) != 2 or min(dims) < 1 or dims[0] * dims[1] < 2:
            raise ModelParseError(f"{name} needs an nx x ny extent, got {dims}")
        nx, ny = dims
        n = nx * ny
        steps = [(1, 0), (0, 1)] + [(1, 1)] * (name == "triangular_patch")
        edges = ((i * ny + j, (i + di) * ny + j + dj)
                 for i in range(nx) for j in range(ny) for di, dj in steps
                 if i + di < nx and j + dj < ny)
    else:
        raise ModelParseError(f"unknown lattice family {name!r}")
    if n > MAX_SITES:           # before the n x n matrix is allocated
        raise ModelValidationError("size", f"{name} with extent {'x'.join(map(str, dims))} gives "
                                           f"{n} sites; models hold at most {MAX_SITES} sites")
    h = np.zeros((n, n))
    for x, y in edges:
        h[x, y] = h[y, x] = t
    return h


# ---------------------------------------------------------------------------
# model file format
#
# Structured text with [section] headers.  "key = value" lines set scalars;
# bare numeric rows are matrix triplets "x y value" (or "site px py pz" rows
# in [radiation] for positions).  Unspecified matrix entries are 0; triplets
# are mirrored to keep matrices symmetric, and conflicting mirror values are
# rejected.  Lines starting with '#' are comments.
# ---------------------------------------------------------------------------

_SECTIONS = ("lattice", "coulomb", "phonon", "radiation")


def _parse(text, where, cast=float):
    """``cast(text)``; a refusal names what was expected, a number or (for
    ``int``) an integer, and where."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ModelParseError(f"expected {kind} at {where}, got {text!r}") from None


def load_model(path) -> LatticeModel:
    """Parse and validate a model file.  See the README for the format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ModelParseError(f"file not found: {path}") from None

    scalars: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    rows: dict[str, list[tuple]] = {s: [] for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            section = m.group(1)
            if section not in _SECTIONS:
                raise ModelParseError(f"unknown section [{section}] at {where}")
            continue
        if section is None:
            raise ModelParseError(f"content before any [section] at {where}")
        if "=" in line:
            key, _, val = line.partition("=")
            scalars[section][key.strip()] = val.strip()
            continue
        toks = line.split()
        if len(toks) not in (3, 4):
            raise ModelParseError(f"expected 'x y value' row at {where}, got {line!r}")
        x = _parse(toks[0], where, int)
        if len(toks) == 3:
            y = _parse(toks[1], where, int)
            rows[section].append((x, y, _parse(toks[2], where), where))
        else:
            vec = tuple(_parse(v, where) for v in toks[1:])
            rows[section].append((x, vec, where))

    lat = scalars["lattice"]
    if "sites" not in lat:
        raise ModelParseError("[lattice] must declare sites")
    sites = _parse(lat["sites"], "[lattice] sites", int)
    if sites < 2:               # before any sites x sites matrix is allocated
        raise ModelValidationError("size", f"{sites} sites; models need at least 2 sites")
    if sites > MAX_SITES:
        raise ModelValidationError("size", f"{sites} sites; models hold at most {MAX_SITES} sites")

    if "generator" in lat:
        name = lat["generator"]
        extent_text = lat.get("extent", str(sites))
        dims = tuple(_parse(v, "[lattice] extent", int)
                     for v in re.split(r"[x,\s]+", extent_text.strip()) if v)
        extent = dims[0] if len(dims) == 1 else dims
        t = _parse(lat.get("t", "1.0"), "[lattice] t")
        hopping = generate_lattice(name, extent, t)
        if hopping.shape[0] != sites:
            raise ModelParseError(
                f"generator {name} with extent {extent_text} gives "
                f"{hopping.shape[0]} sites, but sites = {sites}")
    else:
        hopping = _triplets_to_matrix(rows["lattice"], sites, "hopping")

    u_text = scalars["coulomb"].get("u", "inf").lower()
    onsite_u = INFINITE if u_text in ("inf", "infinite") else _parse(u_text, "[coulomb] u")
    offsite = _triplets_to_matrix(rows["coulomb"], sites, "offsite_u") if rows["coulomb"] else None

    phonon = None
    if scalars["phonon"] or rows["phonon"]:
        ph = scalars["phonon"]
        if "omega" not in ph:
            raise ModelParseError("[phonon] must declare omega")
        phonon = PhononBlock(
            coupling=_triplets_to_matrix(rows["phonon"], sites, "coupling"),
            frequency=_parse(ph["omega"], "[phonon] omega"),
            per_site_cutoff=_parse(ph.get("cutoff", "2"), "[phonon] cutoff", int),
        )

    radiation = None
    if scalars["radiation"] or rows["radiation"]:
        rd = scalars["radiation"]
        for key in ("L", "kappa", "m0"):
            if key not in rd:
                raise ModelParseError(f"[radiation] must declare {key}")
        positions = None
        if rows["radiation"]:
            positions = np.zeros((sites, 3))
            seen = set()
            for *row, where in rows["radiation"]:
                if len(row) != 2:
                    raise ModelParseError(f"positions need 'site px py pz' rows ({where})")
                x, vec = row
                if not 0 <= x < sites:
                    raise ModelParseError(f"site {x} out of range at {where}")
                if x in seen:
                    raise ModelParseError(f"duplicate position for site {x} at {where}")
                seen.add(x)
                positions[x] = vec
            if len(seen) != sites:
                raise ModelParseError("positions given for some sites but not all")
        radiation = RadiationBlock(
            box_length=_parse(rd["L"], "[radiation] L"),
            uv_cutoff=_parse(rd["kappa"], "[radiation] kappa"),
            mass=_parse(rd["m0"], "[radiation] m0"),
            photon_cutoff=_parse(rd.get("cutoff", "1"), "[radiation] cutoff", int),
            site_positions=positions,
        )

    return LatticeModel(sites=sites, hopping=hopping, onsite_u=onsite_u,
                        offsite_u=offsite, phonon=phonon, radiation=radiation)


def _triplets_to_matrix(triplets, n, what) -> np.ndarray:
    mat = np.zeros((n, n))
    seen: dict[tuple, float] = {}
    for entry in triplets:
        if len(entry) != 4 or isinstance(entry[1], tuple):
            raise ModelParseError(f"{what} rows must be 'x y value' triplets")
        x, y, v, where = entry
        if not (0 <= x < n and 0 <= y < n):
            raise ModelParseError(f"{what} index ({x}, {y}) out of range at {where}")
        for key in ((x, y), (y, x)):
            if key in seen and abs(seen[key] - v) > _SYM_TOL:
                raise ModelParseError(
                    f"{what} entry {key} given twice with different values at {where}")
            seen[key] = v
        mat[x, y] = mat[y, x] = v
    return mat
