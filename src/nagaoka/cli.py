"""Command-line front end.

Subcommands: basis, connectivity, assemble, ed, spin, largeu, certify,
reproduce.  Structured results are JSON (CSV for the large-U sweep table);
for one BLAS build at one BLAS thread count the payload is a deterministic
function of (model digest, command), so repeated runs produce
byte-identical output (another thread count can move the last bits of a
dense eigensolve).  Wall-clock timing goes to stderr only.  Exit codes: 0
success, 1 validation/usage error or a path that cannot be opened, 2
numerical failure.

``assemble`` writes a JSON header, a ``rows cols nnz`` line and one
``row col re im`` line per stored entry, 1-based and row-major.  Each float
is Python's shortest round-trip ``repr``, formatted once per distinct bit
pattern of its column (so -0.0 keeps its sign), and each index once.

``--m`` takes a half-integer with |M| <= MAX_SITES/2 as a fraction, an
integer or a decimal; any other text exits 1 with one line that names
``--m``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np

from . import __version__
from .errors import (
    AmbiguousSpinError,
    ConvergenceError,
    DimensionBudgetError,
    InconsistencyError,
    ModelValidationError,
)
from .hamiltonian import (
    GRID_FORM,
    HOLE_FRAME_FORM,
    SECTOR_FORMS,
    assemble_hubbard_full,
    assemble_sector,
)
from .model import load_model
from .positivity import SectorCertifier
from .sector import as_half_integer, connectivity_check, enumerate_sector, sector_magnetizations
from .spectral import ground_report, resolvent_gaps, verified_spin_flip

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1 and reads a
    negative fraction such as -1/2, or a negative number with an exponent
    such as -1e308, as a value, as it reads -1 or -0.5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+/\d+$|^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _parse_m(text: str) -> Fraction:
    """The sector ``--m`` names, such as 1/2, -1 or 1.5.  A refusal names
    --m and echoes the text, shortened, never the number."""
    shown = text if len(text) <= 24 else text[:21] + "..."
    try:
        if "/" in text:
            m = Fraction(text)              # digits on both sides: no exponent
        else:
            value = Decimal(text)
            if not value.is_finite():
                raise ValueError
            # A magnitude of 1000 or more, or a nonzero one below 0.01, holds
            # no sector.  Such a value is replaced by one with the same
            # verdict, as the exact value of 1e-999999999 takes long to build.
            scale = value.adjusted() if value else 0
            m = Fraction(1000) if scale > 2 else Fraction(1, 3) if scale < -2 else Fraction(value)
    except (ValueError, ArithmeticError):
        raise ModelValidationError("cli", f"--m {shown!r} is not a number") from None
    try:
        return as_half_integer(m)
    except ValueError as exc:
        raise ModelValidationError("cli", f"--m {shown!r}: {exc}") from None


def _sectors(model, args) -> list[Fraction]:
    if getattr(args, "all", False):
        return sector_magnetizations(model.sites)
    if getattr(args, "m", None) is None:
        raise ModelValidationError("cli", "pass --m M or --all")
    return [_parse_m(args.m)]


def _model_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, results) -> dict:
    return {
        "command": " ".join(args.echo),
        "model_digest": _model_digest(args.model) if getattr(args, "model", None) else None,
        "version": __version__,
        "results": results,
    }


def _check_writable(path: str):
    """Raise now the OSError that opening ``path`` for writing would raise
    once the work is done, without creating or truncating the file."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit(args, text):
    """Write ``text``, a string or an iterable of strings, to ``--out`` as
    it is, or to stdout with a newline after any string that lacks one."""
    chunks = [text] if isinstance(text, str) else text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            print(chunk, end="" if chunk.endswith("\n") else "\n")


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names a non-integer "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _resolvent_z(text: str) -> complex | None:
    """``auto`` (None: the model picks z) or RE,IM with both parts finite
    and IM nonzero."""
    if text == "auto":
        return None
    re_s, _, im_s = text.partition(",")
    try:
        z = complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected auto or RE,IM, got {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"both parts must be finite, got {text!r}")
    if z.imag == 0:
        raise argparse.ArgumentTypeError(f"needs a nonzero imaginary part, got {text!r}")
    return z


def _u_list(text: str) -> list[float]:
    """Comma-separated finite U values; empty tokens are skipped."""
    us = []
    for tok in filter(None, text.split(",")):
        try:
            u = float(tok)
        except ValueError:
            u = math.nan
        if not math.isfinite(u):
            raise argparse.ArgumentTypeError(f"every U must be a finite number, got {tok!r}")
        us.append(u)
    if not us:
        raise argparse.ArgumentTypeError("no U values given")
    return us


def _criteria(text: str) -> list[int]:
    """Comma-separated acceptance criteria, ascending, each once; empty
    tokens are skipped."""
    from .acceptance import CRITERIA

    numbers = set()
    for tok in filter(None, text.split(",")):
        try:
            number = int(tok)
        except ValueError:
            number = None
        if number not in CRITERIA:
            raise argparse.ArgumentTypeError(
                f"unknown criterion {tok!r}; valid: {', '.join(map(str, sorted(CRITERIA)))}")
        numbers.add(number)
    if not numbers:
        raise argparse.ArgumentTypeError("no criteria given")
    return sorted(numbers)


def _workers(jobs: int, tasks: int) -> int:
    return min(jobs, tasks, os.cpu_count() or 1)


def _map_jobs(fn, payloads, jobs: int) -> list:
    """``fn`` over ``payloads`` in order, on min(jobs, tasks, cpus) workers."""
    workers = _workers(jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(payload) for payload in payloads]


def _pick_form(model) -> str:
    """The form a model's blocks call for; never one that drops a block."""
    if model.radiation is not None and model.phonon is not None:
        raise ModelValidationError("cli", "the model has both a [phonon] and a [radiation] "
                                          "block, and every form drops one; pass --form")
    if model.radiation is not None:
        return "radiation"
    if model.phonon is not None:
        return "holstein"
    return "nagaoka"


def _refuse_ignored_options(args, form: str):
    """Exit 1, naming the option, where ``form`` would ignore it."""
    hubbard = form == "hubbard"
    for option, ignored in (("cutoff", hubbard or form == "nagaoka"), ("u", not hubbard),
                            ("m", hubbard)):
        if ignored and getattr(args, option, None) is not None:
            raise ModelValidationError("cli", f"--{option} does not apply to the {form} form")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_basis(args) -> int:
    model = load_model(args.model)
    rows = []
    for m in _sectors(model, args):
        basis = enumerate_sector(model, m)
        row = {"m": str(basis.m), "dimension": basis.dimension}
        if args.list:
            row["configs"] = [{"hole": h, "up_mask": u}
                              for h, u in zip(basis.holes.tolist(), basis.masks.tolist())]
        rows.append(row)
    _emit(args, json.dumps(_report(args, rows), indent=2))
    return EXIT_OK


def _cmd_connectivity(args) -> int:
    model = load_model(args.model)
    rows = []
    for m in _sectors(model, args):
        rep = connectivity_check(model, m)
        rows.append({"m": str(rep.m), "dimension": rep.dimension,
                     "connected": rep.connected,
                     "orbit_sizes": list(rep.orbit_sizes)})
    _emit(args, json.dumps(_report(args, rows), indent=2))
    return EXIT_OK


#: Triplet rows ``assemble`` formats and writes at a time, which bounds the
#: export's own memory by a block, not by the stored entries.
_EXPORT_BLOCK = 65_536


def _reprs(column: np.ndarray) -> list[str]:
    """``repr`` of every float of ``column``, formatted once per distinct
    bit pattern.  The keys are bits, not values: -0.0 == 0.0, but the two
    print apart."""
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    table = np.array([repr(x) for x in keys.view(np.float64).tolist()], dtype=object)
    return table[inverse].tolist()


def _cmd_assemble(args) -> int:
    _refuse_ignored_options(args, args.form)
    model = load_model(args.model)
    if args.form == "hubbard":
        u = model.onsite_u if args.u is None else float(args.u)
        if not math.isfinite(u):
            raise ModelValidationError(
                "cli", "full-space assembly needs a finite U (pass --u)")
        op = assemble_hubbard_full(model, u)
        header = {"form": "hubbard", "u": u, "dimension": op.dimension,
                  "provenance": "full_space", "dropped_constant": 0.0}
    else:
        m = _parse_m(args.m) if args.m is not None else sector_magnetizations(model.sites)[-1]
        sector_h = assemble_sector(model, args.form, m, args.cutoff)
        op = sector_h.op
        header = {"form": args.form, "m": str(sector_h.m),
                  "dimension": op.dimension, "provenance": sector_h.provenance,
                  "dropped_constant": sector_h.dropped_constant,
                  "cutoff": sector_h.cutoff}
    header.update(_report(args, None))
    header.pop("results")
    coo = op.matrix.tocoo()      # canonical CSR: row-major, columns sorted
    index = np.array([str(i) for i in range(1, op.dimension + 1)], dtype=object)

    def blocks():
        yield f"{json.dumps(header)}\n{op.shape[0]} {op.shape[1]} {coo.nnz}\n"
        for start in range(0, coo.nnz, _EXPORT_BLOCK):
            part = slice(start, start + _EXPORT_BLOCK)
            yield "\n".join(map(" ".join, zip(
                index[coo.row[part]].tolist(), index[coo.col[part]].tolist(),
                _reprs(coo.data.real[part]), _reprs(coo.data.imag[part])))) + "\n"

    _emit(args, blocks())
    return EXIT_OK


def _sector_jobs(model, form: str, ms, cutoff) -> list[tuple]:
    """One job per |M| requested: it solves sector |M| >= 0 and reports it
    under each requested label, +|M| and -|M|.  Jobs run in the order of
    the lowest label each reports, so the first failure is the one a
    sector-by-sector run in ascending M meets first."""
    labels = {}
    for m in sorted(ms):
        labels.setdefault(abs(m), []).append(m)
    return [(model, form, m, cutoff, tuple(reported)) for m, reported in labels.items()]


def _solve_job(fields, certifier, payload) -> list[tuple]:
    """(label, row) for each label of one job of ``_sector_jobs``, the row
    being ``fields(certifier, H)`` of sector |M| with ``m`` set to the
    label.  A label -M is reported only once the assembled H(-M) is
    verified to be the exact spin flip of H(M), before M is solved."""
    model, form, m, cutoff, labels = payload
    h = assemble_sector(model, form, m, cutoff)
    if labels[0] < 0:
        verified_spin_flip(h, assemble_sector(model, form, -m, cutoff))
    row = fields(certifier, h)
    return [(label, {**row, "m": str(label)}) for label in labels]


def _sector_rows(model, form: str, ms, cutoff, fields, jobs: int = 1) -> list[dict]:
    """The rows of the sectors ``ms``, ascending in M, from one job per
    |M| of ``_sector_jobs`` on ``jobs`` workers.  The jobs
    share one ``SectorCertifier``, so in one process the polarized sector
    is assembled and solved once; a worker process starts from an empty
    copy, and solves it in the same way."""
    solve = partial(_solve_job, fields, SectorCertifier(model, form, cutoff))
    batches = _map_jobs(solve, _sector_jobs(model, form, ms, cutoff), jobs)
    rows = sorted((kv for batch in batches for kv in batch), key=lambda kv: kv[0])
    return [row for _, row in rows]


def _ed_fields(certifier, h) -> dict:
    """The ``SpectralReport`` of sector ``h`` as a row, solved by
    ``ground_report`` unless Nagaoka's theorem saves the solve
    (``SectorCertifier.report``)."""
    rep = certifier.report(h) or ground_report(h)
    return {**dataclasses.asdict(rep), "resolved_s": str(rep.resolved_s)}


def _ed_rows(args) -> list[dict]:
    """Spectral rows of the requested sectors, ascending in M.  The
    Lang-Firsov form is solved in its hole-displaced basis
    (``HOLE_FRAME_FORM``): the same spectrum and total spin from several
    times fewer stored entries."""
    model = load_model(args.model)
    form = args.form or _pick_form(model)
    _refuse_ignored_options(args, form)
    form = HOLE_FRAME_FORM if form == "langfirsov" else form
    return _sector_rows(model, form, _sectors(model, args), args.cutoff, _ed_fields, args.jobs)


def _cmd_ed(args) -> int:
    _emit(args, json.dumps(_report(args, _ed_rows(args)), indent=2))
    return EXIT_OK


def _cmd_spin(args) -> int:
    lines = [f"{'M':>6} {'dim':>6} {'E0':>22} {'deg':>4} {'gap':>12} {'S':>5}"]
    for row in _ed_rows(args):
        lines.append(f"{row['m']:>6} {row['dimension']:>6} {row['ground_energy']:>22.15f} "
                     f"{row['degeneracy']:>4} {row['gap']:>12.6e} {row['resolved_s']:>5}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _largeu_job(payload):
    return resolvent_gaps(*payload)


def _cmd_largeu(args) -> int:
    """One ``resolvent_gaps`` sweep per worker over a contiguous chunk of
    the U list, so the U-independent pieces are built once per worker."""
    model, us = load_model(args.model), args.u_list
    workers = _workers(args.jobs, len(us))
    bounds = [len(us) * k // workers for k in range(workers + 1)]
    sweeps = _map_jobs(_largeu_job, [(model, us[lo:hi], args.z)
                                     for lo, hi in zip(bounds, bounds[1:])], args.jobs)
    z = sweeps[0][0]
    pairs = sorted(zip(us, (delta for _, deltas in sweeps for delta in deltas)),
                   key=lambda kv: kv[0])
    print(f"# command={' '.join(args.echo)} digest={_model_digest(args.model)} "
          f"z={z.real!r},{z.imag!r}", file=sys.stderr)
    lines = ["u,delta,delta_times_u"]
    for u, delta in pairs:
        lines.append(f"{u!r},{delta!r},{u * delta!r}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _certify_fields(certifier, h) -> dict:
    """The certificate of sector ``h`` as a row; a grid row adds the ground
    energy, the dropped constant and the grid."""
    cert = certifier(h)
    row = {"m": h.m, "basis": cert.basis_tag, "offdiag_sign_ok": cert.offdiag_sign_ok,
           "irreducible": cert.irreducible, "ground_unique": cert.ground_unique,
           "ground_strictly_positive": cert.ground_strictly_positive,
           "min_entry": cert.min_entry}
    if certifier.form == GRID_FORM:
        points, spacing = certifier.cutoff
        row.update(ground_energy=cert.ground_energy, dropped_constant=h.dropped_constant,
                   points=points, spacing=spacing)
    return row


def _cmd_certify(args) -> int:
    """Certificates per sector, ascending in M.  The sectors of ``--form``
    (by default by model content, as in ``ed``), or of the polaron frame on
    the grid ``--qgrid`` by ``--spacing`` (then no ``--form`` or
    ``--cutoff``), go through ``_sector_rows`` as in ``ed``, and one
    ``SectorCertifier`` certifies each solved sector M >= 0, by Nagaoka's
    theorem in the form's gauge where its hypotheses hold: -M is certified
    by M's certificate once ``verified_spin_flip`` holds."""
    if (args.qgrid is None) != (args.spacing is None):
        raise ModelValidationError(
            "cli", "--spacing needs --qgrid" if args.qgrid is None else "--qgrid needs --spacing")
    grid = args.qgrid is not None
    for option in ("form", "cutoff") if grid else ():
        if getattr(args, option) is not None:
            raise ModelValidationError("cli", f"--{option} does not apply to --qgrid")
    model = load_model(args.model)
    ms = _sectors(model, args)
    form, cutoff = ((GRID_FORM, (args.qgrid, args.spacing)) if grid
                    else (args.form or _pick_form(model), args.cutoff))
    _refuse_ignored_options(args, form)
    rows = _sector_rows(model, form, ms, cutoff, _certify_fields)
    _emit(args, json.dumps(_report(args, rows), indent=2))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .acceptance import run_acceptance

    results, ok = run_acceptance(args.criteria, stream=sys.stdout)
    if args.out:
        rows = [{"criterion": r.number, "name": r.name, "passed": r.passed,
                 "detail": r.detail} for r in results]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"version": __version__, "results": rows, "all_passed": ok}, fh, indent=2)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------

_PROG = "nagaoka"

#: Each subcommand and its help line, in the order ``nagaoka -h`` lists them.
_COMMANDS = {
    "basis": "sector dimensions and configurations",
    "connectivity": "orbit decomposition per sector",
    "assemble": "emit a Hamiltonian as sparse triplets",
    "ed": "ground-state reports per sector",
    "spin": "per-sector total-spin table",
    "largeu": "resolvent distance sweep over U",
    "certify": "positivity certificates per sector",
    "reproduce": "run the acceptance pipeline",
}


def _common(p, model=True, sector=True, cutoff=False, form=False, jobs=False):
    if model:
        p.add_argument("--model", required=True, help="model file path")
    if sector:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--m", help="half-integer sector, e.g. 1/2 or -1")
        group.add_argument("--all", action="store_true", help="every sector")
    if cutoff:
        p.add_argument("--cutoff", type=_int_at_least(0), default=None,
                       help="per-mode boson cutoff override")
    if form:
        p.add_argument("--form", choices=list(SECTOR_FORMS), default=None,
                       help="Hamiltonian form (default: by model content)")
    p.add_argument("--out", default=None, help="write the payload to a file")
    if jobs:
        p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="parallel workers (>= 1; capped at the task and CPU counts)")


def _add_options(p: _Parser, command: str) -> None:
    """The options of subcommand ``command``, and its ``func``."""
    if command == "basis":
        _common(p)
        p.add_argument("--list", action="store_true", help="include the configuration list")
        p.set_defaults(func=_cmd_basis)
    elif command == "connectivity":
        _common(p)
        p.set_defaults(func=_cmd_connectivity)
    elif command == "assemble":
        _common(p, sector=False, cutoff=True)
        p.add_argument("--m", default=None, help="sector (default: fully polarized)")
        p.add_argument("--form", required=True, choices=["hubbard", *SECTOR_FORMS])
        p.add_argument("--u", type=float, default=None, help="finite U for --form hubbard")
        p.set_defaults(func=_cmd_assemble)
    elif command == "ed":
        _common(p, cutoff=True, form=True, jobs=True)
        p.set_defaults(func=_cmd_ed)
    elif command == "spin":
        _common(p, sector=False, cutoff=True, form=True, jobs=True)
        p.set_defaults(func=_cmd_spin, all=True)      # every sector
    elif command == "largeu":
        _common(p, sector=False, jobs=True)
        p.add_argument("--u-list", type=_u_list, required=True,
                       help="comma-separated finite U values")
        p.add_argument("--z", type=_resolvent_z, default="auto",
                       help="auto or RE,IM (finite, IM nonzero)")
        p.set_defaults(func=_cmd_largeu)
    elif command == "certify":
        _common(p, cutoff=True, form=True)
        p.add_argument("--qgrid", type=_int_at_least(1), default=None,
                       help="grid points per mode (>= 1)")
        p.add_argument("--spacing", type=_positive_float, default=None,
                       help="grid spacing (finite, > 0)")
        p.set_defaults(func=_cmd_certify)
    else:                                          # reproduce
        p.add_argument("--criteria", type=_criteria, default=None,
                       help="comma-separated subset, e.g. 1,3,9")
        p.add_argument("--out", default=None, help="write a JSON summary")
        p.set_defaults(func=_cmd_reproduce)


def build_parser() -> _Parser:
    parser = _Parser(prog=_PROG,
                     description="exact-diagonalization laboratory for one-hole "
                                 "ferromagnetism in Hubbard-type models")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, help_line in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as ``build_parser()`` parses it.  The tree hands all
    that follows a subcommand to that subcommand's parser, so a call that
    names one builds that parser alone, not eight; the tree is built for
    anything else (``-h``, no or an unknown subcommand) and when arguments
    are left over, so that every message is the tree's own."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"{_PROG} {argv[0]}")
        _add_options(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.subcommand = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.echo = ["nagaoka", *argv]
    start = time.perf_counter()
    try:
        if getattr(args, "out", None):
            _check_writable(args.out)
        code = args.func(args)
    except ValueError as exc:
        # covers ModelParseError/ModelValidationError and sector-range errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, InconsistencyError, AmbiguousSpinError,
            DimensionBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the whole payload was written", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # BrokenPipeError is one, so this clause follows its own.  Only an
        # error on a path, such as an --out that is a directory, is the
        # caller's to mend; any other (a process pool that cannot start) is not
        if exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"# wall time {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
