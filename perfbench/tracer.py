"""Outside-in tracer for the traced benchmark run.

Wraps the public functions of the lab's layer modules without touching the
package source.  A function imported by name into another module (for
example ``cli.ground_report`` or ``spectral.sector_spin_squared``) is
patched in every namespace that holds it, otherwise those calls would go
unseen.  Spans (function, start, end, parent, operation id) stay in memory;
``layer_metrics`` turns one pass's spans into per-layer numbers, and
``write_spans`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("model", "sector", "manybody", "hamiltonian", "spectral", "positivity", "cli")
PACKAGE = "nagaoka"

# stage name -> functions whose outermost spans make up the stage (inclusive time)
STAGES = {
    "sector.enumerate": ("sector.enumerate_sector",),
    "sector.bfs": ("sector.configuration_graph", "sector.connectivity_check",
                   "sector.find_connector"),
    "manybody.spin": ("manybody.sector_spin_squared", "manybody.sector_lowering",
                      "manybody.build_spin_ops"),
    "hamiltonian.nagaoka": ("hamiltonian.assemble_nagaoka_sector",
                            "hamiltonian.assemble_nagaoka_projected"),
    "hamiltonian.holstein": ("hamiltonian.assemble_holstein_sector",),
    "hamiltonian.langfirsov": ("hamiltonian.assemble_lang_firsov_sector",),
    "hamiltonian.radiation": ("hamiltonian.assemble_radiation_sector",),
    "hamiltonian.hubbard": ("hamiltonian.assemble_hubbard_full",
                            "hamiltonian.hubbard_electron_matrix"),
    "spectral.eig": ("spectral.eig_lowest",),
    "spectral.norm": ("spectral.operator_norm",),
    "positivity.pf": ("positivity.pf_certificate",),
    "positivity.ergodicity": ("positivity.ergodicity_certificate",),
}
ASSEMBLY = frozenset(f for stage, fns in STAGES.items()
                     if stage.startswith("hamiltonian.") for f in fns)


@dataclass
class Span:
    name: str                 # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    info: dict = field(default_factory=dict)


def _dimension(obj):
    dim = getattr(obj, "dimension", None)
    if isinstance(dim, int):
        return dim
    return int(obj.shape[0])


def _csr(obj):
    """The CSR matrix behind an assembly result, if any."""
    for path in (("op", "matrix"), ("matrix",), ()):
        cur = obj
        for attr in path:
            cur = getattr(cur, attr, None)
        if hasattr(cur, "indptr") and hasattr(cur, "data"):
            return cur
    return None


class Tracer:
    """Patch, record, restore.  One instance per traced run."""

    def __init__(self, package: str = PACKAGE, layers=LAYERS):
        self.spans: list[Span] = []
        self.op = -1
        self.package = package
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._discover(package, layers)
        self.caches = {name: fn for name, fn in self._targets.values()
                       if hasattr(fn, "cache_info")}

    @staticmethod
    def _discover(package, layers) -> dict[int, tuple[str, object]]:
        """id(function) -> (qualified name, function) for every public
        function defined in a layer module."""
        targets = {}
        for layer in layers:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets[id(obj)] = (f"{layer}.{name}", obj)
        return targets

    def install(self):
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name=name, start=0.0, parent=stack[-1] if stack else -1, op=self.op)
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            misses = cache_info().misses if cache_info else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self._annotate(span, args, kwargs, result,
                           cache_info is not None and cache_info().misses > misses)
            return result

        return traced

    @staticmethod
    def _annotate(span: Span, args, kwargs, result, missed: bool):
        name, info = span.name, span.info
        if name == "sector.enumerate_sector":
            info["dim"] = _dimension(result)
            info["sector"] = (getattr(args[0], "sites", None), str(result.m))
        elif name == "manybody.full_fock_basis" and missed:
            info["words"] = 1 << (2 * args[0])
        elif name == "spectral.eig_lowest":
            info["dim"] = _dimension(args[0])
            info["count"] = args[1] if len(args) > 1 else kwargs.get("count")
        elif name in ASSEMBLY:
            csr = _csr(result)
            if csr is not None:
                info["dim"] = int(csr.shape[0])
                info["nnz"] = int(csr.nnz)
                info["bytes"] = int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def cache_ratio(self, name: str) -> float:
        """Hit ratio of one package lru_cache since its last clear (0 if unused)."""
        fn = self.caches.get(name)
        if fn is None:
            return 0.0
        info = fn.cache_info()
        calls = info.hits + info.misses
        return info.hits / calls if calls else 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the part covered by child spans."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _outermost(spans: list[Span], members) -> float:
    """Inclusive time of member spans with no member ancestor."""
    member = [s.name in members for s in spans]
    total = 0.0
    for i, s in enumerate(spans):
        if not member[i]:
            continue
        p = s.parent
        while p >= 0 and not member[p]:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def layer_metrics(tracer: Tracer, wall: float, crossover: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass of wall time ``wall``."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_by_fn: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)   # a layer with no spans reads 0
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_by_fn[s.name] = self_by_fn.get(s.name, 0.0) + t
        layer = s.name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t
    pct = 100.0 / wall

    enum = [s for s in spans if s.name == "sector.enumerate_sector"]
    distinct = {(s.op, s.info.get("sector")) for s in enum}
    eig = [s for s in spans if s.name == "spectral.eig_lowest" and "dim" in s.info]
    dense = sum(1 for s in eig if s.info["dim"] <= crossover or s.info["count"] >= s.info["dim"] - 1)
    assembly = [s for s in spans if s.name in ASSEMBLY and "nnz" in s.info
                and not _has_ancestor(spans, s, ASSEMBLY)]
    reports = calls.get("spectral.ground_report", 0)

    out = {
        "model.load_s": _outermost(spans, {"model.load_model"}),
        "manybody.self_s": self_by_layer["manybody"],
        "hamiltonian.self_s": self_by_layer["hamiltonian"],
        "spectral.self_s": self_by_layer["spectral"],
        "cli.self_s": self_by_layer["cli"],
        "sector.enumerate_calls": len(enum),
        "sector.enumerate_waste": len(enum) / len(distinct) if distinct else 0.0,
        "sector.dim_sum": sum(s.info.get("dim") or 0 for s in enum),
        "manybody.spin_calls": calls.get("manybody.sector_spin_squared", 0),
        "manybody.spin_builds": calls.get("manybody.build_spin_ops", 0),
        "manybody.fock_words": sum(s.info.get("words", 0) for s in spans),
        "manybody.fock_cache_hit_ratio": tracer.cache_ratio("manybody.full_fock_basis"),
        "manybody.boson_cache_hit_ratio": tracer.cache_ratio("manybody.boson_basis"),
        "hamiltonian.nnz_sum": sum(s.info["nnz"] for s in assembly),
        "hamiltonian.dim_max": max((s.info["dim"] for s in assembly), default=0),
        "hamiltonian.csr_mb": sum(s.info["bytes"] for s in assembly) / 1e6,
        "spectral.eig_dense_calls": dense,
        "spectral.eig_lanczos_calls": len(eig) - dense,
        "spectral.eig_pairs": sum(s.info["count"] for s in eig),
        "spectral.solves_per_report": len(eig) / reports if reports else 0.0,
        "spectral.norm_calls": calls.get("spectral.operator_norm", 0),
        "spectral.report_self_pct": pct * self_by_fn.get("spectral.ground_report", 0.0),
        "spectral.resolvent_self_pct": pct * self_by_fn.get("spectral.resolvent_gap", 0.0),
        "trace.spans": len(spans),
    }
    for stage, members in STAGES.items():
        out[f"{stage}_pct"] = pct * _outermost(spans, set(members))
    return out


def _has_ancestor(spans: list[Span], span: Span, names) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def write_spans(path, passes: list[list[Span]]):
    """One JSON line per span: pass, id, name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for sid, s in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op}) + "\n")
