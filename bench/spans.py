"""Spans around the public calls of each bipmoore layer, recorded from outside the package.

``Tracer.installed()`` replaces every binding of a traced function in the
loaded ``bipmoore`` modules with a wrapper, so calls made inside the package
(``max_m`` calling ``search_offsets``, the audit calling ``search_offsets``,
``diameter_at_most_3`` calling ``two_step_residues``) are caught too, and
puts the originals back on exit. A span holds name, start, end, parent and a
few counts taken from the call's result. Spans stay in memory until
``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: Traced public calls: span name -> (module, function).
TRACED = {
    "search.search_offsets": ("bipmoore.search", "search_offsets"),
    "search.max_m": ("bipmoore.search", "max_m"),
    "circulant.build_phi_spec": ("bipmoore.circulant", "build_phi_spec"),
    "circulant.two_step_residues": ("bipmoore.circulant", "two_step_residues"),
    "graphs.diameter": ("bipmoore.graphs", "diameter"),
    "graphs.girth": ("bipmoore.graphs", "girth"),
    "graphs.regularity_check": ("bipmoore.graphs", "regularity_check"),
    "structure.classify_and_decompose": ("bipmoore.structure", "classify_and_decompose"),
    "structure.check_observations": ("bipmoore.structure", "check_observations"),
    "structure.find_isomorphism": ("bipmoore.structure", "find_isomorphism"),
    "structure.verify_isomorphism": ("bipmoore.structure", "verify_isomorphism"),
    "caseanalysis.audit": ("bipmoore.caseanalysis", "nonexistence_case_audit"),
}


def _counts(name: str, result) -> dict:
    """The counts a span keeps from its call's result."""
    if name == "search.search_offsets":
        c = result.counters
        return {
            "nodes_visited": c.nodes_visited,
            "pruned_by_bound": c.pruned_by_bound,
            "pruned_by_symmetry": c.pruned_by_symmetry,
            "solutions_found": c.solutions_found,
        }
    if name == "structure.classify_and_decompose":
        return {"four_cycles": len(result.cycles.cycles)}
    if name == "structure.find_isomorphism":
        return {"isomorphic": result is not None}
    if name == "caseanalysis.audit":
        return {"multisets_examined": sum(e.values.get("examined", 0) for e in result.entries)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        names = {id(getattr(sys.modules[module], attr)): name for name, (module, attr) in TRACED.items()}
        replaced = []
        for modname, module in list(sys.modules.items()):
            if modname != "bipmoore" and not modname.startswith("bipmoore."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in names:
                    replaced.append((module, attr, value))
                    setattr(module, attr, self._wrap(names[id(value)], value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": k, **asdict(s)} for k, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n")


def round_metrics(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer figures of one round: the spans from index ``first`` on."""
    own = spans[first:]
    child_time = [0.0] * len(own)
    for s in own:
        if s.parent is not None and s.parent >= first:
            child_time[s.parent - first] += s.end - s.start
    self_time: dict[str, float] = {}
    iso = {True: 0.0, False: 0.0}
    counts: dict[str, int] = {}
    search_wall = 0.0
    for k, s in enumerate(own):
        t = s.end - s.start - child_time[k]
        self_time[s.name] = self_time.get(s.name, 0.0) + t
        if s.name == "structure.find_isomorphism":
            iso[s.counts["isomorphic"]] += t
        if s.name == "search.search_offsets":
            search_wall += s.end - s.start
        for key, value in s.counts.items():
            if key != "isomorphic":
                counts[key] = counts.get(key, 0) + value
    out = {f"{name}_s": t for name, t in self_time.items()}
    if "structure.find_isomorphism_s" in out:
        del out["structure.find_isomorphism_s"]
        out["structure.find_isomorphism_iso_s"] = iso[True]
        out["structure.find_isomorphism_noniso_s"] = iso[False]
    for key in ("nodes_visited", "pruned_by_bound", "pruned_by_symmetry", "solutions_found"):
        if key in counts:
            out[f"search.{key}"] = counts[key]
    if counts.get("nodes_visited"):
        out["search.useful_node_share"] = 1 - counts["pruned_by_bound"] / counts["nodes_visited"]
        out["search.nodes_per_s"] = counts["nodes_visited"] / search_wall
    if "four_cycles" in counts:
        out["structure.four_cycles"] = counts["four_cycles"]
    if "multisets_examined" in counts:
        out["caseanalysis.multisets_examined"] = counts["multisets_examined"]
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds of every figure that all of them report."""
    names = set.intersection(*(set(r) for r in rounds))
    return {name: statistics.median(r[name] for r in rounds) for name in names}
