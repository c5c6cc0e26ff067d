"""Spans recorded around calls into nsbound's public functions.

The benchmark installs wrappers on module and class attributes for the
length of a traced run and restores the originals afterwards; nothing
under ``src/`` records spans.  A name bound in several modules (for
example ``matrix_density``, imported into ``nsbound.cli``) is replaced in
every module that holds it.  A target that no longer exists is skipped and
reported, so its time shows up as self time of the span that called it.

Spans live in memory as (name, start, end, parent, trace id, attrs) and
are written out by the caller when the run ends.  One trace id covers one
top-level call, that is one ``main(argv)`` invocation.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """A single-threaded span stack; spans are appended in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._traces = 0

    def open(self, name: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            trace_id = self.spans[parent].trace_id
        else:
            parent = None
            self._traces += 1
            trace_id = self._traces
        self.spans.append(Span(name, self._clock(), 0.0, parent, trace_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span.end = self._clock()
        span.attrs.update(attrs)
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# -- what is wrapped -----------------------------------------------------------


def _eval_block_attrs(args, kwargs, result) -> dict:
    return {"term_points": len(args[0].terms) * len(result)}


def _angles_attrs(args, kwargs, result) -> dict:
    return {"points": len(result)}


def _eigen_attrs(args, kwargs, result) -> dict:
    shape = getattr(args[0], "shape", ())
    return {"matrices": shape[0] if len(shape) == 3 else 1, "size": shape[-1] if shape else 0}


def _det_attrs(args, kwargs, result) -> dict:
    return {"zero": result.is_zero()}


#: (module, attribute path, span name, attrs from (args, kwargs, result))
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("nsbound.cli", "main", "cli.main", None),
    ("nsbound.parsing", "parse_matrix", "parsing", None),
    ("nsbound.parsing", "parse_poly", "parsing", None),
    ("nsbound.poly", "LaurentPoly.eval_block", "poly.eval_block", _eval_block_attrs),
    ("nsbound.poly", "width_profile", "poly.width_profile", None),
    ("nsbound.matrices", "determinant", "matrices.det", _det_attrs),
    ("nsbound.matrices", "max_nonvanishing_minor", "matrices.minor_search", None),
    ("nsbound.matrices", "iter_nonvanishing_minors", "matrices.minor_search", None),
    ("nsbound.bounds", "analyze", "bounds.analyze", None),
    ("nsbound.bounds", "best_ordering", "bounds.best_ordering", None),
    ("nsbound.density", "TorusGrid.angles", "density.angles", _angles_attrs),
    ("nsbound.density", "hermitian_eigenvalues", "density.eigen", _eigen_attrs),
    ("nsbound.density", "matrix_density", "density.matrix_density", None),
    ("nsbound.density", "default_fit_window", "density.fit", None),
    ("nsbound.density", "alpha_fit", "density.fit", None),
)


def _wrap(tracer: Tracer, fn: Callable, name: str, attrs_fn: Callable | None) -> Callable:
    if inspect.isgeneratorfunction(fn):
        # Time only while the generator runs, one span per resumption, so
        # the consumer's work between items is not charged to it.
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(index)
                    return
                except BaseException:
                    tracer.close(index, error=True)
                    raise
                tracer.close(index)
                yield item

        return gen_wrapper

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, error=True)
            raise
        tracer.close(index, **(attrs_fn(args, kwargs, result) if attrs_fn else {}))
        return result

    return wrapper


class Patch:
    """Install span wrappers on every target; ``restore`` undoes all of it."""

    def __init__(self, tracer: Tracer):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        nsbound_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nsbound" or n.startswith("nsbound."))
        ]
        try:
            for module_name, path, span_name, attrs_fn in TARGETS:
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path.split(".") if owner_path else ():
                        owner = getattr(owner, part)
                    original = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapped = _wrap(tracer, original, span_name, attrs_fn)
                holders = [owner] if owner_path else [
                    m for m in nsbound_modules if m.__dict__.get(attr) is original
                ]
                for holder in holders:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> Patch:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- per-layer metrics from a span list ----------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children.get(i, [])) for i, s in enumerate(spans)
    ]


def _under(spans: list[dict], i: int, name: str) -> bool:
    """Whether span i has an ancestor called ``name``."""
    p = spans[i]["parent"]
    while p is not None and spans[p]["name"] != name:
        p = spans[p]["parent"]
    return p is not None


def _outermost(spans: list[dict], name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    return [i for i, s in enumerate(spans) if s["name"] == name and not _under(spans, i, name)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(spans[i]["end"] - spans[i]["start"] for i in _outermost(spans, name))

    def self_total(name: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s["name"] == name)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in named(name))

    search_dets = [
        s for i, s in enumerate(spans)
        if s["name"] == "matrices.det" and _under(spans, i, "matrices.minor_search")
    ]
    hits = sum(1 for s in search_dets if not s["attrs"].get("zero", True))

    return {
        "poly.eval_block_s": total("poly.eval_block"),
        "poly.eval_term_points": attr_sum("poly.eval_block", "term_points"),
        "poly.width_profile_calls": len(named("poly.width_profile")),
        "density.angles_s": total("density.angles"),
        "density.points": attr_sum("density.angles", "points"),
        "density.chunks": len(named("density.angles")),
        "density.eigen_s": total("density.eigen"),
        "density.eigen_matrices": attr_sum("density.eigen", "matrices"),
        "density.eigen_size": max(
            (s["attrs"].get("size", 0) for s in named("density.eigen")), default=0
        ),
        "density.matrix_density_s": total("density.matrix_density"),
        "density.self_s": self_total("density.matrix_density"),
        "density.fit_s": total("density.fit"),
        "matrices.det_s": total("matrices.det"),
        "matrices.det_calls": len(named("matrices.det")),
        "matrices.minor_search_s": total("matrices.minor_search"),
        "matrices.minor_hit_ratio": hits / len(search_dets) if search_dets else 0.0,
        "bounds.analyze_s": total("bounds.analyze"),
        "bounds.analyze_self_s": self_total("bounds.analyze"),
        "bounds.best_ordering_s": total("bounds.best_ordering"),
        "parsing.s": total("parsing"),
        "parsing.calls": len(_outermost(spans, "parsing")),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
    }
