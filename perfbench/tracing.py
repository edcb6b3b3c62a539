"""Traced runs: spans and counts around the public functions of ``qndmzi``.

:func:`install` rebinds module and class attributes of the ``qndmzi``
package in this process only; nothing under ``src/`` changes, and the
restore function it returns puts every original back.  Because the
package's modules import names from each other (``from .states import
merge_branches``), every module attribute that *is* a wrapped function is
rebound, so calls between modules are traced as well.

A span is ``(id, parent, solve, name, start, end)``.  Spans are kept in a
list and written out at the end of the run; all spans of one solve share
the solve id.  Self time is a span's duration minus the time its child
spans cover (children of one span never overlap: the run is one thread).

``states.coherent_overlap`` is called ~10^5 times per deep solve, so it is
counted but records no span; its time stays in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import click

LAYERS = ("states", "elements", "circuit", "analysis", "fileformat", "cli")

#: Methods traced as spans: (module, class, attribute, span name).
METHODS = (
    ("circuit", "Circuit", "__init__", "circuit.Circuit.init"),
    ("circuit", "Circuit", "kerr_free", "circuit.Circuit.kerr_free"),
    ("circuit", "Circuit", "insert", "circuit.Circuit.insert"),
    ("states", "HybridState", "norm_sq", "states.HybridState.norm_sq"),
    ("states", "HybridState", "project_mode", "states.HybridState.project_mode"),
    ("states", "HybridState", "normalized", "states.HybridState.normalized"),
)

COUNT_ONLY = frozenset({"states.coherent_overlap"})


def _merge_sizes(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counts["states.merge_branches.branches_in"] += len(state.branches)
    counts["states.merge_branches.branches_out"] += len(result.branches)


def _pairs(counts, args, kwargs, result):
    bra = args[0] if args else kwargs["bra"]
    ket = args[1] if len(args) > 1 else kwargs["ket"]
    counts["states.inner_product.pairs"] += len(bra.branches) * len(ket.branches)


EXTRA_COUNTS = {
    "states.merge_branches": _merge_sizes,
    "states.inner_product": _pairs,
}


class Tracer:
    """In-memory span and count store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.solve = 0
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.solve, name, start, end))

    def wrap(self, name: str, fn):
        extra = EXTRA_COUNTS.get(name)
        counts = self.counts
        calls = name + ".calls"
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            result = self.span(name, fn, *args, **kwargs)
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _sid, parent, _solve, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for sid, _parent, _solve, name, start, end in self.spans:
            totals[name] += end - start - covered[sid]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "solve", "name", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"qndmzi.{layer}")
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                targets.append((f"{layer}.{attr}", None, attr, value))
            elif isinstance(value, click.Command) and value.callback is not None:
                targets.append((f"{layer}.{attr}", value, "callback", value.callback))
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(f"qndmzi.{layer}"), cls_name)
        targets.append((name, cls, attr, vars(cls)[attr]))
    return targets


def install(tracer: Tracer):
    """Rebind every traced callable to a wrapper; return a restore function."""
    import qndmzi

    modules = [qndmzi] + [importlib.import_module(f"qndmzi.{m}") for m in LAYERS]
    saved = []
    by_identity = {}
    for name, owner, attr, original in _targets():
        wrapper = tracer.wrap(name, original)
        if owner is None:
            by_identity[id(original)] = (original, wrapper)
        else:
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = by_identity.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
