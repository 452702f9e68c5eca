"""In-memory spans around calls into the program's layers.

``Tracer.instrument`` swaps each public function of the named modules for a
wrapper that records a span, everywhere the package holds a reference to it,
so calls between modules (and public calls inside one module) nest.  Spans
stay in memory until the run ends; nothing stays patched after the ``with``
block.  The program itself is not edited: spans inside it come later.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans; ``observers`` map a span name to a function
    (args, kwargs, result) -> {count name: value} recorded on the span."""

    def __init__(self, observers=None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._observers = observers or {}

    def _open(self, name: str) -> Span:
        sp = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, name: str, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if observe is not None:
                sp.attrs.update(observe(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self, package: str, layers):
        """Trace the public functions of ``package.<layer>`` for each layer.

        Public means listed in ``__all__``, or, without one, defined in the
        module under a name without a leading underscore.
        """
        wrappers = {}
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, val in list(vars(mod).items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in reversed(patched):
                setattr(mod, attr, val)


def span_cost_s(calls: int = 5000, rounds: int = 7) -> float:
    """Seconds one traced call costs over a bare one: a wrapped no-op against
    the bare no-op, each the fastest of ``rounds`` loops of ``calls`` calls."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)

    def fastest(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best

    return max(fastest(wrapped) - fastest(noop), 0.0) / calls


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and summed attributes.

    busy_s sums the durations of the outermost spans of that name (a span
    nested in one of the same name is already inside it); self_s sums
    duration minus the time covered by direct children, over every span.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        row = out.setdefault(sp.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}})
        dur = sp.end - sp.start
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        p = sp.parent
        while p is not None and spans[p].name != sp.name:
            p = spans[p].parent
        if p is None:
            row["busy_s"] += dur
        for k, v in sp.attrs.items():
            row["attrs"][k] = row["attrs"].get(k, 0) + v
    return out
