"""In-memory call tracing around the public functions of a package's modules.

Every public function found in the given modules is replaced, in every
module that binds it, by one shared wrapper, so calls made through another
module's import (``graphs.reverse_leq``) are traced like direct ones and
nest under their caller.  A wrapper records a span (op id, span id, parent
id, name, start, end, self time) and per-function totals.  Two cheaper modes
serve functions called up to millions of times per op, where a span each
would cost more memory and time than the work: a "leaf" is timed and
totalled but records no span, and a "count" function is only counted, its
time staying in its caller's self time.

Self time is a call's duration minus the durations of the traced calls made
directly inside it; the calls of one thread never overlap, so those
durations are exactly the part of the interval the children cover.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from typing import Any, Callable, Iterable

# hook(stats, args, result) runs after a successful call, e.g. to count work.
Hook = Callable[["FnStats", tuple, Any], None]


class FnStats:
    """Totals for one traced function; ``extra`` is whatever its hook accumulates.

    ``outer_ns`` is the time of the calls made from outside the function's
    layer: summed over a layer's functions it is the time the layer was busy.
    """

    __slots__ = ("layer", "calls", "total_ns", "self_ns", "outer_ns", "extra")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.outer_ns = 0
        self.extra: Any = 0


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        # A frame is [span id, layer, child ns]; the root frame stands for the harness.
        self.stack: list[list] = [[0, None, 0]]
        self.spans: list[tuple] = []
        self.stats: dict[str, FnStats] = {}
        self.op = 0
        self._ids = itertools.count(1)

    def layer_self_ns(self, layer: str) -> int:
        return sum(st.self_ns for st in self.stats.values() if st.layer == layer)

    def layer_busy_ns(self, layer: str) -> int:
        return sum(st.outer_ns for st in self.stats.values() if st.layer == layer)

    def wrap(self, layer: str, name: str, fn: Callable, mode: str = "span", hook: Hook | None = None) -> Callable:
        """A traced stand-in for fn; mode is "span", "leaf" or "count".

        Leaf and count functions push no frame of their own, so they must not
        call traced functions: those would nest under the caller's frame.
        """
        full = f"{layer}.{name}"
        st = self.stats.setdefault(full, FnStats(layer))
        stack, spans, clock, ids = self.stack, self.spans, self.clock, self._ids

        def traced_leaf(*args, **kwargs):
            parent = stack[-1]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                parent[2] += dur
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur
                if parent[1] != layer:
                    st.outer_ns += dur
            if hook is not None:
                hook(st, args, result)
            return result

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[2]
                parent[2] += dur
                st.calls += 1
                st.total_ns += dur
                st.self_ns += own
                if parent[1] != layer:
                    st.outer_ns += dur
                spans.append((self.op, frame[0], parent[0], full, start, end, own))
            if hook is not None:
                hook(st, args, result)
            return result

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            st.calls += 1
            if hook is not None:
                hook(st, args, result)
            return result

        wrapper = {"span": traced, "leaf": traced_leaf, "count": counted}[mode]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(
        self,
        modules: Iterable[Any],
        layer_of: Callable[[str], str | None],
        modes: dict[str, str] | None = None,
        hooks: dict[str, Hook] | None = None,
    ) -> None:
        """Wrap every public function defined in a traced layer, wherever it is bound.

        ``layer_of`` maps a defining module's name to its layer, or None for
        functions that are not traced.  Functions missing from ``modes`` get spans.
        """
        modes = modes or {}
        hooks = hooks or {}
        wrapped: dict[int, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                layer = layer_of(getattr(obj, "__module__", "") or "")
                if layer is None:
                    continue
                if id(obj) not in wrapped:
                    full = f"{layer}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(layer, obj.__name__, obj, modes.get(full, "span"), hooks.get(full))
                setattr(module, attr, wrapped[id(obj)])

    def write_spans(self, path: str) -> None:
        keys = ("op", "span", "parent", "name", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
