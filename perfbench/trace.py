"""Outside-in span tracing: timing wrappers around public callables.

The traced run patches a table of callables (built by ``adapter``, the
only module that knows the program's names) with wrappers that record a
span per call: layer, name, start, end, the span that caused it and the
root span of its tree (an ``Environment.step`` event or a
``step_dataplane`` call).  Per wrapped callable it keeps, in place, the
call count, the total time and the *self* time — a span's duration minus
the part its child spans cover; ``summary`` adds them up per layer.  The
first ``max_roots`` root spans keep their whole trees in memory (fewer if
they reach ``max_spans`` spans first); ``write_jsonl`` dumps them when
the run ends.

Span times are ``time.perf_counter_ns`` readings: the process is
single-threaded, so they track CPU time, and the clock costs a tenth of
``process_time``'s system call.  The wrapper's own cost lands in the
parent's self time; ``trace.overhead_ratio`` says how much there is.
"""

import functools
import json
import time
from typing import Any, Callable, Dict, List, Tuple

_MISSING = object()


class Tracer:
    """Installs, aggregates and removes the timing wrappers."""

    def __init__(self, max_roots: int = 20000,
                 max_spans: int = 200000) -> None:
        self.max_roots = max_roots
        self.max_spans = max_spans
        # span name -> (layer, [calls, total_ns, self_ns])
        self.callables: Dict[str, Tuple[str, List[int]]] = {}
        self.spans: List[tuple] = []
        self.roots = 0
        self._stack: List[list] = []             # open spans, root first
        self._next_id = 0
        self._patches: List[tuple] = []          # (owner, attr, original)

    # -- wrapping ------------------------------------------------------------

    def traced(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a span in ``layer``."""
        _layer, stats = self.callables.setdefault(name, (layer, [0, 0, 0]))
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id = tracer._next_id + 1
            if stack:
                parent = stack[-1]
                # [child_ns, id, root id, keep the tree]
                frame = [0, span_id, parent[2], parent[3]]
            else:
                parent = None
                tracer.roots += 1
                frame = [0, span_id, span_id,
                         tracer.roots <= tracer.max_roots
                         and len(spans) < tracer.max_spans]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if frame[3]:
                    spans.append((span_id,
                                  parent[1] if parent is not None else None,
                                  frame[2], layer, name, start, end))

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering how to undo it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, layer: str, owner: Any, attr: str) -> None:
        """Trace ``owner.attr`` (a class's method or a module's function)."""
        original = vars(owner)[attr]
        name = "%s.%s" % (getattr(owner, "__name__", owner), attr)
        self.patch(owner, attr, self.traced(layer, name, original))

    def restore(self) -> None:
        """Put back every attribute ``patch`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, dict], Dict[str, dict]]:
        """``(by layer, by span name)``: calls, total seconds (time
        inside the spans, children included) and self seconds.  A
        layer's total counts a span nested in another of the same layer
        twice; its calls and self time add up exactly."""
        layers: Dict[str, dict] = {}
        names: Dict[str, dict] = {}
        for name, (layer, (calls, total_ns, self_ns)) in \
                self.callables.items():
            names[name] = {"layer": layer, "calls": calls,
                           "total_s": total_ns / 1e9,
                           "self_s": self_ns / 1e9}
            row = layers.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in ("calls", "total_s", "self_s"):
                row[key] += names[name][key]
        return layers, names

    def write_jsonl(self, path: str) -> int:
        """One span per line, for the retained root trees; returns the
        number written."""
        with open(path, "w") as out:
            for span_id, parent, root, layer, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root,
                    "layer": layer, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
        return len(self.spans)
