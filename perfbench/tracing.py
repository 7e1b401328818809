"""In-memory span recording around calls into circpc's modules.

Spans are recorded from the benchmark's side only: a wrapper replaces a
name that one circpc module imported from another (or a name the
benchmark itself calls) for the duration of a traced run, and the
original is put back afterwards.  Each span is a list
``[name, layer, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.
"""

import time
from contextlib import contextmanager

# the package's modules; every layer metric is named after one of them
LAYERS = (
    "special",
    "distributions",
    "divergence",
    "pc_priors",
    "reference_priors",
    "inference",
    "harness",
    "cli",
)


class Tracer:
    """Collects nested spans of one single-threaded traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, name, fn):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, layer, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by a traced wrapper for each
        ``(owner, attr, layer)`` in ``targets``; restore on exit."""
        saved = []
        try:
            for owner, attr, layer in targets:
                raw = vars(owner)[attr]
                name = f"{getattr(owner, '__name__', owner)}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer, name, raw.__func__))
                else:
                    new = self.wrap(layer, name, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def analyse(spans, wall_s):
    """Per-layer self time and call counts, plus nesting problems.

    A span's self time is its duration minus the durations of its
    direct children.  Returns ``(self_s, calls, unattributed_s,
    problems)`` where ``unattributed_s`` is the part of ``wall_s`` that
    no top-level span covers (the benchmark's own code between calls).
    """
    child_s = [0.0] * len(spans)
    problems = []
    top_s = 0.0
    for i, (name, _layer, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) did not close")
            continue
        if parent < 0:
            top_s += end - start
            continue
        p_start, p_end = spans[parent][2], spans[parent][3]
        if parent >= i or p_end is None or start < p_start or end > p_end:
            problems.append(f"span {i} ({name}) is not inside its parent {parent}")
        child_s[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for i, (name, layer, start, end, _parent) in enumerate(spans):
        if end is None:
            continue
        own = (end - start) - child_s[i]
        if own < 0.0:
            problems.append(f"span {i} ({name}) has negative self time {own:.3g} s")
        self_s[layer] += own
        calls[layer] += 1
    return self_s, calls, wall_s - top_s, problems
