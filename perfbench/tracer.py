"""In-memory spans around the calls into panoloc's public functions.

The tracer replaces a module attribute (the name a caller looks up, such
as ``panoloc.cli.ransac_pnp``) by a wrapper that records a span: name,
start, end, parent span and a few counts taken from the arguments and the
result. Only names a panoloc module lists in ``__all__`` may be wrapped.
Spans stay in memory; the caller writes them out once, at the end.
"""

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **fields):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **fields}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, count=None, alloc=False):
        """Record a span named ``name`` around every call of ``module.attr``.

        ``count(args, kwargs, result)`` returns fields stored on the span;
        ``alloc`` records the tracemalloc peak inside the call.
        """
        func = getattr(module, attr)
        owner = sys.modules[func.__module__]
        if func.__name__ not in getattr(owner, "__all__", ()):
            raise ValueError(f"{func.__module__}.{func.__name__} is not a public name")

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if alloc:
                    tracemalloc.start()
                try:
                    result = func(*args, **kwargs)
                finally:
                    if alloc:
                        rec["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if count is not None:
                    rec.update(count(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, func))

    def unwrap_all(self):
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()


def self_time(rec, spans) -> float:
    """Span duration minus the time its direct children cover."""
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == rec["id"])
    return rec["end"] - rec["start"] - children
