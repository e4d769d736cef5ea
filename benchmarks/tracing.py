"""In-memory spans for the traced benchmark run.

A span records one call into a memspin function: its name, start, end, the
span that was open when it began, the op it belongs to, and optionally a
work count taken from the call's arguments and result.  Spans are opened by
swapping a module attribute for a wrapper, so the traced op makes exactly
the calls the untraced op makes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = "setup"
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "op": self.op}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str, work=None):
        """Record a span around every call made to ``module.attr``.

        ``work(arguments, result)``, given the call's bound arguments by
        parameter name, returns the span's work count; it runs after the
        span has closed, so its cost is not timed.
        """
        original = getattr(module, attr)
        bind = inspect.signature(original).bind if work is not None else None

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if bind is not None:
                record["work"] = work(bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def patching(self, patches):
        """All of ``patches``, a sequence of ``patched`` argument tuples, at once."""
        with contextlib.ExitStack() as stack:
            for args in patches:
                stack.enter_context(self.patched(*args))
            yield
