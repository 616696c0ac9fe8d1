"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded only by wrappers that the benchmark installs on
condaalen's public functions, at the module attribute each caller looks
up (``cli.fit``, ``covariance.influence_zeta``, ...). The package itself
is never edited; :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Children of one span never overlap (the program is single
threaded), so that difference is the time the span spent in its own
code.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous op."""
        # each span: [name, start, end, child time]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, 0.0]
        self._stack.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][3] += rec[2] - rec[1]
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(counts, args, result)`` runs after the span closes, so
        counting costs no span time.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without a span."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr, original, replacement) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name for the spans recorded so far."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
        return total, own
