"""Spans and counters recorded from the benchmark's own files.

A span records name, start, end and parent around one call the benchmark
makes into a layer.  Two public names of the program are wrapped in the
traced run only, and restored afterwards: `cone_feasible` as `semigroup`
looks it up, and `MulticoneSystem.member`.  Their calls are too many to keep
one by one, so each is aggregated into a call count, a busy time and (for
`member`) an accepted count per round.  Everything stays in memory until
the run writes it out.  Times come from the clock the workload times its
operations with (CPU seconds; see workloads.py); the per-round figures are
scaled like the operation they fall in (see reference.py), the spans kept
for the trace file are not.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.rounds: list[dict[str, float]] = []
        # Busy seconds of the operation under way, scaled by end_op().
        self.pending: dict[str, float] = defaultdict(float)
        self.scale = 1.0
        self._stack = [-1]
        self._undo = []

    @property
    def round(self) -> dict[str, float]:
        return self.rounds[-1]

    def begin_round(self) -> None:
        self.rounds.append(defaultdict(float))

    def end_op(self, scale: float) -> None:
        """Add the operation's busy times to the round, times scale."""
        self.scale = scale
        for name, busy in self.pending.items():
            self.round[name] += busy * scale
        self.pending.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1]))
        self._stack.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3])
            if self.rounds:
                self.pending[name + "_s"] += end - start

    def count(self, name: str, n: float = 1) -> None:
        if self.rounds:
            self.round[name] += n

    def peak(self, name: str, n: float) -> None:
        if self.rounds:
            self.round[name] = max(self.round[name], n)

    def wrap(self, owner, attr: str, time_key: str, calls_key: str,
             accepted_key: str | None = None):
        """Replace owner.attr by a counting, timing wrapper until restore()."""
        inner = getattr(owner, attr)
        rounds, clock, pending = self.rounds, self.clock, self.pending

        def wrapper(*args, **kwargs):
            start = clock()
            out = inner(*args, **kwargs)
            if rounds:
                pending[time_key] += clock() - start
                r = rounds[-1]
                r[calls_key] += 1
                if accepted_key and out:
                    r[accepted_key] += 1
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, inner))

    def restore(self) -> None:
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans,
                       "rounds": [dict(r) for r in self.rounds]}, fh)


class NullTracer:
    """The untraced run: every hook is a no-op."""

    scale = 1.0

    def begin_round(self) -> None:
        pass

    def end_op(self, scale: float) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass

    def peak(self, name: str, n: float) -> None:
        pass

    def restore(self) -> None:
        pass
