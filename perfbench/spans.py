"""In-memory span recorder that times hbft's public calls from outside.

The tracer swaps module attributes for timing wrappers while it is
installed, so nothing under ``src/`` changes: every call that the CLI, the
sweep runner or the benchmark makes through those attributes is recorded
as a span (name, module, start, end, parent, operation id). Field
callables passed to ``integrate`` are wrapped in a counter that counts
calls without timing them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Optional


@dataclasses.dataclass
class Span:
    span_id: int
    name: str
    module: str
    op_id: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` opens a root span, ``span`` a nested one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id: Optional[int] = None
        self._next_op = 0

    @contextlib.contextmanager
    def span(self, name: str, module: str, **attrs):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), name, module, self._op_id, parent, 0.0, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str, module: str, **attrs):
        """Root span of one operation; nested spans share its operation id."""
        self._op_id = self._next_op
        self._next_op += 1
        try:
            with self.span(name, module, **attrs) as sp:
                yield sp
        finally:
            self._op_id = None

    def wrap(self, fn, name: str, module: str, on_result=None):
        """A timing wrapper around fn; on_result(span, args, result) adds attributes."""

        def traced(*args, **kwargs):
            with self.span(name, module) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, result)
                return result

        return traced

    def wrap_integrate(self, integrate_fn):
        """Wrap ``integrate`` so its field callable is counted, not timed."""

        def traced_integrate(field, p, s, initial, cfg, *args, **kwargs):
            calls = [0]

            def counted(state):
                calls[0] += 1
                return field(state)

            with self.span("integrate", "integrate", method=cfg.method) as sp:
                try:
                    traj = integrate_fn(counted, p, s, initial, cfg, *args, **kwargs)
                except Exception as exc:
                    _step_attrs(sp, getattr(exc, "partial", None), calls[0])
                    raise
                _step_attrs(sp, traj, calls[0])
                return traj

        return traced_integrate


def _step_attrs(sp: Span, traj, calls: int) -> None:
    sp.attrs["field_calls"] = calls
    if traj is not None:
        sp.attrs["accepted"] = traj.step_stats.accepted
        sp.attrs["rejected"] = traj.step_stats.rejected
        sp.attrs["samples"] = traj.n_samples


@contextlib.contextmanager
def patched(targets):
    """Temporarily set ``(owner, attr, replacement)`` triples; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.span_id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cursor, sp.start), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.span_id] = sp.duration - covered
    return out


def module_shares(spans: list[Span]) -> dict[str, float]:
    """Module -> share of all root-span time spent in that module's own code."""
    own = self_times(spans)
    total = sum(sp.duration for sp in spans if sp.parent is None)
    shares: dict[str, float] = {}
    for sp in spans:
        shares[sp.module] = shares.get(sp.module, 0.0) + own[sp.span_id]
    return {m: (t / total if total > 0 else 0.0) for m, t in shares.items()}
