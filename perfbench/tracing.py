"""In-memory spans for the traced benchmark run.

A span is one timed call into a layer of ``repro``: its name is
``<layer>.<operation>`` (``core.run``, ``io.trace_flush``, ...), and it
records its start, end, the span that was open on the same thread when it
began (its parent) and an optional request id shared by every span of one
chain or job.  Spans come from two places, both outside ``src/``:

* the workloads open them around the library calls they make
  (:meth:`Tracer.span`);
* :meth:`Tracer.wrap` temporarily replaces a library method with a timed
  wrapper, for layers the workloads only reach indirectly (the draw-tape
  refill inside an engine's run loop, the trace-store writer inside a
  sink, the checkpoint store inside the service's executor thread).
  :meth:`Tracer.restore` puts the originals back.

Spans stay in memory until :meth:`Tracer.dump` writes them out when the
benchmark ends.  Untraced runs use :class:`NullTracer`, whose spans cost a
``nullcontext``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The layers of ``repro`` a span name may start with.
LAYERS = ("lattice", "core", "rng", "io", "runtime", "service")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False

    def span(self, name: str, request: Optional[str] = None):
        return contextlib.nullcontext()

    def restore(self) -> None:
        pass


class Tracer:
    """Collects spans from any thread; parents are tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, request,
                     threading.current_thread().name)
            )

    def wrap(
        self,
        owner: type,
        attribute: str,
        name: str,
        request: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span named ``name``.

        ``request`` maps the call's arguments to the request id.
        """
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, request(*args) if request else None):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def self_times(self) -> Dict[str, float]:
        """Seconds each layer spent in its own spans, children excluded.

        A span's self time is its duration minus that of its child spans;
        children run on the parent's thread inside its interval, so they
        never overlap one another.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        layers = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            if layer in layers:
                layers[layer] += span.duration - child_time[span.id]
        return layers

    def absorb(self, path: Path) -> None:
        """Add the spans another process dumped, renumbered past ours."""
        offset = max((span.id for span in self.spans), default=0)
        for entry in json.loads(path.read_text()):
            entry["id"] += offset
            if entry["parent"] is not None:
                entry["parent"] += offset
            self.spans.append(Span(**entry))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))
