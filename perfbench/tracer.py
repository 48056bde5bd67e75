"""Layer spans recorded from outside the program.

The traced run wraps public entry points of each layer at the module or
class attribute its caller looks up (a ``from``-import binds the
function into the importing module, so every binding is replaced).
Every span boundary charges the wall time since the previous boundary
to one layer, which makes the per-layer self times plus the
``unattributed`` row tile the traced wall time exactly.

Charging rule: the interval since the last boundary goes to the
innermost open span of the thread that crossed that boundary.  The
simulator hands one baton between the kernel thread and the rank
threads, so in the sweep and halo workloads this thread is the one that
ran the interval.  If that thread has no open span (a rank task just
returned) the interval goes to the most recently opened span of any
thread; if no span is open anywhere it is ``unattributed``.  In the
serve workload client, loop and worker threads really overlap, so
there the rule attributes each interval to the thread that last crossed
a boundary: an approximation, but still an exact tiling.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

UNATTRIBUTED = "unattributed"


class Tracer:
    """In-memory span bookkeeping: call counts, inclusive seconds per
    span name, self seconds per layer, and free-form samples."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._stacks: dict[int, list[tuple[str, float]]] = defaultdict(list)
        self._open = 0
        self._last_thread: int | None = None
        self._last_t = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.begin = 0.0
        self.end = 0.0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.begin = self._last_t = perf_counter()

    def stop(self) -> None:
        with self.lock:
            now = perf_counter()
            self._charge(now)
            self.end = now

    @property
    def wall_s(self) -> float:
        return self.end - self.begin

    def _charge(self, now: float) -> None:
        stack = self._stacks.get(self._last_thread) if self._last_thread else None
        if stack:
            layer = stack[-1][0]
        elif self._open:
            layer = max(
                (s[-1] for s in self._stacks.values() if s), key=lambda e: e[1]
            )[0]
        else:
            layer = UNATTRIBUTED
        self.self_s[layer] += now - self._last_t
        self._last_t = now

    def enter(self, layer: str) -> float:
        ident = threading.get_ident()
        with self.lock:
            now = perf_counter()
            self._charge(now)
            self._stacks[ident].append((layer, now))
            self._open += 1
            self._last_thread = ident
        return now

    def exit(self, name: str) -> float:
        ident = threading.get_ident()
        with self.lock:
            now = perf_counter()
            self._charge(now)
            _, began = self._stacks[ident].pop()
            self._open -= 1
            self._last_thread = ident
            self.calls[name] += 1
            self.inclusive_s[name] += now - began
        return now - began

    # ------------------------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self.samples[name].append(value)

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    def spanned(
        self,
        fn: Callable,
        name: str,
        layer: str,
        after: Callable[["Tracer", Any, tuple, dict, float], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(tracer, result, args,
        kwargs, seconds)`` runs once the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.exit(name)
            if after is not None:
                after(tracer, result, args, kwargs, seconds)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str, layer: str, after=None) -> None:
        self.patch(cls, attr, self.spanned(cls.__dict__[attr], name, layer, after))

    def wrap_function(self, module: Any, attr: str, name: str, layer: str, after=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module attribute
        bound to the same function object by a ``from``-import."""
        original = getattr(module, attr)
        wrapped = self.spanned(original, name, layer, after)
        for modname, mod in list(sys.modules.items()):
            if modname == "repro" or modname.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patch(mod, key, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def tiling(self) -> tuple[dict[str, float], float]:
        """Self seconds per row (``unattributed`` included) and the gap
        between their sum and the traced wall time."""
        rows = dict(self.self_s)
        rows.setdefault(UNATTRIBUTED, 0.0)
        return rows, sum(rows.values()) - self.wall_s
