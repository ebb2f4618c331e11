"""Host-time span ledger: nested spans, self time, and counts.

A :class:`Ledger` records spans (name, start, end, parent) as they
close and keeps, per name, the number of calls and the *self* time:
a span's duration minus the part of it covered by its child spans.
Self time is settled online from a stack, so it is exact however many
spans are kept for the Chrome-trace export (at most ``max_spans``;
the rest are only counted in :attr:`Ledger.dropped`).

Spans and counts are bucketed by :attr:`Ledger.phase` (the benchmark
uses ``"setup"`` and ``"sweep"``), so set-up work never mixes into the
per-pass ledger.

:class:`Patcher` installs the ledger around existing functions and
methods -- the public entry points of each ``repro`` layer -- from
outside the program, and restores every original on :meth:`restore`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["Ledger", "Patcher"]


class Ledger:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = 50_000):
        self.clock = clock
        self.max_spans = max_spans
        self.phase = "sweep"
        #: Closed spans kept for export: (id, name, start, end, parent id).
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.self_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.calls: Dict[str, Counter] = defaultdict(Counter)
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        #: Open spans: [id, name, start, time covered by children].
        self._stack: List[list] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        phase = self.phase
        self.self_s[phase][name] += duration - covered
        self.calls[phase][name] += 1
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            outer[3] += duration
            parent = outer[0]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped += 1
        return duration

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> Dict:
        """The kept spans as Chrome-trace ("X" complete) events; open
        the file in ``chrome://tracing`` or https://ui.perfetto.dev."""
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": start * 1e6, "dur": (end - start) * 1e6,
                   "args": {"id": span_id, "parent": parent}}
                  for span_id, name, start, end, parent in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


class Patcher:
    """Wraps functions and methods with ledger spans or counters.

    A module-level function is rebound in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites
    see the wrapper too.  :meth:`restore` puts every original back.
    """

    #: Only modules of this package are searched for rebinding.
    PACKAGE = "repro"

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapper factories ---------------------------------------------------

    def _spanned(self, fn: Callable, name: str) -> Callable:
        ledger = self.ledger

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.exit()
        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        ledger = self.ledger

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger.counts[ledger.phase][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str,
               count_only: bool = False) -> None:
        """Wrap ``cls.attr`` (a plain method or a property getter)."""
        original = cls.__dict__[attr]
        make = self._counted if count_only else self._spanned
        if isinstance(original, property):
            wrapped = property(make(original.fget, name))
        else:
            wrapped = make(original, name)
        self._set(cls, attr, wrapped)

    def function(self, module: object, attr: str, name: str,
                 count_only: bool = False) -> None:
        """Wrap the function ``module.attr`` wherever it is bound."""
        original = getattr(module, attr)
        make = self._counted if count_only else self._spanned
        wrapped = make(original, name)
        prefix = self.PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.PACKAGE
                                   or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

