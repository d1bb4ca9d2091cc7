"""Span tracer for the traced benchmark run.

The tracer wraps public library functions from the outside: it replaces the
function at every module attribute (and class attribute, for methods) that
holds it, so calls through ``from .spaces import action_matrix`` bindings are
caught as well as calls through the defining module.  Each call records one
span (function, start, end, parent span, job id) in memory; ``restore`` puts
the originals back, and ``layer_metrics`` turns the spans into per-function
call counts and self times (duration minus the time covered by child spans).

Optional hooks per function add size counters and reuse keys.  The reuse
key is computed before the span starts, and its time is also subtracted from
the parent's self time, so fingerprinting an operator is never billed to a
library layer; size counters are O(1) reads of the arguments or result.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple


@dataclass
class Target:
    """One traced function: ``owner.attr`` is where it is defined."""
    name: str                              # metric prefix, e.g. "spaces.action_matrix"
    owner: object                          # defining module, or the class for a method
    attr: str
    size: Optional[Tuple[str, Callable]] = None   # (counter, f(args, kwargs, result) -> int)
    key: Optional[Callable] = None                # f(args, kwargs) -> hashable reuse key


class Tracer:
    def __init__(self, targets: List[Target], package: str = "qeslab",
                 clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.package = package
        self.clock = clock
        # span: (target index, start, end, parent span or -1, job id, key seconds)
        self.spans: List[Tuple[int, float, float, int, int, float]] = []
        self.stack: List[int] = []
        self.job = -1
        self.counters: Dict[str, int] = {}
        self.keys: Dict[str, Set[int]] = {t.name: set() for t in targets if t.key}
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every binding of every target; returns the binding count."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for idx, t in enumerate(self.targets):
            original = getattr(t.owner, t.attr)
            wrapper = self._wrap(idx, t, original)
            if isinstance(t.owner, type):
                owners = [t.owner]
            else:
                owners = [m for m in modules if vars(m).get(t.attr) is original]
            for owner in owners:
                self._patched.append((owner, t.attr, original))
                setattr(owner, t.attr, wrapper)
        return len(self._patched)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, t: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, self.clock
        size, key = t.size, t.key
        keyset = self.keys.get(t.name)
        counter = f"{t.name}.{size[0]}" if size else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            h0 = clock()
            if key is not None:
                keyset.add(hash(key(args, kwargs)))
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, self.job, t0 - h0)
            if counter is not None:
                self.counters[counter] = (self.counters.get(counter, 0)
                                          + size[1](args, kwargs, result))
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s per target, size counters and reuse shares."""
        n = len(self.targets)
        calls = [0] * n
        total = [0.0] * n
        covered = [0.0] * len(self.spans)
        for idx, t0, t1, parent, _, key_s in self.spans:
            calls[idx] += 1
            total[idx] += t1 - t0
            if parent >= 0:
                covered[parent] += (t1 - t0) + key_s
        self_s = total[:]
        for i, (idx, *_rest) in enumerate(self.spans):
            self_s[idx] -= covered[i]
        out: Dict[str, float] = {}
        for i, t in enumerate(self.targets):
            out[f"{t.name}.calls"] = calls[i]
            out[f"{t.name}.self_s"] = self_s[i]
            if t.size:
                out[f"{t.name}.{t.size[0]}"] = self.counters.get(f"{t.name}.{t.size[0]}", 0)
            if t.key:
                # a function never called has no repeated inputs: share 1
                out[f"{t.name}.distinct_share"] = (len(self.keys[t.name]) / calls[i]
                                                   if calls[i] else 1.0)
        return out

    def top_level_seconds(self) -> float:
        """Time covered by spans with no traced parent (the layer coverage)."""
        return sum(t1 - t0 for _, t0, t1, parent, _, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "job"])
            for idx, t0, t1, parent, job, _ in self.spans:
                w.writerow([self.targets[idx].name, f"{t0:.9f}", f"{t1:.9f}",
                            parent, job])
