"""Span recorder that times calls into the program from outside it.

:class:`Tracer` replaces chosen functions and methods with thin wrappers
for the length of one ``with`` block and puts every original back on
exit.  Each wrapper opens a span on a per-thread stack, so spans nest
the way the calls do, and on close the tracer folds the span into a
per-name table of ``[calls, total_s, self_s]``.  Self time is the span's
duration minus the time its child spans cover.  Wrappers can also add
to named counters (bytes sent, waits measured), and *gauges* report how
far a program counter moved while the tracer was active.

Forked pool workers inherit the wrappers.  A worker notices the fork by
its process id, starts from empty tables, and after each of its root
spans closes rewrites ``<dump_dir>/<pid>.json`` with its running
totals; the parent merges those files when the block exits.  This needs
the ``fork`` start method, which ``ProcessPoolExecutor`` uses on Linux.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(args, result) -> {counter: amount}`` for one wrapped call.
Counter = Callable[[tuple, Any], Dict[str, float]]

_MISSING = object()


def _add_spans(into: Dict[str, List[float]], rows: Dict[str, List[float]]) -> None:
    for name, (calls, total, self_time) in rows.items():
        row = into.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_time


class Tracer:
    """Wrap functions for one block; collect spans, counters and gauges.

    ``targets`` holds ``(owner, attr, span_name, count)`` tuples.  The
    owner is a module, a class or a dict (a dispatch table such as the
    pipeline's stage map); ``count`` may be ``None``.  ``gauges`` maps a
    name to a zero-argument callable read at the start and end.
    """

    def __init__(
        self,
        targets: List[Tuple[Any, str, str, Optional[Counter]]],
        gauges: Optional[Dict[str, Callable[[], float]]] = None,
        dump_dir: Optional[Path] = None,
    ):
        self.targets = targets
        self.gauges = dict(gauges or {})
        self.dump_dir = dump_dir
        self._patches: List[Tuple[Any, str, Any]] = []
        self._start(os.getpid(), child=False)

    def _start(self, pid: int, child: bool) -> None:
        self._pid = pid
        self._child = child
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self._base = {name: read() for name, read in self.gauges.items()}
        self._gauge_values: Dict[str, float] = {}

    # -- install / restore ---------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, count in self.targets:
                self._patch(owner, attr, name, count)
        except BaseException:
            self.restore()
            raise
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
        self._start(os.getpid(), child=False)
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
        self._gauge_values = {
            name: read() - self._base[name] for name, read in self.gauges.items()
        }
        self._collect_children()

    def _patch(self, owner: Any, attr: str, name: str, count: Optional[Counter]) -> None:
        if isinstance(owner, dict):
            saved = owner[attr]
            owner[attr] = self._wrap(saved, name, count)
        elif isinstance(owner, type):
            saved = vars(owner).get(attr, _MISSING)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
        else:
            saved = getattr(owner, attr)
            setattr(owner, attr, self._wrap(saved, name, count))
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every original back, last patched first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = saved
            elif saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _wrap(self, fn: Callable, name: str, count: Optional[Counter]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    tracer.add(count(args, result))
                return result
            finally:
                tracer._exit(frame)

        return traced

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        if os.getpid() != self._pid:
            # first span in a forked worker: drop the parent's totals
            self._start(os.getpid(), child=True)
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        with self._lock:
            row = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[2]
        if self._child and not stack:
            self._dump()

    def add(self, amounts: Dict[str, float]) -> None:
        with self._lock:
            for key, amount in amounts.items():
                self.counters[key] += amount

    # -- forked workers --------------------------------------------------

    def _dump(self) -> None:
        if self.dump_dir is None:
            return
        with self._lock:
            payload = {
                "spans": self.spans,
                "counters": dict(self.counters),
                "gauges": {
                    name: read() - self._base[name]
                    for name, read in self.gauges.items()
                },
            }
        path = self.dump_dir / f"{self._pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def _collect_children(self) -> None:
        if self.dump_dir is None or not self.dump_dir.is_dir():
            return
        for path in sorted(self.dump_dir.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            _add_spans(self.spans, payload["spans"])
            for key, amount in payload["counters"].items():
                self.counters[key] += amount
            for key, amount in payload["gauges"].items():
                self._gauge_values[key] = self._gauge_values.get(key, 0) + amount

    # -- results ---------------------------------------------------------

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, [0, 0.0, 0.0])[0])

    def gauge(self, name: str) -> float:
        return self._gauge_values.get(name, 0)

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, (_, _, self_time) in self.spans.items():
            layers[name.split(".", 1)[0]] += self_time
        return dict(layers)
