"""In-memory span tracer that wraps public methods of the program's layers.

The benchmark never edits the program: for the duration of a traced run it
replaces selected class or module attributes with timing wrappers and restores the
originals afterwards.  Every call records a span ``(name, request, start_ns,
end_ns, parent)``; a span's self time is its duration minus the time covered
by the spans it caused on the same thread.  Spans stay in memory until the
run ends and can then be written out with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] | None = None


class Tracer:
    """Collects spans from wrapped methods; install/uninstall is reversible."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._span_lists: dict[str, list[tuple]] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Identifier shared by every span of the current request (the
        #: benchmark sets it to the shot or request index before each call).
        self.request = -1

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, name: str, span: str) -> None:
        """Replace ``owner.name`` by a timed wrapper.

        ``owner`` is a class (the method must be defined on the class itself,
        not inherited) or a module (the function as that module looks it up).
        """
        original = vars(owner).get(name)
        if original is None:
            raise AttributeError(f"{owner.__name__} defines no {name!r}")
        self._patches.append((owner, name, original))
        setattr(owner, name, self._timed(original, span))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _thread_spans(self) -> list[tuple]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._span_lists[threading.current_thread().name] = state.spans
        return state.spans

    def _timed(self, function, span: str):
        state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            spans = state.spans if state.spans is not None else self._thread_spans()
            stack = state.stack
            # frame = [child_ns, own index in ``spans``]
            frame = [0, len(spans)]
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans[frame[1]] = (span, self.request, start, end, parent, duration - frame[0])

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def spans(self, thread: str | None = None) -> list[tuple]:
        """Finished spans ``(name, request, start_ns, end_ns, parent, self_ns)``."""
        with self._lock:
            lists = (
                list(self._span_lists.values())
                if thread is None
                else [self._span_lists.get(thread, [])]
            )
        return [span for spans in lists for span in spans if span is not None]

    def summary(
        self, thread: str | None = None, window: tuple[int, int] | None = None
    ) -> dict[str, dict]:
        """Per span name: ``calls`` and ``self_s``.

        ``window`` keeps only spans that start inside ``[start_ns, end_ns)``.
        """
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _request, start, _end, _parent, self_ns in self.spans(thread):
            if window is not None and not window[0] <= start < window[1]:
                continue
            row = table[name]
            row["calls"] += 1
            row["self_s"] += self_ns * 1e-9
        return dict(table)

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, request, start, end, parent, self)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")
