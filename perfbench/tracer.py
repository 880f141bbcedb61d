"""In-memory span tracing around the program's public functions.

The benchmark traces from the outside: it replaces a public function or
method of a ``src/repro`` module with a wrapper that records one span
per call, and restores the original afterwards. Nothing in the program
changes. A span is the list::

    [name, op, start_s, end_s, parent_name, child_s, opaque]

``op`` identifies the operation (HTTP request or control-loop tick) the
span belongs to; a nested span inherits its parent's. ``child_s`` sums
the durations of the span's direct children, so a layer's self time is
``end_s - start_s - child_s``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

NAME, OP, START, END, PARENT, CHILD, OPAQUE = range(7)


class Tracer:
    """Records spans per thread; a span's op comes from its parent, from
    the call's arguments (``op_of``), or from :attr:`current_op`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[List[list]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._ops_by_object: Dict[int, object] = {}
        #: Op of top-level spans on threads that carry no other source.
        self.current_op: object = None

    # ------------------------------------------------------------ objects

    def register(self, objects: Iterable[object], op: object) -> List[int]:
        """Tie objects (a request, its link, its frames) to an op.

        Work another thread does on these objects is then attributed to
        the op by identity. Returns the keys :meth:`forget` releases.
        """
        keys = [id(obj) for obj in objects if obj is not None]
        for key in keys:
            self._ops_by_object[key] = op
        return keys

    def forget(self, keys: List[int]) -> None:
        """Release identities once their objects may be reused."""
        for key in keys:
            self._ops_by_object.pop(key, None)

    def op_for(self, obj: object) -> object:
        """The op an object was registered under (None when unknown)."""
        return self._ops_by_object.get(id(obj))

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name,
        op_of: Optional[Callable[[tuple], object]] = None,
        opaque: bool = False,
        on_enter: Optional[Callable[[tuple, object], List[int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a ``(args, kwargs) -> name`` function.
        Calls nested inside an ``opaque`` span run unrecorded, which keeps
        per-link inner calls of a batch call from flooding the trace.
        """
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"cannot trace {owner!r}.{attr}: not a function")
        tracer = self
        local = self._local
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = tracer._bind_thread()
            parent = stack[-1] if stack else None
            if parent is not None and parent[OPAQUE]:
                return original(*args, **kwargs)
            if parent is not None:
                op = parent[OP]
            elif op_of is not None:
                op = op_of(args)
            else:
                op = tracer.current_op
            span_name = name(args, kwargs) if callable(name) else name
            span = [
                span_name,
                op,
                0.0,
                0.0,
                parent[NAME] if parent is not None else None,
                0.0,
                opaque,
            ]
            keys = on_enter(args, op) if on_enter is not None else None
            stack.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]
                local.spans.append(span)
                if keys is not None:
                    tracer.forget(keys)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _bind_thread(self) -> list:
        self._local.stack = []
        self._local.spans = []
        with self._lock:
            self._per_thread.append(self._local.spans)
        return self._local.stack

    def unwrap_all(self) -> None:
        """Put every wrapped function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> List[list]:
        """Every finished span, all threads, without the opaque flag."""
        with self._lock:
            threads = list(self._per_thread)
        return [span[:OPAQUE] for spans in threads for span in list(spans)]


def per_op(
    spans: Iterable[list], ops: Iterable[object]
) -> Dict[object, Dict[str, List[float]]]:
    """Per op and span name: ``[total_s, self_s]``."""
    wanted = set(ops)
    table: Dict[object, Dict[str, List[float]]] = {
        op: defaultdict(lambda: [0.0, 0.0]) for op in wanted
    }
    for span in spans:
        op = span[OP]
        if op not in wanted:
            continue
        duration = span[END] - span[START]
        entry = table[op][span[NAME]]
        entry[0] += duration
        entry[1] += duration - span[CHILD]
    return table
