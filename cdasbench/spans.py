"""Spans recorded around calls into the program's public functions.

A :class:`Tracer` replaces a function (module attribute or class method)
with a wrapper that records one span per call: name, start, end, parent
span and request.  The parent is the span running when the call was
made, carried in a :mod:`contextvars` variable, so it follows asyncio
tasks; the request is the span's root ancestor.

A coroutine does not run for its whole lifetime: it runs in *segments*,
one per resumption by the event loop, and other tasks run in between.
The wrapper therefore records a coroutine span as its segments.  On one
thread, segments nest strictly, so a segment's children are the
segments that started and ended inside it; their intervals are merged
(they never overlap once nested) and subtracted.  A span's self time is
the sum over its segments of the segment's length minus the merged
intervals of the children inside it.  Time in unwrapped code counts to
the innermost wrapped span around it.  Children that run as separate
tasks fall outside the parent's segments and are not subtracted twice.

Spans stay in memory (flat typed arrays) until :meth:`Tracer.summary`
folds them into per-name counts and self times.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from collections.abc import Callable
from typing import Any

__all__ = ["Tracer"]

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "cdasbench_span", default=-1
)


class Tracer:
    """Install span-recording wrappers and keep their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        # One entry per segment.
        self.span = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.self_time = array("d")
        #: Free-form counters (bytes, frames, refusals, idle steps).
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _segment(self, run: Callable[[], Any], sid: int, nid: int, parent: int) -> Any:
        """Run ``run()`` as one segment of span ``sid``."""
        stack = self._stack()
        stack.append(0.0)
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            return run()
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            inner = stack.pop()
            length = end - start
            if stack:
                stack[-1] += length
            self.span.append(sid)
            self.name.append(nid)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.self_time.append(length - inner)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[[tuple, dict, Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around ``fn`` (sync, coroutine or
        async generator — the wrapper keeps its kind).  ``after(args,
        kwargs, result)`` runs after each successful call, ``on_error``
        on each exception; neither counts towards the span."""
        nid = self._name_id(name)
        tracer = self
        if inspect.isasyncgenfunction(fn):
            key = f"{name}.yielded"

            @functools.wraps(fn)
            async def agen_wrapper(*args: Any, **kwargs: Any) -> Any:
                agen = fn(*args, **kwargs)
                try:
                    async for item in agen:
                        tracer.count(key)
                        yield item
                finally:
                    await agen.aclose()

            return agen_wrapper
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(tracer._ids)
                parent = _CURRENT.get()
                try:
                    result = await _Segmented(
                        tracer, fn(*args, **kwargs), sid, nid, parent
                    )
                except BaseException as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                if after is not None:
                    after(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(tracer._ids)
            try:
                result = tracer._segment(
                    lambda: fn(*args, **kwargs), sid, nid, _CURRENT.get()
                )
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return sync_wrapper

    # -- installing ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``cls.attr`` as defined in ``cls`` itself."""
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapped: Any = staticmethod(self.wrap(original.__func__, name, **hooks))
        else:
            wrapped = self.wrap(original, name, **hooks)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, original))

    def patch_function(self, module: Any, attr: str, name: str, **hooks: Any) -> None:
        """Wrap ``module.attr`` and every loaded module's binding of the
        same function (``from module import attr`` copies the name)."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **hooks)
        for other in list(sys.modules.values()):
            if other is None or other is module:
                continue
            if getattr(other, "__name__", "").startswith("repro") and (
                other.__dict__.get(attr) is original
            ):
                setattr(other, attr, wrapped)
                self._patches.append((other, attr, original))
        setattr(module, attr, wrapped)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def segments(self, name: str) -> list[tuple[int, float, float, float]]:
        """``(span, start, end, self)`` of every segment named ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            (self.span[i], self.start[i], self.end[i], self.self_time[i])
            for i in range(len(self.span))
            if self.name[i] == nid
        ]

    def spans(self, name: str) -> list[tuple[float, float, float]]:
        """``(first start, last end, self time)`` per span named ``name``,
        in start order."""
        by_span: dict[int, list[float]] = {}
        for sid, start, end, own in self.segments(name):
            entry = by_span.get(sid)
            if entry is None:
                by_span[sid] = [start, end, own]
            else:
                entry[0] = min(entry[0], start)
                entry[1] = max(entry[1], end)
                entry[2] += own
        return sorted((s, e, o) for s, e, o in by_span.values())

    def requests(self) -> int:
        """Distinct requests: spans whose parent was never recorded in
        this process are roots, and each root opens one request."""
        known = set(self.span)
        return len({s for s, p in zip(self.span, self.parent) if p not in known})

    def summary(self) -> dict[str, Any]:
        """Per-name ``calls`` and ``self_s``, plus the counters."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        seen: set[int] = set()
        for sid, nid, self_time in zip(self.span, self.name, self.self_time):
            own[nid] += self_time
            if sid not in seen:
                seen.add(sid)
                calls[nid] += 1
        return {
            "spans": {
                name: {"calls": calls[i], "self_s": own[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "segments": len(self.span),
            "requests": self.requests(),
        }


class _Segmented:
    """Await a coroutine, recording each of its resumptions as a segment."""

    __slots__ = ("tracer", "coro", "sid", "nid", "parent")

    def __init__(self, tracer: Tracer, coro: Any, sid: int, nid: int, parent: int):
        self.tracer = tracer
        self.coro = coro
        self.sid = sid
        self.nid = nid
        self.parent = parent

    def __await__(self) -> Any:
        coro = self.coro
        value: Any = None
        error: BaseException | None = None
        while True:
            if error is None:
                step = functools.partial(coro.send, value)
            else:
                step = functools.partial(coro.throw, error)
            try:
                yielded = self.tracer._segment(step, self.sid, self.nid, self.parent)
            except StopIteration as stop:
                return stop.value
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value = None
                error = exc
