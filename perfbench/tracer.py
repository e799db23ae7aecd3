"""In-memory span recorder that wraps a program's layer entry points.

The benchmark never edits the program: in a traced run it replaces a
layer's public function or method with a wrapper that records one span
per call — name, start, end, parent span and request id — into flat
integer arrays.  Nothing is written until the run ends.

Parent links and request ids travel in a :class:`contextvars.ContextVar`,
so they follow asyncio tasks (each task copies the context it was
created in) as well as plain nested calls.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from array import array

#: (index of the innermost open span or -1, request id)
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(-1, 0)
)


class Tracer:
    """Records spans for the functions it wraps; :meth:`uninstall` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        self._next_req = 1
        # The server's drain thread records spans too; the five arrays
        # must grow in step.
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, new_request: bool) -> tuple[int, contextvars.Token]:
        parent, req = _CURRENT.get()
        with self._lock:
            if new_request or req == 0:
                req = self._next_req
                self._next_req += 1
            idx = len(self.name)
            self.name.append(nid)
            self.end.append(0)
            self.parent.append(parent)
            self.req.append(req)
            self.start.append(time.perf_counter_ns())
        return idx, _CURRENT.set((idx, req))

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.end[idx] = time.perf_counter_ns()
        _CURRENT.reset(token)

    def wrapper(self, fn, name: str, *, new_request: bool = False):
        """A function that records a span around every call of ``fn``.

        A span opened outside any other span starts a new request id, as
        does every span of a ``new_request`` wrapper; nested spans share
        their parent's id.
        """
        nid = self._name_id(name)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                idx, token = self._open(nid, new_request)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(idx, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, token = self._open(nid, new_request)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, token)

        return traced

    # -- installation ------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Wrap ``cls.attr`` (a plain function in the class body)."""
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self.wrapper(fn, name, **kw))

    def wrap_function(self, fn, name: str) -> None:
        """Wrap module-level ``fn`` in every ``repro`` module that binds it.

        ``from x import f`` copies the reference, so each importing
        module's binding is replaced, not only the defining module's.
        """
        traced = self.wrapper(fn, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name)

    def dump(self) -> dict:
        """All spans, one integer array per field."""
        return {
            "names": list(self.names),
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "req": self.req,
        }


def write(spans: dict, path) -> None:
    """Write spans as JSON, one field at a time (a traced xmp run holds
    hundreds of thousands of engine-step spans)."""
    with open(path, "w") as fh:
        fh.write("{")
        for k, (field, values) in enumerate(spans.items()):
            if k:
                fh.write(", ")
            fh.write(f"{json.dumps(field)}: ")
            fh.write(json.dumps(list(values)))
        fh.write("}")


def window(spans: dict, lo: int, hi: int) -> dict:
    """The spans that start inside ``[lo, hi)``, parents renumbered
    (a parent outside the window becomes -1)."""
    keep = [i for i, s in enumerate(spans["start_ns"]) if lo <= s < hi]
    new = {old: k for k, old in enumerate(keep)}
    out = {"names": spans["names"]}
    for field in ("name", "start_ns", "end_ns", "req"):
        out[field] = [spans[field][i] for i in keep]
    out["parent"] = [new.get(spans["parent"][i], -1) for i in keep]
    return out


def rollup(spans: dict) -> dict[str, dict]:
    """Per span name: count, inclusive and self seconds, p50/p99 (ms).

    Self time is a span's duration minus the time its direct children
    cover.  Children of an async span can run interleaved with other
    tasks, so an async span's self time also holds time the event loop
    spent elsewhere — it reads as waiting, not as work.
    """
    names = spans["names"]
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    n = len(start)
    dur = array("q", (end[i] - start[i] for i in range(n)))
    child = array("q", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    per: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    for i in range(n):
        key = names[spans["name"][i]]
        per.setdefault(key, []).append(dur[i])
        self_ns[key] = self_ns.get(key, 0) + max(0, dur[i] - child[i])
    out: dict[str, dict] = {}
    for key, durs in per.items():
        durs.sort()
        out[key] = {
            "count": len(durs),
            "incl_s": sum(durs) / 1e9,
            "self_s": self_ns[key] / 1e9,
            "p50_ms": durs[(len(durs) - 1) // 2] / 1e6,
            "p99_ms": durs[min(len(durs) - 1, (99 * len(durs)) // 100)] / 1e6,
        }
    return out


def covered_ns(spans: dict, lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` that at least one span covers."""
    ivs = sorted(
        (max(s, lo), min(e, hi))
        for s, e in zip(spans["start_ns"], spans["end_ns"])
        if e > lo and s < hi
    )
    total = 0
    cur_s = cur_e = None
    for s, e in ivs:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
