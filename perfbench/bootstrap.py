"""Run ``repro.cli.main`` with the program's layers wrapped in timers.

Usage::

    python perfbench/bootstrap.py TRACE_FILE serve --port 0 ...

Everything after ``TRACE_FILE`` is passed to ``repro.cli.main``.  Before
that, the public callables listed in :data:`FUNCTIONS` and
:data:`METHODS` are replaced by wrappers that count calls and sum wall
time in memory.  A function is replaced wherever it is bound: in its
defining module *and* in every ``repro`` module that imported it by
name (``from repro.artifacts import instance_key`` binds a second
name that patching ``repro.artifacts`` alone would miss).

SIGUSR1 writes the aggregates so far to ``TRACE_FILE.mark``; at exit
the final aggregates go to ``TRACE_FILE``.  Both are JSON objects
mapping a name to ``[count, seconds]``.  Timers on the event-loop
thread are also recorded under ``<name>@loop``, so work done on the
solver thread can be told apart.  Nothing here changes what the
program computes.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import gc
import importlib
import json
import os
import signal
import sys
import threading
import time
import weakref

_perf = time.perf_counter
_ident = threading.get_ident
_MAIN = threading.get_ident()

#: name -> [count, seconds]
AGG: dict[str, list] = {}


def entry(name: str) -> list:
    """The ``[count, seconds]`` cell of *name* (created on first use)."""
    cell = AGG.get(name)
    if cell is None:
        cell = AGG.setdefault(name, [0, 0.0])
    return cell


def record(name: str, seconds: float = 0.0, count: int = 1) -> None:
    cell = entry(name)
    cell[0] += count
    cell[1] += seconds
    if seconds and _ident() == _MAIN:
        cell = entry(name + "@loop")
        cell[0] += count
        cell[1] += seconds


def dump(path: str) -> None:
    data = {name: list(value) for name, value in list(AGG.items())}
    for name, value in _live_backend_counters().items():
        cell = data.setdefault(name, [0, 0.0])
        cell[0] += value
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def timed(name):
    cell, loop_cell = entry(name), entry(name + "@loop")

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                cell[0] += 1
                cell[1] += elapsed
                if _ident() == _MAIN:
                    loop_cell[0] += 1
                    loop_cell[1] += elapsed
        return wrapper
    return wrap


def counted_distance(fn):
    """Count a backend's scalar ``distance(i, j)`` calls (hot: no timer)."""
    cell = entry("backend.distance_calls")

    @functools.wraps(fn)
    def wrapper(self, i, j):
        cell[0] += 1
        return fn(self, i, j)
    return wrapper


#: the op of the client request the current task is serving
_OP: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_op", default=None)


def handled(name):
    """Time an async ``handle(request)`` per request op."""
    def wrap(fn):
        @functools.wraps(fn)
        async def wrapper(self, request, *args, **kwargs):
            op = (request.get("op", "anonymize")
                  if isinstance(request, dict) else "invalid")
            token = _OP.set(op)
            start = _perf()
            try:
                return await fn(self, request, *args, **kwargs)
            finally:
                record(f"{name}[{op}]", _perf() - start)
                _OP.reset(token)
        return wrapper
    return wrap


def connecting(name):
    """Count outbound connections opened while serving a request."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = _OP.get()
            if op is not None:
                record(f"{name}[{op}]")
            return fn(*args, **kwargs)
        return wrapper
    return wrap


#: perf_counter of the last cache miss on the event-loop thread
_LAST_MISS: list = [None]


def cache_get(fn):
    @functools.wraps(fn)
    def wrapper(self, key):
        evictions = self.stats.evictions
        start = _perf()
        value = fn(self, key)
        now = _perf()
        record("cache.get", now - start)
        record("cache.get_hits" if value is not None else "cache.get_misses")
        record("cache.evictions", count=self.stats.evictions - evictions)
        if value is None and threading.get_ident() == _MAIN:
            _LAST_MISS[0] = now
        return value
    return wrapper


def cache_put(fn):
    @functools.wraps(fn)
    def wrapper(self, key, value):
        evictions = self.stats.evictions
        start = _perf()
        try:
            return fn(self, key, value)
        finally:
            record("cache.put", _perf() - start)
            record("cache.evictions", count=self.stats.evictions - evictions)
    return wrapper


def run_tasks(fn):
    """Time the dispatcher's batch run and its wait since the miss."""
    @functools.wraps(fn)
    def wrapper(task_fn, tasks, *args, **kwargs):
        start = _perf()
        missed = _LAST_MISS[0]
        if missed is not None:
            record("dispatch.wait", start - missed)
            _LAST_MISS[0] = None
        record("dispatch.tasks", count=len(tasks))
        try:
            return fn(task_fn, tasks, *args, **kwargs)
        finally:
            record("dispatch.run_tasks", _perf() - start)
    return wrapper


def state_as_dict(fn):
    @functools.wraps(fn)
    def wrapper(self):
        start = _perf()
        payload = fn(self)
        record("incremental.as_dict", _perf() - start)
        record("incremental.state_bytes",
               count=len(json.dumps(payload, separators=(",", ":"))))
        return payload
    return wrapper


#: the ``counters`` dicts of live backends; a backend's counters are
#: folded into :data:`AGG` when it is collected, so a dump sees every
#: backend exactly once and the per-bump path stays untouched
_LIVE_COUNTERS: dict[int, dict] = {}


def _retire(key: int) -> None:
    counters = _LIVE_COUNTERS.pop(key, None)
    for name, value in (counters or {}).items():
        record("backend." + name, count=value)


def _live_backend_counters() -> dict[str, int]:
    totals: dict[str, int] = {}
    for counters in list(_LIVE_COUNTERS.values()):
        for name, value in list(counters.items()):
            key = "backend." + name
            totals[key] = totals.get(key, 0) + value
    return totals


def backend_init(fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        key = id(self)
        _LIVE_COUNTERS[key] = self.counters
        weakref.finalize(self, _retire, key)
    return wrapper


#: (module, function, wrapper factory) — patched at every binding
FUNCTIONS = (
    ("repro.algorithms.center_cover", "build_ball_cover",
     timed("cover.build_ball_cover")),
    ("repro.algorithms.reduce_cover", "reduce_and_shrink",
     timed("reduce.reduce_and_shrink")),
    ("repro.core.partition", "anonymize_partition",
     timed("suppress.anonymize_partition")),
    ("repro.artifacts", "instance_key", timed("artifacts.instance_key")),
    ("repro.artifacts", "state_key", timed("artifacts.state_key")),
    ("repro.experiments", "run_tasks", run_tasks),
)

#: (module, class, attribute, wrapper factory) — patched on the class
METHODS = (
    ("repro.core.backend", "DistanceBackend", "__init__", backend_init),
    ("repro.core.backend", "DistanceBackend", "distance_row",
     timed("backend.distance_row")),
    ("repro.core.backend", "DistanceBackend", "neighbor_order",
     timed("backend.neighbor_order")),
    ("repro.core.backend", "DistanceBackend", "diameter",
     timed("backend.diameter")),
    ("repro.algorithms.base", "Anonymizer", "anonymize",
     timed("solve.anonymize")),
    ("repro.core.table", "Table", "from_csv", timed("table.from_csv")),
    ("repro.core.table", "Table", "to_csv", timed("table.to_csv")),
    ("repro.service.cache", "SolutionCache", "get", cache_get),
    ("repro.service.cache", "SolutionCache", "put", cache_put),
    ("repro.service.server", "AnonymizationService", "handle",
     handled("server.handle")),
    ("repro.service.router", "ShardRouter", "handle",
     handled("router.handle")),
    ("repro.service.router", "ShardRouter", "routing_key",
     timed("router.routing_key")),
    ("repro.algorithms.incremental", "IncrementalState", "from_dict",
     timed("incremental.from_dict")),
    ("repro.algorithms.incremental", "IncrementalState", "as_dict",
     state_as_dict),
    ("repro.algorithms.incremental", "IncrementalAnonymizer", "from_state",
     timed("incremental.from_state")),
    ("repro.algorithms.incremental", "IncrementalAnonymizer", "insert",
     timed("incremental.insert")),
    ("repro.algorithms.incremental", "IncrementalAnonymizer", "finalize",
     timed("incremental.finalize")),
    ("repro.algorithms.incremental", "IncrementalAnonymizer",
     "export_state", timed("incremental.export_state")),
)

#: distance kernels: every backend class that defines its own
DISTANCE_CLASSES = ("PythonBackend", "NumpyBackend", "BitpackedBackend")


def _patch_method(cls, attribute, factory) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(factory(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attribute, staticmethod(factory(raw.__func__)))
    else:
        setattr(cls, attribute, factory(raw))


def install() -> None:
    """Import the program and patch every listed callable."""
    for module_name in sorted({entry[0] for entry in FUNCTIONS + METHODS}):
        importlib.import_module(module_name)
    importlib.import_module("repro.algorithms")
    importlib.import_module("repro.cli")
    loaded = [module for name, module in list(sys.modules.items())
              if name == "repro" or name.startswith("repro.")]
    for module_name, function, factory in FUNCTIONS:
        original = getattr(sys.modules[module_name], function)
        wrapper = factory(original)
        for module in loaded:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
    for module_name, class_name, attribute, factory in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        _patch_method(cls, attribute, factory)
    backend = sys.modules["repro.core.backend"]
    for class_name in DISTANCE_CLASSES:
        _patch_method(getattr(backend, class_name), "distance",
                      counted_distance)
    # the router opens its shard connections with asyncio streams
    asyncio.open_connection = connecting("connections")(
        asyncio.open_connection)


_GC_START: list = [0.0]


def _gc_callback(phase, info) -> None:
    if phase == "start":
        _GC_START[0] = _perf()
    else:
        record("gc.pause", _perf() - _GC_START[0])
        if info.get("generation") == 2:
            record("gc.gen2_collections")


def main() -> int:
    trace_file = sys.argv[1]
    install()
    gc.callbacks.append(_gc_callback)
    signal.signal(signal.SIGUSR1, lambda *_: dump(f"{trace_file}.mark"))
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        dump(trace_file)


if __name__ == "__main__":
    raise SystemExit(main())
