"""Outside-in tracer: spans around the public functions of each layer.

Nothing in the program is edited.  ``Tracer.install`` replaces every module
attribute that binds one of the layer functions with a timing wrapper, so
calls through names imported elsewhere (``semigroup.solve_qep``,
``conditions.beam_assemble``, ``spectrum.validate``, ...) are caught too.
The LAPACK-backed entry points the program calls (``numpy.linalg`` svd,
eig, eigh and eigvalsh, and scipy's ``lu_factor`` and ``expm`` where a
specdamp module binds them) are wrapped the same way under the ``lapack``
layer.  ``uninstall`` restores every attribute.

In ``cli`` only ``main`` is a span: the ``run_*`` subcommand bodies it
dispatches to count as its self time, which is then parsing, JSON, CSV and
SVG emission and file writes.

Spans are recorded only while a request is open and kept in memory; each
holds its request id and its parent span.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "model", "spectrum", "krein", "conditions", "semigroup", "linalg")

# (module that defines it, attribute) -> span name
LAPACK = {
    ("numpy.linalg", "svd"): "lapack.svd",
    ("numpy.linalg", "eig"): "lapack.eig",
    ("numpy.linalg", "eigh"): "lapack.eigh",
    ("numpy.linalg", "eigvalsh"): "lapack.eigvalsh",
    ("scipy.linalg", "lu_factor"): "lapack.lu",
    ("scipy.linalg", "expm"): "lapack.expm",
}


def _layer_functions() -> dict[object, str]:
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"specdamp.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and name != "main":
                continue
            targets[obj] = f"{layer}.{name}"
    for (modname, attr), span in LAPACK.items():
        targets[getattr(importlib.import_module(modname), attr)] = span
    return targets


class Tracer:
    """Collects spans for the requests run between ``begin`` and ``end``."""

    def __init__(self):
        # span: [id, parent, request, name, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer function (idempotent)."""
        if self._patched:
            return
        targets = _layer_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        homes = [m for n, m in list(sys.modules.items()) if n == "specdamp" or n.startswith("specdamp.")]
        homes.append(importlib.import_module("numpy.linalg"))
        for mod in homes:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable attribute values
                    continue
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, self._request, name, time.perf_counter(), None]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- requests ----------------------------------------------------------

    def begin(self, request_id: str) -> None:
        self._request = request_id

    def end(self) -> None:
        self._request = None
        self._stack.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self, request_prefix: str = "") -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``.

        Only spans whose request id starts with ``request_prefix`` count.
        """
        child_time = defaultdict(float)
        for sid, parent, req, _name, start, end in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, req, name, start, end in self.spans:
            if end is None or not req.startswith(request_prefix):
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write(self, path: str) -> None:
        """Write all spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end in self.spans:
                row = {"id": sid, "parent": parent, "request": req, "name": name,
                       "start": start - t0, "end": None if end is None else end - t0}
                fh.write(json.dumps(row) + "\n")
