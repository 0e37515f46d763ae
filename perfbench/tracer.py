"""Span tracer that times the layers of ``mvdlm`` from outside the package.

Each traced name is replaced, for the duration of a traced run, by a wrapper
that records one span per call: span id, parent span id, run id, name index,
start and end (``time.perf_counter``). A span's parent is the innermost traced
call still open when it starts, so self time (duration minus the time covered
by child spans) is exact for the single-threaded filter.

Names are patched where callers look them up: a function is replaced in every
``mvdlm`` module that holds a reference to it (``mvdlm.dlm.symmetrize`` and
``mvdlm.distributions.symmetrize`` as well as ``mvdlm.linalg.symmetrize``); a
class is traced through its ``__init__`` and a method on its class. A name that
no longer exists is reported as absent and measured as zero calls.

Spans stay in memory in typed arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array

import numpy as np

# (metric name, attribute path in mvdlm.<layer>) per layer. A class name
# traces construction; "Class.method" traces that method.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "dlm": [
        (name, name)
        for name in (
            "filter", "evolve", "discount_noise", "forecast", "update_missing",
            "update_classical", "update_full", "build_masks", "msse",
            "NmiwState", "MaskedObservation",
        )
    ],
    "linalg": [
        ("SpdMatrix", "SpdMatrix"),
        ("solve", "SpdMatrix.solve"),
        ("solve_half", "SpdMatrix.solve_half"),
        ("symmetrize", "symmetrize"),
    ],
    "distributions": [(name, name) for name in ("miw_to_iw", "MiwParams", "MtParams")],
    "simulate": [
        (name, name) for name in ("replicate_experiment", "gen_local_level", "apply_missing")
    ],
    "cli": [
        (name, name)
        for name in (
            "load_config", "parse_csv", "write_csv", "_write_records", "cmd_filter",
            "cmd_simulate",
        )
    ],
}

ROOT_SPAN = "op"


def traced_names() -> list[str]:
    return [f"{layer}.{metric}" for layer, items in TARGETS.items() for metric, _ in items]


class Tracer:
    """Install wrappers, collect spans, and reduce them to per-name totals."""

    def __init__(self, label: str):
        self.label = label
        self.names = [ROOT_SPAN] + traced_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self._ids = itertools.count()
        self._stack = [-1]
        self._run_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.sym_calls_noop = 0
        self.updates_noop = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "mvdlm" or key.startswith("mvdlm."))
        ]
        for layer, items in TARGETS.items():
            home = sys.modules.get(f"mvdlm.{layer}")
            for metric, path in items:
                full = f"{layer}.{metric}"
                if not self._install_one(home, path, full, modules):
                    self.absent.append(full)

    def _install_one(self, home, path: str, full: str, modules) -> bool:
        if home is None:
            return False
        head, _, method = path.partition(".")
        obj = getattr(home, head, None)
        if obj is None:
            return False
        if isinstance(obj, type):
            attr = method or "__init__"
            original = obj.__dict__.get(attr)
            if not callable(original):
                return False
            self._patch(obj, attr, self._wrap(original, full))
            return True
        if method or not callable(obj):
            return False
        wrapper = self._wrap(obj, full)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    self._patch(mod, attr, wrapper)
        return True

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, full: str):
        idx = self._index[full]
        observe = None
        if full == "linalg.symmetrize":
            observe = self._observe_symmetrize
        elif full in ("dlm.update_missing", "dlm.update_classical"):
            observe = self._observe_update
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(token, idx)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_symmetrize(self, args, result) -> None:
        a = np.asarray(args[0])
        if a.ndim == 2 and a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
            self.sym_calls_noop += 1

    def _observe_update(self, args, result) -> None:
        if args and result is args[0]:
            self.updates_noop += 1

    # -- span recording ---------------------------------------------------

    def _enter(self):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _leave(self, token, idx: int) -> None:
        t1 = time.perf_counter()
        sid, parent, t0 = token
        self._stack.pop()
        self.span.append(sid)
        self.parent.append(parent)
        self.run.append(self._run_id)
        self.name.append(idx)
        self.start.append(t0)
        self.end.append(t1)

    def traced_op(self, fn):
        """Call ``fn()`` as one run under a root span and return its result."""
        self._run_id += 1
        token = self._enter()
        try:
            return fn()
        finally:
            self._leave(token, 0)

    # -- reduction and output ---------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds over all runs."""
        sid = np.frombuffer(self.span, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n_names = len(self.names)
        if sid.size == 0:
            zeros = np.zeros(n_names)
            calls = incl = self_s = zeros
        else:
            pos = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
            pos[sid] = np.arange(sid.size)
            has_parent = parent >= 0
            covered = np.bincount(
                pos[parent[has_parent]], weights=dur[has_parent], minlength=sid.size
            )
            calls = np.bincount(name, minlength=n_names)
            incl = np.bincount(name, weights=dur, minlength=n_names)
            self_s = np.bincount(name, weights=dur - covered, minlength=n_names)
        return {
            n: {"calls": float(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            label=np.array(self.label),
            names=np.array(self.names),
            span=np.frombuffer(self.span, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
