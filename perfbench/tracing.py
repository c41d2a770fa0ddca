"""Layer spans recorded from outside the package.

``Tracer.install`` rebinds module-level names inside ``nmixtime`` (the names
the package's own modules call through) to timing wrappers, and
``Tracer.uninstall`` puts the originals back. Spans are kept in memory as
parallel lists and written out once at the end of a run. Only calls made
inside an operation opened with ``Tracer.op`` are recorded, so the
benchmark's correctness checks never appear in the trace.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path

# (module, attribute, span name, measure). A measure maps the call's
# arguments to an amount that is summed and maximised per span name.
LAYERS = (
    ("nmixtime.cli", "main", "cli.main", None),
    ("nmixtime.cli", "_emit", "cli.emit", None),
    ("nmixtime.cli", "load_dataset", "datafiles.load",
     lambda counts, times=None, **_: os.path.getsize(counts)
     + (os.path.getsize(times) if times is not None and os.path.exists(times) else 0)),
    ("nmixtime.cli", "write_dataset", "datafiles.write", None),
    ("nmixtime.cli", "validate_dataset", "model.validate", None),
    ("nmixtime.cli", "simulate_dataset", "simulate", lambda cfg: cfg.design.n_sites),
    ("nmixtime.cli", "fit", "estimate.fit", None),
    ("nmixtime.cli", "total_loglik", "likelihood.total_loglik", lambda ds, *a, **k: ds.n_sites),
    ("nmixtime.estimate", "minimize", "estimate.optimize", None),
    ("nmixtime.estimate", "_curvature_report", "estimate.hessian", None),
    ("nmixtime.estimate", "irrelevant_constants", "estimate.constants", None),
    ("nmixtime.estimate", "total_loglik", "likelihood.total_loglik", lambda ds, *a, **k: ds.n_sites),
    ("nmixtime.likelihood", "total_loglik", "likelihood.total_loglik", lambda ds, *a, **k: ds.n_sites),
    ("nmixtime.model.Parameterization", "resolve", "model.resolve", None),
    ("nmixtime.likelihood", "_workspace_from_rows", "model.workspace", None),
    ("nmixtime.likelihood", "log_pfq_equal_order", "special.pfq", None),
    ("nmixtime.likelihood", "log_poisson_raw_moment", "special.raw_moment", lambda m, log_mu: m),
    ("nmixtime.likelihood", "site_loglik_by_summation", "oracle.fallback", None),
)


def _owner(path: str):
    """Module or class named by a dotted path (a class is ``module.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.amount_sum: dict[str, float] = {}
        self.amount_max: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, name: str, fn):
        """``fn`` wrapped in the root span of one benchmark operation."""

        def run():
            idx = self._open(name)
            try:
                return fn()
            finally:
                self._close(idx)

        return run

    def _wrap(self, name, fn, measure):
        stack, open_, close = self._stack, self._open, self._close
        sums, maxes = self.amount_sum, self.amount_max

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if measure is not None:
                amount = measure(*args, **kwargs)
                sums[name] = sums.get(name, 0) + amount
                maxes[name] = max(maxes.get(name, amount), amount)
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, name, measure in LAYERS:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(json.dumps([i, parent, name, t0, t1]) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        for p, kids in children.items():
            lo, hi = self.starts[p], self.ends[p]
            covered = 0.0
            reach = lo
            for k in sorted(kids, key=self.starts.__getitem__):
                a, b = max(self.starts[k], reach), min(self.ends[k], hi)
                if b > a:
                    covered += b - a
                    reach = b
            out[p] -= covered
        return out

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor (itself for a root)."""
        out: list[int] = []
        for i, p in enumerate(self.parents):
            out.append(i if p < 0 else out[p])  # parents precede their children
        return out
