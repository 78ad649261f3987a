"""Outside-in span tracer for the sbanm benchmark.

The program itself carries no timers, so the tracer wraps public functions
from outside: every module binding of a target function (the defining
module and each consumer that imported the name) is replaced by one
wrapper that records a span and, optionally, computed work counts.  Spans
are kept in memory until the run ends; a span's self time is its duration
minus the durations of its direct children (calls nest on one thread, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _log_density_batch_counts(args):
    # Computed, not measured: each row reads K weights and writes one density.
    rows = np.atleast_2d(args["x"]).shape[0]
    K = np.atleast_1d(args["mu"]).size
    return {"rows": rows, "bytes_computed": rows * (K + 1) * 8}


def _pairs_to_square_counts(args):
    # Computed, not measured: the dense float64 output is n * n per trailing entry.
    extra = math.prod(np.shape(args["values"])[1:])
    return {"bytes_computed": args["n"] * args["n"] * 8 * extra}


def _svi_e_step_counts(args):
    from sbanm.svi import subsample_size

    m = subsample_size(args["t"], args["cfg"], args["state"].n)
    return {"subsample_pairs": m * (m - 1) // 2}


def _fit_counts(_args, result):
    trace = list(result.elbo_trace)
    drops = sum(1 for a, b in zip(trace, trace[1:]) if b < a)
    return {"outer_iters": len(trace), "elbo_drops": drops}


def _file_bytes(args, _result=None):
    return {"bytes": os.path.getsize(args["path"])}


# (module, function, counts before the call, counts after the call)
TARGETS = [
    ("model", "log_density_batch", _log_density_batch_counts, None),
    ("model", "pairs_to_square", _pairs_to_square_counts, None),
    ("init", "spectral_init", None, None),
    ("vem", "fit", None, _fit_counts),
    ("vem", "estimate_tau", None, None),
    ("vem", "estimate_P", None, None),
    ("vem", "m_step_block", None, None),
    ("vem", "m_step_noise", None, None),
    ("vem", "elbo", None, None),
    ("svi", "svi_e_step", _svi_e_step_counts, None),
    ("evaluate", "icl", None, None),
    ("io", "read_network", _file_bytes, None),
    ("io", "write_network", None, _file_bytes),
    ("io", "write_memberships", None, None),
    ("simulate", "gen_network", None, None),
]


class Tracer:
    """Records (name, start, end, parent) spans and per-span-name counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def _wrap(self, name, fn, before, after):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = None
            if before or after:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if before:
                for key, value in before(bound).items():
                    tracer.counts[f"{name}.{key}"] += value
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after:
                for key, value in after(bound, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every sbanm module attribute bound to a target function."""
        for module_name, attr, before, after in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"sbanm.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            traced = self._wrap(name, fn, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sbanm" and not mod_name.startswith("sbanm."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, traced)

    def restore(self) -> None:
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return dict(out)
