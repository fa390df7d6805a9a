"""Spans around every public tsqueue function, recorded from outside the package.

``Tracer.install`` wraps each function named in the ``__all__`` of a layer
module and rebinds the wrapper in every tsqueue module namespace that holds
the original, so intra-package calls such as ``tsqueue.solver``'s use of
``scaled_hurwitz_zeta`` are traced too.  Each span stores its name, parent
span, start and end; spans stay in in-memory arrays until ``summary`` turns
them into per-layer metrics.  A layer's self time is its spans' time minus
the time covered by their child spans.  A span's bookkeeping, about a
microsecond, falls outside its own clock reads and so counts toward its
parent's self time; trace.overhead_ratio shows what tracing costs in all.

Counters come from returned objects (``SolverResult``, ``FitReport``) and
from ``NoConvergence`` raises.  A name or attribute that no longer exists is
reported as absent instead of failing the run.
"""

import functools
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("zeta", "solver", "norros", "distribution", "fitting", "cli")
ROOT = "op"  # the harness's span around one operation

# Zeta regime buckets: s split at 10 and 1000; small_a where 2*pi*a < s + 14,
# so the direct sum must run long before Euler-Maclaurin takes over.
S_BUCKETS = ("small_s", "mid_s", "large_s")
A_BUCKETS = ("small_a", "large_a")
ZETA_BUCKETS = [f"{s}.{a}" for s in S_BUCKETS for a in A_BUCKETS]


def zeta_buckets(s, a):
    """Index into ZETA_BUCKETS for arrays of zeta arguments; -1 where unknown."""
    s_index = np.where(s < 10.0, 0, np.where(s < 1000.0, 1, 2))
    bucket = 2 * s_index + (2.0 * np.pi * a >= s + 14.0)
    return np.where(np.isfinite(s) & np.isfinite(a), bucket, -1)


def _call(fn, *args):
    return fn(*args)


def _float_arg(args, i):
    try:
        return float(args[i])
    except (IndexError, TypeError, ValueError):
        return math.nan


class Tracer:
    def __init__(self):
        self.names = [ROOT]          # name index -> "layer.function"
        self.layer_of = [-1]         # name index -> LAYERS index (-1: harness)
        self.absent = set()          # layers whose module no longer exists
        self.name_idx = array("i")   # per span, indexed by span id
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.zeta_span = array("i")  # per zeta span: its id and (s, a)
        self.zeta_s = array("d")
        self.zeta_a = array("d")
        self.stack = [-1]
        self.recording = False
        self.counters = {}
        self._cache_info = None
        self._cache_before = None
        self._cache_after = None
        self._no_convergence = None
        self._root = self._wrap(_call, 0)

    # ------------------------------------------------------------ spans

    def _wrap(self, fn, name_index, observe=None, zeta=False):
        """fn under a span; only the span's bookkeeping runs between its clock reads."""
        tracer, stack, clock = self, self.stack, time.perf_counter
        start, end = self.start, self.end
        names_append, parents_append = self.name_idx.append, self.parent.append
        zeta_span, zeta_s, zeta_a = self.zeta_span, self.zeta_s, self.zeta_a

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(start)
            names_append(name_index)
            parents_append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if zeta:
                zeta_span.append(sid)
                zeta_s.append(_float_arg(args, 0))
                zeta_a.append(_float_arg(args, 1))
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid], start[sid] = clock(), t0
                stack.pop()
                if observe:
                    observe(None, exc)
                raise
            end[sid], start[sid] = clock(), t0
            stack.pop()
            if observe:
                observe(result, None)
            return result

        return functools.update_wrapper(traced, fn)

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        return self._root(fn, *args)

    # ---------------------------------------------------------- install

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observer(self, layer, name):
        """Counters read from what a function returns or raises."""
        if (layer, name) == ("solver", "solve_beta"):
            fields, prefix = ("iterations", "fallback_used"), "solver"
        elif layer == "fitting" and name in ("fit_model_i", "fit_model_ii"):
            fields, prefix = ("iterations", "converged"), "fitting"
        else:
            return None

        def observe(result, exc):
            if exc is not None:
                if self._no_convergence and isinstance(exc, self._no_convergence):
                    self._count(f"{prefix}.no_convergence")
                    report = getattr(exc, "report", None)
                    iterations = getattr(exc, "iterations", None)
                    if iterations is None and report is not None:
                        iterations = getattr(report, "iterations", None)
                    if iterations is not None:
                        self._count(f"{prefix}.iterations", iterations)
                        self._count(f"{prefix}.iterations_base")
                return
            for field in fields:
                value = getattr(result, field, None)
                if value is not None:
                    self._count(f"{prefix}.{field}", int(value))
                    self._count(f"{prefix}.{field}_base")

        return observe

    def install(self, package):
        """Wrap every public function of each layer module of ``package``."""
        errors = sys.modules.get(f"{package.__name__}.errors")
        self._no_convergence = getattr(errors, "NoConvergence", None)
        originals = {}
        for li, layer in enumerate(LAYERS):
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                self.absent.add(layer)
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not callable(fn) or isinstance(fn, type):
                    continue  # classes and constants are not layer boundaries
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(li)
                originals[id(fn)] = self._wrap(fn, len(self.names) - 1,
                                               self._observer(layer, name), layer == "zeta")
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        zeta = sys.modules.get(f"{prefix}.zeta")
        self._cache_info = getattr(getattr(zeta, "_scaled_sum", None), "cache_info", None)

    def begin(self):
        """Start recording: counters and cache statistics count from here."""
        self._cache_before = self._cache_info() if self._cache_info else None
        self.recording = True

    def stop(self):
        self.recording = False
        self._cache_after = self._cache_info() if self._cache_info else None

    # ---------------------------------------------------------- summary

    def summary(self, ops):
        """Per-layer metrics as {name: (value, base, absent)}."""
        n = len(self.start)
        name_idx = np.frombuffer(self.name_idx, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        bucket = np.full(n, -1)
        zeta_span = np.frombuffer(self.zeta_span, dtype=np.int32)
        bucket[zeta_span] = zeta_buckets(np.frombuffer(self.zeta_s), np.frombuffer(self.zeta_a))
        dur = (np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[name_idx]
        op_time = float(dur[name_idx == 0].sum())
        ops = max(ops, 1)

        def name_mask(*names):
            wanted = [i for i, full in enumerate(self.names) if full in names]
            return np.isin(name_idx, wanted)

        out = {}

        def put(metric, value, base=None, absent=False):
            out[metric] = (float(value), base, absent)

        def ratio(num, den):
            return num / den if den else 0.0

        for li, lname in enumerate(LAYERS):
            mask = layer == li
            gone = lname in self.absent
            calls, busy = int(mask.sum()), float(self_time[mask].sum())
            if lname in ("zeta", "norros", "distribution"):
                put(f"{lname}.calls_per_op", calls / ops, ops, gone)
            put(f"{lname}.self_ms_per_op", busy * 1e3 / ops, ops, gone)
            if lname == "zeta":
                put("zeta.us_per_call", ratio(busy * 1e6, calls), calls, gone)
                put("zeta.share", ratio(busy, op_time), f"{op_time * 1e3 / ops:.4g} ms per op",
                    gone)
                for bi, bucket_name in enumerate(ZETA_BUCKETS):
                    bmask = mask & (bucket == bi)
                    put(f"zeta.us_per_call.{bucket_name}",
                        ratio(float(self_time[bmask].sum()) * 1e6, int(bmask.sum())),
                        int(bmask.sum()), gone)

        def from_results(metric, numerator, base_key, calls, gone, per_call=False):
            """A ratio of counters read from results, over the results that
            carried the attribute or over all calls; absent when the name is
            gone or calls ran but no result carried the attribute."""
            seen = self.counters.get(base_key, 0)
            base = calls if per_call else seen
            put(metric, ratio(self.counters.get(numerator, 0), base), base,
                gone or (calls > 0 and seen == 0))

        solves = int(name_mask("solver.solve_beta").sum())
        solve_gone = "solver.solve_beta" not in self.names
        put("solver.solves_per_op", solves / ops, ops, solve_gone)
        from_results("solver.iterations_per_solve", "solver.iterations",
                     "solver.iterations_base", solves, solve_gone)
        from_results("solver.fallback_ratio", "solver.fallback_used",
                     "solver.fallback_used_base", solves, solve_gone)
        put("solver.failure_ratio", ratio(self.counters.get("solver.no_convergence", 0), solves),
            solves, solve_gone or self._no_convergence is None)

        fit_names = ("fitting.fit_model_i", "fitting.fit_model_ii")
        fits = int(name_mask(*fit_names).sum())
        fit_gone = not set(fit_names) & set(self.names)
        put("fitting.fits_per_op", fits / ops, ops, fit_gone)
        from_results("fitting.iterations_per_fit", "fitting.iterations",
                     "fitting.iterations_base", fits, fit_gone)
        from_results("fitting.converged_ratio", "fitting.converged",
                     "fitting.converged_base", fits, fit_gone, per_call=True)

        before, after = self._cache_before, self._cache_after
        if before is None or after is None:
            put("zeta.cache_hit_ratio", 0.0, 0, True)
        else:
            hits, misses = after.hits - before.hits, after.misses - before.misses
            put("zeta.cache_hit_ratio", ratio(hits, hits + misses), hits + misses)
        return out
