"""Span and count tracing around the public functions of the ttfilter layers.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds each name under which any ttfilter module holds it, so the imported
copies (``tracker.minimize``, ``consistency.minimize``,
``hessfix.minimize``, ...) are wrapped too and spans nest.  Spans are kept
in memory as ``(name, start, end, parent)`` and written out on request.
A span's self time is its duration minus the durations of its traced
children.  ``uninstall`` restores every original binding.

Counts are gathered at the same boundaries.  ``optimize.minimize`` is split
by caller, read from the enclosing span: the main fit in ``tracker.step``,
the first-frame refit in ``tracker.init_belief``, the recovery fits in
``consistency`` and the reduced fits in ``hessfix``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "tracker", "optimize", "nll", "consistency", "hessfix",
    "quadrature", "moments", "model", "metrics",
)
PACKAGE = "ttfilter"

_CALLERS = {
    "tracker.step": "main",
    "tracker.init_belief": "init",
    "consistency.one_by_one_recovery": "recovery",
    "consistency.square_hopping_recovery": "recovery",
    "hessfix.repair_hessian": "hessfix",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._span_caller: dict[int, str] = {}  # minimize span -> caller
        self._last_statistic = float("nan")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        is_minimize = name == "optimize.minimize"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_minimize:
                parent_name = self.names[spans[parent][0]] if parent >= 0 else ""
                caller = _CALLERS.get(parent_name, "other")
                args, evals = _count_evals(args, kwargs)
            idx = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            counts[name + ".calls"] += 1
            if is_minimize:
                key = f"optimize.minimize.{caller}"
                counts[key + ".calls"] += 1
                counts[key + ".iters"] += result.iterations
                counts[key + ".evals"] += evals[0]
                self._span_caller[idx] = caller
            elif hook is not None:
                hook(args, result)
            return result

        return traced

    def _after_consistency_is_consistent(self, args, result):
        ok, stat = result
        self.counts["consistency.is_consistent.rejects"] += not ok
        self._last_statistic = stat

    def _after_consistency_one_by_one_recovery(self, args, result):
        # tracker.step adopts the candidate when it beats the last gate statistic
        self.counts["consistency.one_by_one_recovery.adopted"] += (
            2.0 * result.value < self._last_statistic
        )

    def _after_consistency_square_hopping_recovery(self, args, result):
        self.counts["consistency.square_hopping_recovery.attempts"] += result.attempts
        self.counts["consistency.square_hopping_recovery.passed"] += result.gate_passed

    def _after_hessfix_repair_hessian(self, args, result):
        self.counts["hessfix.repair_hessian.repaired"] += bool(result.exclusions)

    def _after_quadrature_polar_sigma_adjust(self, args, result):
        self.counts["quadrature.polar_sigma_adjust.applied"] += result is not args[0]

    def _after_nll_combined_value_batch(self, args, result):
        self.counts["nll.combined_value_batch.points"] += len(args[0])

    # -- reduction ----------------------------------------------------------

    def times_ms(self) -> dict[str, float]:
        """Self and total milliseconds per span name (minimize also per caller)."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            dur = end - start
            keys = [self.names[name_id]]
            if idx in self._span_caller:
                keys.append(f"{keys[0]}.{self._span_caller[idx]}")
            for key in keys:
                out[key + ".total_ms"] += 1e3 * dur
                out[key + ".ms"] += 1e3 * (dur - child[idx])
        return dict(out)

    def top_level_s(self) -> float:
        """Summed duration of spans with no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start and end in s from the first span, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]},{start - t0:.7f},{end - t0:.7f},{parent}\n")


def _count_evals(args, kwargs):
    """Wrap minimize's objective so its evaluations are counted."""
    evals = [0]
    if args:
        fun, rest = args[0], args[1:]
    else:
        fun, rest = kwargs.pop("fun"), ()

    def counted(x):
        evals[0] += 1
        return fun(x)

    return (counted, *rest), evals
