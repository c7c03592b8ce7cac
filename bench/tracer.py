"""Spans around calls into volldp's public functions, recorded from outside.

The package imports its own functions by name (``from .gaussian import
draw_driver_arrays``), so a function is wrapped on every volldp module that
holds it, and methods are wrapped on their class.  Spans stay in memory;
``per_layer`` turns them into the benchmark's per-layer metrics after the
timed region.  Only the standard library is imported here; numpy is
reached through the arguments the wrapped calls receive.
"""

import functools
import inspect
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kernels", "gaussian", "model", "ratefn", "asymptotics", "cli")

# (span name, module, class or None, attributes).  The layer is the part of
# the span name before the dot.
_TARGETS = (
    ("kernels.eval", "volldp.kernels", "VolterraKernel", ("eval",)),
    ("gaussian.discretize", "volldp.gaussian", None, ("discretize_kernel",)),
    ("gaussian.normals", "volldp.gaussian", None, ("path_normals",)),
    ("gaussian.convolve", "volldp.gaussian", "KernelDiscretization",
     ("convolve_increments",)),
    ("gaussian.draw", "volldp.gaussian", None, ("draw_driver_arrays",)),
    ("model.euler", "volldp.model", None, ("euler_paths_array",)),
    ("model.coeff", "volldp.model", "ConstantMap", ("__call__", "jacobian")),
    ("model.coeff", "volldp.model", "AffineMap", ("__call__", "jacobian")),
    ("model.coeff", "volldp.model", "ExpLinearMap", ("__call__", "jacobian")),
    ("ratefn.solve", "volldp.ratefn", None,
     ("terminal_rate", "i_z", "i_z_m", "i_uncorrelated")),
    ("asymptotics.estimate", "volldp.asymptotics", None,
     ("tilted_estimate", "estimate_tail_prob")),
    ("asymptotics.report", "volldp.asymptotics", None, ("short_time_report",)),
    ("asymptotics.route", "volldp.asymptotics", None,
     ("short_time_values", "short_time_direct")),
    ("asymptotics.diagnostic", "volldp.asymptotics", None,
     ("equivalence_diagnostic", "ldp_slope")),
    ("cli.config", "volldp.config", None, ("load_config",)),
    ("cli.main", "volldp.cli", None, ("main",)),
)

# Nested calls of these spans (a rescaled kernel evaluating its base, a
# Jacobian calling its map) belong to the outermost call.
_OUTERMOST = frozenset({"kernels.eval", "model.coeff"})


def self_times(spans) -> list:
    """Self time of every span: its duration minus the covered child time.

    ``spans`` is a sequence of (name, parent index, start, end) with parent
    index -1 for a root.  Child intervals are clipped to the parent and
    merged before they are subtracted, so overlapping children count once.
    """
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Wraps volldp's public functions and records spans and counts."""

    def __init__(self):
        self.spans = []        # [name, parent index, start, end]
        self.stack = []        # indices of open spans
        self.counts = Counter()
        self._sigma = None     # sigma map of the rate solve in progress
        self._restore = []
        self._cache_before = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        gaussian = sys.modules["volldp.gaussian"]
        self._cache_before = gaussian.discretize_kernel.cache_info()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "volldp" or n.startswith("volldp."))]
        for span, module_name, cls_name, attrs in _TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # e.g. the CLI, in a library workload
                continue
            for attr in attrs:
                if cls_name is not None:
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, original,
                                  self._wrap(span, attr, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span, attr, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []
        info = sys.modules["volldp.gaussian"].discretize_kernel.cache_info()
        before = self._cache_before
        self.counts["gaussian.discretize_hits"] = info.hits - before.hits
        self.counts["gaussian.discretize_misses"] = info.misses - before.misses

    def _replace(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    # -- spans --------------------------------------------------------------

    def _wrap(self, span: str, attr: str, func):
        count = self._counter(span)
        call = self._solve_call(func) if span == "ratefn.solve" else func
        outermost = span in _OUTERMOST
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][0] == span:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([span, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                result = call(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter()
                stack.pop()
            if count is not None:
                count(attr, args, kwargs, result)
            return result

        return wrapper

    def _solve_call(self, func):
        """Run a rate solve, tracking its sigma map and spread warnings."""
        warning = sys.modules["volldp.ratefn"].MultistartSpreadWarning
        bind = inspect.signature(func).bind
        c = self.counts

        def call(*args, **kwargs):
            outer, self._sigma = self._sigma, bind(*args, **kwargs).arguments["coeffs"].sigma
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", warning)
                    result = func(*args, **kwargs)
            finally:
                self._sigma = outer
            for w in caught:
                if issubclass(w.category, warning):
                    c["ratefn.spread_warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            c["ratefn.solves"] += 1
            c["ratefn.iterations"] += int(result.iterations)
            return result

        return call

    def _counter(self, span: str):
        """Counting at the span's boundary, called after each call; or None."""
        c = self.counts
        if span == "kernels.eval":
            def count(attr, args, kwargs, result):
                c["kernels.eval_calls"] += 1
                c["kernels.eval_points"] += _size(getattr(result, "shape", ()))
            return count
        if span == "gaussian.discretize":
            def count(attr, args, kwargs, result):
                c["gaussian.discretize_calls"] += 1
            return count
        if span == "gaussian.normals":
            def count(attr, args, kwargs, result):
                n_paths, n_draws = result.shape
                stride = (n_draws + 3) // 4
                c["gaussian.normals_drawn"] += n_paths * n_draws
                # raw 64-bit words plus the float64 normals returned
                c["gaussian.normals_bytes_computed"] += 8 * n_paths * (4 * stride + n_draws)
            return count
        if span == "gaussian.convolve":
            def count(attr, args, kwargs, result):
                c["gaussian.convolve_calls"] += 1
                c["gaussian.convolve_paths"] += _size(result.shape[:-1])
            return count
        if span == "model.euler":
            def count(attr, args, kwargs, result):
                values = result[0]
                c["model.path_steps"] += values.shape[0] * (values.shape[1] - 1)
            return count
        if span == "model.coeff":
            def count(attr, args, kwargs, result):
                c["model.coeff_points"] += _size(getattr(args[1], "shape", ())[:-1])
                if attr == "jacobian" and args[0] is self._sigma:
                    c["ratefn.grad_evals"] += 1
            return count
        if span == "asymptotics.estimate":
            def count(attr, args, kwargs, result):
                c["asymptotics.hits"] += int(result.n_hits)
                c["asymptotics.tail_paths"] += int(result.n_paths)
            return count
        return None

    # -- metrics ------------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics (seconds and counts) from the recorded spans."""
        selfs = self_times(self.spans)
        self_by_span = Counter()
        total_by_span = Counter()
        for (name, _, start, end), own in zip(self.spans, selfs):
            self_by_span[name] += own
            total_by_span[name] += end - start
        c = self.counts
        m = {}
        for layer in LAYERS:
            m[f"{layer}.layer_s"] = sum(
                v for k, v in self_by_span.items() if k.split(".")[0] == layer
            )
        m["kernels.eval_s"] = self_by_span["kernels.eval"]
        m["kernels.eval_calls"] = c["kernels.eval_calls"]
        m["kernels.eval_points"] = c["kernels.eval_points"]
        m["gaussian.discretize_s"] = self_by_span["gaussian.discretize"]
        m["gaussian.discretize_calls"] = c["gaussian.discretize_calls"]
        lookups = c["gaussian.discretize_hits"] + c["gaussian.discretize_misses"]
        m["gaussian.discretize_hit_ratio"] = (
            c["gaussian.discretize_hits"] / lookups if lookups else 0.0
        )
        m["gaussian.normals_s"] = self_by_span["gaussian.normals"]
        m["gaussian.normals_drawn"] = c["gaussian.normals_drawn"]
        m["gaussian.normals_bytes_computed"] = c["gaussian.normals_bytes_computed"]
        m["gaussian.convolve_s"] = self_by_span["gaussian.convolve"]
        m["gaussian.convolve_calls"] = c["gaussian.convolve_calls"]
        m["gaussian.convolve_paths"] = c["gaussian.convolve_paths"]
        m["gaussian.draw_s"] = self_by_span["gaussian.draw"]
        m["model.euler_s"] = self_by_span["model.euler"]
        m["model.path_steps"] = c["model.path_steps"]
        m["model.coeff_s"] = self_by_span["model.coeff"]
        m["model.coeff_points"] = c["model.coeff_points"]
        m["ratefn.solve_s"] = self_by_span["ratefn.solve"]
        m["ratefn.solves"] = c["ratefn.solves"]
        m["ratefn.iterations"] = c["ratefn.iterations"]
        m["ratefn.grad_evals"] = c["ratefn.grad_evals"]
        m["ratefn.spread_warnings"] = c["ratefn.spread_warnings"]
        m["asymptotics.estimate_s"] = self_by_span["asymptotics.estimate"]
        m["asymptotics.report_s"] = total_by_span["asymptotics.report"]
        m["asymptotics.hit_ratio"] = (
            c["asymptotics.hits"] / c["asymptotics.tail_paths"]
            if c["asymptotics.tail_paths"] else 0.0
        )
        m["cli.config_s"] = total_by_span["cli.config"]
        m["cli.self_s"] = self_by_span["cli.main"]
        return m


def _size(shape) -> int:
    size = 1
    for n in shape:
        size *= n
    return size
