"""Per-layer tracing of hyperverify from outside the package.

A layer is one module of the package (cli, suites, identities, hyper,
series, exact).  :func:`install` rebinds every public function of the
chosen layers, and the public methods and arithmetic operators of their
public classes, to a wrapper that records a span around the call.  Module
attributes are rebound in every ``hyperverify`` module that holds the
function, because ``from .x import f`` copies the binding.  Nothing in the
package is edited; :meth:`Installation.restore` puts every original object
back, so an untraced pass after a traced one runs the original code.

Spans are aggregated as they close instead of being stored: each name
accumulates its inclusive time and call count, and each layer its self
time, the span's duration minus the part covered by its child spans.
"""

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "suites", "identities", "hyper", "series", "exact")
PACKAGE = "hyperverify"

# Operators and constructors traced besides the public methods.  Hot
# accessors (__getitem__, properties) stay untraced: they are called inside
# their own layer and would only add overhead.
TRACED_DUNDERS = ("__init__", "__mul__", "__rmul__", "__add__", "__sub__",
                  "__neg__", "__eq__")


class Tracer:
    """Span and counter aggregates of one traced pass."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack = []                  # child time of each open span
        self.total = defaultdict(float)  # inclusive seconds by span name
        self.calls = Counter()           # calls by span name
        self.self_time = defaultdict(float)  # exclusive seconds by layer
        self.counts = Counter()          # deterministic counters
        self.max_bits = defaultdict(int)  # largest bit length by counter
        self.case_times = []             # seconds per grid case

    def call(self, name, layer, fn, args, kwargs):
        """Run fn inside a span called name that belongs to layer."""
        clock = self.clock
        stack = self.stack
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self.total[name] += duration
            self.calls[name] += 1
            self.self_time[layer] += duration - frame[0]

    def note_bits(self, key, values):
        """Raise counter key to the largest bit length among values."""
        best = self.max_bits[key]
        for v in values:
            if isinstance(v, Fraction):
                best = max(best, v.numerator.bit_length(),
                           v.denominator.bit_length())
        self.max_bits[key] = best


def _bit_values(records):
    for rec in records:
        for side in (rec.lhs, rec.rhs):
            if isinstance(side, tuple):
                yield from side
            else:
                yield side


# Counters and labels attached to particular targets, keyed "layer.qualname".
# ``after(tracer, args, result)`` runs once the call returns; ``before``
# may replace the keyword arguments; ``label`` names the span.

def _after_mul(tracer, args, result):
    left, right = args
    n = result.order
    if isinstance(right, type(left)):
        nonzero_prefix = []
        seen = 0
        for c in right.coefficients[: n + 1]:
            seen += c != 0
            nonzero_prefix.append(seen)
        ops = sum(nonzero_prefix[n - i]
                  for i, c in enumerate(left.coefficients[: n + 1]) if c)
    else:
        ops = sum(1 for c in left.coefficients if c) if right else 0
    tracer.counts["series.mul_coeff_ops"] += ops
    tracer.note_bits("series.max_bits", result.coefficients)


def _after_termination(tracer, args, result):
    if result is not None:
        tracer.counts["hyper.terms"] += result + 1


def _after_pochhammer(tracer, args, result):
    tracer.counts["exact.pochhammer_factors"] += args[1]


def _after_records(tracer, args, result):
    tracer.note_bits("cli.max_bits", _bit_values(result))


def _before_grid_sweep(tracer, kwargs):
    """Time each case when the sweep runs in this process."""
    mapper = kwargs.get("mapper", map)
    if mapper is not map:
        return kwargs
    clock = tracer.clock

    def timing_map(fn, items):
        for item in items:
            start = clock()
            out = fn(item)
            tracer.case_times.append(clock() - start)
            yield out

    return dict(kwargs, mapper=timing_map)


SPECIAL = {
    "series.TruncatedSeries.__mul__": dict(after=_after_mul),
    "hyper.termination_index": dict(after=_after_termination),
    "hyper.weighted_termination": dict(after=_after_termination),
    "exact.pochhammer": dict(after=_after_pochhammer),
    "identities.grid_sweep": dict(before=_before_grid_sweep,
                                  after=_after_records),
    "suites.Suite.run": dict(label=lambda args: f"suites.{args[0].name}",
                             after=_after_records),
}


def _wrap(tracer, fn, name, layer):
    special = SPECIAL.get(name, {})
    before = special.get("before")
    after = special.get("after")
    label = special.get("label")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            kwargs = before(tracer, kwargs)
        span = name if label is None else label(args)
        result = tracer.call(span, layer, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _targets(module):
    """(owner, attribute, raw object, function, span qualname) to trace."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, attr, obj, obj, attr))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for name, raw in vars(obj).items():
                if name.startswith("_") and name not in TRACED_DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    out.append((obj, name, raw, fn, f"{obj.__name__}.{name}"))
    return out


class Installation:
    """Rebindings made by :func:`install`, undone by :meth:`restore`."""

    def __init__(self):
        self.saved = []  # (owner, attribute, original)

    def rebind(self, owner, attr, new):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer, layers=LAYERS):
    """Trace the given layers; returns the Installation to restore."""
    inst = Installation()
    try:
        _install(tracer, layers, inst)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install(tracer, layers, inst):
    modules = _package_modules()
    for layer in layers:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        wrapped = {}  # id(function) -> wrapper, shared by aliases
        for owner, attr, raw, fn, qualname in _targets(module):
            wrapper = wrapped.get(id(fn))
            if wrapper is None:
                wrapper = _wrap(tracer, fn, f"{layer}.{qualname}", layer)
                wrapped[id(fn)] = wrapper
            if owner is module:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            inst.rebind(m, name, wrapper)
            else:
                new = type(raw)(wrapper) if isinstance(
                    raw, (classmethod, staticmethod)) else wrapper
                inst.rebind(owner, attr, new)
        if layer == "identities":
            _count_weight_rows(tracer, module, inst)
        if layer == "cli":
            inst.rebind(module, "ProcessPoolExecutor",
                        _traced_pool(tracer, module.ProcessPoolExecutor))


def _count_weight_rows(tracer, identities, inst):
    """Count calls into the tabulated weight functions, row by row."""
    counts = tracer.counts

    def counted(fn):
        def row(b, n):
            counts["identities.weight_evals"] += 1
            return fn(b, n)
        return row

    table = identities.COEFF_TABLE
    for j, pair in list(table.items()):
        inst.saved.append((table, j, pair))
        table[j] = tuple(counted(fn) for fn in pair)


def _traced_pool(tracer, base):
    """A pool class that counts starts and times start-up and shutdown.

    The constructor and the first submit start the workers (all of them
    under the fork start method), and shutdown joins them.
    """

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            start = tracer.clock()
            super().__init__(*args, **kwargs)
            self._perfbench_started = False
            tracer.counts["cli.pool_starts"] += 1
            tracer.total["cli.pool_start"] += tracer.clock() - start

        def submit(self, *args, **kwargs):
            if self._perfbench_started:
                return super().submit(*args, **kwargs)
            self._perfbench_started = True
            start = tracer.clock()
            try:
                return super().submit(*args, **kwargs)
            finally:
                tracer.total["cli.pool_start"] += tracer.clock() - start

        def shutdown(self, *args, **kwargs):
            start = tracer.clock()
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.total["cli.pool_start"] += tracer.clock() - start

    return TracedPool


# Per-layer metrics: name -> (unit, better).  Units mark the kind: "s" and
# "ms" are span timings, "count" is counted at a traced call, and the
# "-computed" units are derived from the values passing a traced call.
# Every count repeats exactly for a given seed.
SUITE_NAMES = ("kummer", "transform", "theorem-a", "theorem-d", "corollary",
               "pipeline")
PER_LAYER = {
    "series.self_s": ("s", "lower"),
    "series.mul_s": ("s", "lower"),
    "series.compose_s": ("s", "lower"),
    "series.mul_calls": ("count", "lower"),
    "series.mul_coeff_ops": ("count-computed", "lower"),
    "series.max_bits": ("bits-computed", "lower"),
    "hyper.self_s": ("s", "lower"),
    "hyper.eval_terminating_s": ("s", "lower"),
    "hyper.weighted_sum_s": ("s", "lower"),
    "hyper.series_in_z_s": ("s", "lower"),
    "hyper.terms": ("count-computed", "lower"),
    "exact.self_s": ("s", "lower"),
    "exact.gamma_simplify_s": ("s", "lower"),
    "exact.gamma_simplify_calls": ("count", "lower"),
    "exact.pochhammer_calls": ("count", "lower"),
    "exact.pochhammer_factors": ("count-computed", "lower"),
    "identities.self_s": ("s", "lower"),
    "identities.transform_lhs_s": ("s", "lower"),
    "identities.transform_rhs_s": ("s", "lower"),
    "identities.kummer_rhs_s": ("s", "lower"),
    "identities.theorem_lhs_s": ("s", "lower"),
    "identities.theorem_rhs_s": ("s", "lower"),
    "identities.corollary_rhs_s": ("s", "lower"),
    "identities.pipeline_s": ("s", "lower"),
    "identities.prefactor_s": ("s", "lower"),
    "identities.weight_evals": ("count", "lower"),
    "identities.case_p50_ms": ("ms", "lower"),
    "identities.case_tail_ms": ("ms", "lower"),
    "suites.self_s": ("s", "lower"),
    **{f"suites.{name}_s": ("s", "lower") for name in SUITE_NAMES},
    "cli.self_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.pool_starts": ("count", "lower"),
    "cli.pool_start_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.max_bits": ("bits-computed", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def is_count(name):
    return PER_LAYER[name][0] not in ("s", "ms", "ratio")


def pass_metrics(t):
    """The per-layer metrics one traced pass yields, spans and counters."""
    total, calls = t.total, t.calls

    def inclusive(*names):
        return sum(total[n] for n in names)

    parse = total["cli.SweepConfig.from_dict"]
    out = {
        "series.self_s": t.self_time["series"],
        "series.mul_s": total["series.TruncatedSeries.__mul__"],
        "series.compose_s": total["series.compose"],
        "series.mul_calls": calls["series.TruncatedSeries.__mul__"],
        "series.mul_coeff_ops": t.counts["series.mul_coeff_ops"],
        "series.max_bits": t.max_bits["series.max_bits"],
        "hyper.self_s": t.self_time["hyper"],
        "hyper.eval_terminating_s": total["hyper.eval_terminating"],
        "hyper.weighted_sum_s": inclusive("hyper.eval_weighted_sum",
                                          "hyper.weighted_series"),
        "hyper.series_in_z_s": total["hyper.series_in_z"],
        "hyper.terms": t.counts["hyper.terms"],
        "exact.self_s": t.self_time["exact"],
        "exact.gamma_simplify_s": total["exact.gamma_simplify"],
        "exact.gamma_simplify_calls": calls["exact.gamma_simplify"],
        "exact.pochhammer_calls": calls["exact.pochhammer"],
        "exact.pochhammer_factors": t.counts["exact.pochhammer_factors"],
        "identities.self_s": t.self_time["identities"],
        "identities.transform_lhs_s": total["identities.gen_transform_lhs_series"],
        "identities.transform_rhs_s": total["identities.gen_transform_rhs_series"],
        "identities.kummer_rhs_s": total["identities.kummer_rhs_series"],
        "identities.theorem_lhs_s": total["identities.theorem_lhs"],
        "identities.theorem_rhs_s": total["identities.theorem_rhs"],
        "identities.corollary_rhs_s": total["identities.corollary_rhs"],
        "identities.pipeline_s": total["identities.beta_integral_pipeline"],
        "identities.prefactor_s": inclusive("identities.even_prefactor",
                                            "identities.odd_prefactor"),
        "identities.weight_evals": t.counts["identities.weight_evals"],
        "suites.self_s": t.self_time["suites"],
        **{f"suites.{name}_s": total[f"suites.{name}"] for name in SUITE_NAMES},
        "cli.self_s": t.self_time["cli"] - parse,
        "cli.parse_s": parse,
        "cli.pool_starts": t.counts["cli.pool_starts"],
        "cli.pool_start_s": total["cli.pool_start"],
        "cli.max_bits": t.max_bits["cli.max_bits"],
    }
    return out
