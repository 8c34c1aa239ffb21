"""Spans around rhizalab's public functions, recorded from outside the program.

``Tracer.install`` replaces every public function of every ``rhizalab``
module with a wrapper, *in each module namespace that holds it*.  Modules
import by name (``from .exactlin import rref``), so wrapping only the
defining module would miss the calls other modules make.  The same wrapper
object is installed everywhere one function appears.

A span is (name, layer, start, end, parent, command index, extra); spans stay
in memory until the run ends.  Self time is a span's duration minus its
children's durations and minus the time of aggregated hot calls beneath it.
``eval_product`` is hot, so it only updates a call count and a time total.
Scalar and vector helpers (``rational``, ``vec_add``, ...) are not wrapped at
all: their cost stays in the caller's self time.

Extras computed after a call (the bit height of an RREF, for instance) are
bookkeeping: their time is added to ``excluded`` and removed from the
duration of every span open around them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

UNWRAPPED = frozenset(
    {"rational", "rational_str", "vec", "vec_zero", "basis_vec", "vec_add", "vec_sub", "vec_neg", "vec_scale", "vec_is_zero"}
)
AGGREGATED = frozenset({"eval_product"})

# rref shapes the solve workload produces: vector systems at n = 4, 5 and 6.
SOLVE_SHAPES = ((320, 64), (750, 125), (1512, 216))


def _max_bits(entries) -> int:
    best = 0
    for e in entries:
        b = max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        if b > best:
            best = b
    return best


def _rref_extra(args, kwargs, result):
    m = args[0]
    reduced, rank = result
    return (m.rows, m.cols, rank, _max_bits(reduced.entries))


def _len_extra(args, kwargs, result):
    return len(result)


def _violations_extra(args, kwargs, result):
    return len(result.violations)


def _extra_for(layer: str, name: str):
    if layer == "exactlin" and name == "rref":
        return _rref_extra
    if layer == "cocycles" and name in ("vector_cocycle_space", "scalar_cocycle_space"):
        return _len_extra
    if layer == "axioms" and name.startswith("check_"):
        return _violations_extra
    return None


class Tracer:
    """Span records are lists: [name, layer, start, end, parent index, command
    index, extra, excluded at start, excluded at end, hot-call time beneath]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.excluded = 0.0
        self.hot: dict[str, list] = {}
        self.cmd = -1
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap public rhizalab functions in every loaded rhizalab module; returns the count."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "rhizalab" or name.startswith("rhizalab.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("rhizalab"):
                    continue
                if obj.__name__.startswith("_") or obj.__name__ in UNWRAPPED:
                    continue
                setattr(mod, attr, self._wrapper(obj))
        return len(self._wrappers)

    def _wrapper(self, fn):
        w = self._wrappers.get(id(fn))
        if w is None:
            layer = fn.__module__.split(".")[1] if "." in fn.__module__ else fn.__module__
            if fn.__name__ in AGGREGATED:
                w = self._hot_wrapper(fn, f"{layer}.{fn.__name__}")
            else:
                w = self._span_wrapper(fn, fn.__name__, layer, _extra_for(layer, fn.__name__))
            self._wrappers[id(fn)] = w
        return w

    def _span_wrapper(self, fn, name, layer, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.cmd, None, self.excluded, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                rec[8] = self.excluded
                stack.pop()
            if extra is not None:
                t = perf_counter()
                rec[6] = extra(args, kwargs, result)
                self.excluded += perf_counter() - t
            return result

        return wrapper

    def _hot_wrapper(self, fn, key):
        acc = self.hot.setdefault(key, [0, 0.0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t
                acc[0] += 1
                acc[1] += dt
                if stack:
                    spans[stack[-1]][9] += dt

        return wrapper

    # -- derived numbers --------------------------------------------------

    def durations(self) -> list[float]:
        return [(s[3] - s[2]) - (s[8] - s[7]) for s in self.spans]

    def self_times(self, dur: list[float]) -> list[float]:
        out = [d - s[9] for d, s in zip(dur, self.spans)]
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                out[s[4]] -= dur[i]
        return out

    def _outermost(self, pred) -> list[int]:
        """Spans matching ``pred`` with no matching ancestor."""
        spans = self.spans
        out = []
        for i, s in enumerate(spans):
            if not pred(s):
                continue
            p = s[4]
            while p >= 0 and not pred(spans[p]):
                p = spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def _under(self, i: int, pred) -> bool:
        p = self.spans[i][4]
        while p >= 0:
            if pred(self.spans[p]):
                return True
            p = self.spans[p][4]
        return False

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        dur = self.durations()
        own = self.self_times(dur)

        def named(layer, *names):
            return lambda s: s[1] == layer and (not names or s[0] in names)

        def prefixed(layer, prefix):
            return lambda s: s[1] == layer and s[0].startswith(prefix)

        def total(idx):
            return sum(dur[i] for i in idx)

        m: dict[str, float] = {}

        rrefs = [i for i, s in enumerate(spans) if s[1] == "exactlin" and s[0] == "rref"]
        m["exactlin.rref_s"] = total(rrefs)
        m["exactlin.rref_calls"] = len(rrefs)
        m["exactlin.rref_cells"] = sum(spans[i][6][0] * spans[i][6][1] for i in rrefs)
        m["exactlin.rref_rank"] = sum(spans[i][6][2] for i in rrefs)
        m["exactlin.rref_max_s"] = max((dur[i] for i in rrefs), default=0.0)
        m["exactlin.rref_max_bits"] = max((spans[i][6][3] for i in rrefs), default=0)
        for rows, cols in SOLVE_SHAPES:
            at = [i for i in rrefs if spans[i][6][:2] == (rows, cols)]
            tag = f"{rows}x{cols}"
            m[f"exactlin.rref_calls.{tag}"] = len(at)
            m[f"exactlin.rref_call_s.{tag}"] = statistics.median(dur[i] for i in at) if at else 0.0
            m[f"exactlin.rref_rank.{tag}"] = statistics.median(spans[i][6][2] for i in at) if at else 0
            m[f"exactlin.rref_max_bits.{tag}"] = max((spans[i][6][3] for i in at), default=0)
        m["exactlin.invert_s"] = total(i for i, s in enumerate(spans) if named("exactlin", "invert")(s))

        solver = named("cocycles", "vector_cocycle_space", "scalar_cocycle_space")
        vec = [i for i, s in enumerate(spans) if named("cocycles", "vector_cocycle_space")(s)]
        m["cocycles.vector_s"] = total(vec)
        m["cocycles.vector_build_s"] = sum(own[i] for i in vec)
        m["cocycles.scalar_s"] = total(i for i, s in enumerate(spans) if named("cocycles", "scalar_cocycle_space")(s))
        m["cocycles.system_rows"] = sum(spans[i][6][0] for i in rrefs if self._under(i, solver))
        m["cocycles.kernel_dim"] = sum(spans[i][6] for i, s in enumerate(spans) if solver(s))

        hot = self.hot.get("algmodel.eval_product", [0, 0.0])
        m["algmodel.eval_product_calls"] = hot[0]
        m["algmodel.eval_product_s"] = hot[1]
        parse = self._outermost(named("algmodel", "parse_algebra", "parse_algebra_obj"))
        m["algmodel.parse_s"] = total(parse)
        m["algmodel.parse_calls"] = len(parse)

        checks = self._outermost(prefixed("axioms", "check_"))
        m["axioms.check_s"] = total(checks)
        m["axioms.check_calls"] = len(checks)
        m["axioms.violations"] = sum(spans[i][6] for i in checks)

        m["operators.check_s"] = total(self._outermost(prefixed("operators", "check_")))
        m["operators.induce_s"] = total(
            self._outermost(
                named(
                    "operators",
                    "regular_bimodule",
                    "rhizaform_bimodule",
                    "dual_bimodule",
                    "induced_rhizaform_from_o_operator",
                    "induced_rhizaform_from_rb",
                    "compatible_from_invertible_o_operator",
                )
            )
        )

        m["nilpotency.series_s"] = total(self._outermost(named("nilpotency", "right_series", "left_series", "full_series")))
        m["nilpotency.series_equality_s"] = total(self._outermost(named("nilpotency", "check_series_equality")))
        m["nilpotency.diamond_calls"] = sum(1 for s in spans if named("nilpotency", "diamond")(s))
        m["nilpotency.checks_s"] = total(
            self._outermost(
                named(
                    "nilpotency",
                    "check_2_nilpotent",
                    "check_onesided_nilpotency_theorem",
                    "check_alpha_stability",
                    "is_nilpotent",
                    "is_right_nilpotent",
                    "is_left_nilpotent",
                    "is_multiplicative",
                )
            )
        )

        m["family.check_s"] = total(self._outermost(prefixed("family", "check_")))
        m["family.collapse_s"] = total(self._outermost(named("family", "tensor_collapse")))

        m["catalog.load_s"] = total(self._outermost(named("catalog", "entry_ids", "load_catalog_entry", "load_entry")))
        m["catalog.verify_entry_self_s"] = sum(own[i] for i, s in enumerate(spans) if named("catalog", "verify_entry")(s))

        oracle = self._outermost(named("oracle"))
        m["oracle.s"] = total(oracle)
        m["oracle.calls"] = len(oracle)

        m["cli.self_s"] = sum(own[i] for i, s in enumerate(spans) if s[1] == "cli")
        return m
