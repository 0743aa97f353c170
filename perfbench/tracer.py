"""Per-layer spans around calls into the program's public functions.

The layers are the package's modules.  install() wraps each public function
listed in LAYERS and rebinds the wrapper in every qeuler module that bound
the original, because modules import public names from each other (for
example identities binds qeuler_poly, qeuler_value and char_tuple_sum).

Spans keep a parent stack per thread.  verify runs its instances on worker
threads; a span opened on a thread with an empty stack takes the innermost
open span of the installing thread as its parent, so run_suite's children
are found wherever they ran.  A span's self time is its duration minus the
union of the intervals its children cover.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, attribute path) of each wrapped public function
LAYERS = {
    "cli": (("cli", "main"),),
    "identities": (("identities", "run_suite"), ("identities", "theorem1_sides"),
                   ("identities", "theorem2_sides"), ("identities", "theorem3_sides"),
                   ("identities", "eq12_bridge"), ("identities", "eq15_sides"),
                   ("identities", "power_sum")),
    "polynomials": (("polynomials", "qeuler_poly"), ("polynomials", "qeuler_value"),
                    ("polynomials", "qeuler_addition"), ("polynomials", "char_tuple_sum"),
                    ("polynomials", "QEulerSpec.create")),
    "lfun": (("lfun", "lfun_eval"), ("lfun", "lfun_value"), ("lfun", "verify_interpolation"),
             ("lfun", "power_weight_bound"), ("lfun", "LfunSpec.create")),
    "qnum": (("qnum", "plan_truncation"), ("qnum", "plan_truncation_weighted"),
             ("qnum", "alternating_weighted_sum")),
    "characters": (("characters", "build_character_group"), ("characters", "conv_power"),
                   ("characters", "bounded_composition_sums")),
    "report": (("report", "IdentityReport.to_json_line"),
               ("report", "IdentityReport.to_json_dict")),
}

IDENTITY_SIDES = {"run_suite", "theorem1_sides", "theorem2_sides", "theorem3_sides",
                  "eq12_bridge", "eq15_sides"}
POLY_FUNCS = {"qeuler_poly", "qeuler_value", "qeuler_addition", "QEulerSpec.create"}
LFUN_FUNCS = {"lfun_eval", "lfun_value", "verify_interpolation", "power_weight_bound",
              "LfunSpec.create"}
PLAN_FUNCS = {"plan_truncation", "plan_truncation_weighted"}
CONV_FUNCS = {"conv_power", "bounded_composition_sums"}
REPORT_FUNCS = {"IdentityReport.to_json_line", "IdentityReport.to_json_dict"}
COUNTED = {"run_suite", "plan_truncation_weighted", "alternating_weighted_sum", "conv_power",
           "bounded_composition_sums", "char_tuple_sum", "IdentityReport.to_json_line"}

# per_layer metric names, in BENCHMARK.json order
METRICS = (
    ("identities.instances", "count"), ("identities.self_s", "s"),
    ("identities.power_sum_calls", "count"), ("identities.power_sum_s", "s"),
    ("polynomials.poly_calls", "count"), ("polynomials.self_s", "s"),
    ("polynomials.tuple_sum_s", "s"), ("polynomials.tuples", "count"),
    ("lfun.eval_calls", "count"), ("lfun.self_s", "s"),
    ("qnum.plan_calls", "count"), ("qnum.plan_s", "s"), ("qnum.plan_scan_steps", "count"),
    ("qnum.plan_unique_share", "ratio"),
    ("qnum.kernel_calls", "count"), ("qnum.kernel_s", "s"), ("qnum.series_terms", "count"),
    ("characters.group_builds", "count"), ("characters.group_s", "s"),
    ("characters.conv_calls", "count"), ("characters.conv_s", "s"),
    ("characters.conv_macs", "count"), ("characters.conv_unique_share", "ratio"),
    ("report.records", "count"), ("report.serialize_s", "s"), ("report.bytes", "count"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name):
        self.name = name
        self.children = []
        self.start = self.end = 0.0


def _bounded_macs(r: int, upper: int) -> int:
    # fold i convolves a length i*(upper-1)+1 vector with one of length upper
    return sum((i * (upper - 1) + 1) * upper for i in range(1, r))


class Tracer:
    """Collects spans and counters; take() returns and resets them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack = None
        self.reset()

    def reset(self):
        with self._lock:
            self.roots = []
            self.counts = defaultdict(int)
            self.plan_inputs = set()
            self.conv_inputs = set()

    def new_scope(self):
        """Start a new scope for the distinct-input shares (one program run)."""
        with self._lock:
            self.counts["plan_unique"] += len(self.plan_inputs)
            self.counts["conv_unique"] += len(self.conv_inputs)
            self.plan_inputs = set()
            self.conv_inputs = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name, args, result, error):
        c = self.counts
        if name == "run_suite" and error is None:
            c["instances"] += len(result)
        elif name == "plan_truncation_weighted":
            ctx, r, weight_bound, epsilon, max_terms = args
            if error is None:
                c["plan_steps"] += result.cutoff_M + 1
            elif type(error).__name__ == "PlanInfeasible":  # the scan ran to the end
                c["plan_steps"] += max_terms + 1
            self.plan_inputs.add((ctx.q, r, weight_bound, epsilon, max_terms))
        elif name == "alternating_weighted_sum":
            c["series_terms"] += min(len(args[0]), len(args[1]))
        elif name == "conv_power":
            chi, r, M = args
            c["conv_macs"] += (r - 1) * M * M
            self.conv_inputs.add((chi.modulus_d, chi.label, r, M, name))
        elif name == "bounded_composition_sums":
            chi, r, upper = args
            c["conv_macs"] += _bounded_macs(r, upper)
            self.conv_inputs.add((chi.modulus_d, chi.label, r, upper, name))
        elif name == "char_tuple_sum":
            c["tuples"] += len(args[0]) ** args[2]
        elif name == "IdentityReport.to_json_line" and error is None:
            c["bytes"] += len(result.encode()) + 1  # one line with its newline

    def wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn)
        n_params = len(signature.parameters)
        counted = name in COUNTED

        def positional(args, kwargs):
            if not kwargs and len(args) == n_params:
                return args
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return tuple(bound.arguments.values())

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._home_stack and tracer._home_stack is not stack:
                parent = tracer._home_stack[-1]
            else:
                parent = None
            span = Span(name)
            stack.append(span)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    if parent is None:
                        tracer.roots.append(span)
                    else:
                        parent.children.append(span)
                    tracer.counts["calls:" + name] += 1
                    if counted:
                        tracer._count(name, positional(args, kwargs), result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in LAYERS wherever a qeuler module binds it."""
        import qeuler.cli  # noqa: F401  (with the package, loads every module)

        self._home_stack = self._stack()
        modules = [m for n, m in sys.modules.items() if n == "qeuler" or n.startswith("qeuler.")]
        for entries in LAYERS.values():
            for module_name, path in entries:
                home = sys.modules[f"qeuler.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(path, raw.__func__)))
                    else:
                        setattr(cls, attr, self.wrap(path, raw))
                    continue
                original = getattr(home, path)
                wrapper = self.wrap(path, original)
                for module in modules:
                    if getattr(module, path, None) is original:
                        setattr(module, path, wrapper)

    def take(self) -> dict:
        """Raw sums of everything traced since the last take(): counters,
        and per function its calls, total time and self time."""
        self.new_scope()
        with self._lock:
            roots, raw = self.roots, defaultdict(float, self.counts)
        self.reset()
        pending = list(roots)
        while pending:
            span = pending.pop()
            duration = span.end - span.start
            raw["total:" + span.name] += duration
            raw["self:" + span.name] += duration - _covered(span)
            pending.extend(span.children)
        return dict(raw)


def layer_metrics(raw: dict, rounds: int) -> dict:
    """Per-round per-layer metrics from the raw sums of `rounds` equal rounds.

    Counts are whole numbers when every round did the same work; the shares
    are ratios of the summed counts, so they do not depend on `rounds`.
    """
    def get(key):
        return raw.get(key, 0)

    def calls(*names):
        return sum(get("calls:" + n) for n in names)

    def self_s(*names):
        return sum(get("self:" + n) for n in names)

    def total_s(*names):
        return sum(get("total:" + n) for n in names)

    plan_calls = calls("plan_truncation_weighted")
    conv_calls = calls(*CONV_FUNCS)
    values = {
        "identities.instances": get("instances"),
        "identities.self_s": self_s(*IDENTITY_SIDES),
        "identities.power_sum_calls": calls("power_sum"),
        "identities.power_sum_s": total_s("power_sum"),
        "polynomials.poly_calls": calls("qeuler_poly"),
        "polynomials.self_s": self_s(*POLY_FUNCS),
        "polynomials.tuple_sum_s": total_s("char_tuple_sum"),
        "polynomials.tuples": get("tuples"),
        "lfun.eval_calls": calls("lfun_eval"),
        "lfun.self_s": self_s(*LFUN_FUNCS),
        "qnum.plan_calls": plan_calls,
        "qnum.plan_s": self_s(*PLAN_FUNCS),
        "qnum.plan_scan_steps": get("plan_steps"),
        "qnum.kernel_calls": calls("alternating_weighted_sum"),
        "qnum.kernel_s": total_s("alternating_weighted_sum"),
        "qnum.series_terms": get("series_terms"),
        "characters.group_builds": calls("build_character_group"),
        "characters.group_s": total_s("build_character_group"),
        "characters.conv_calls": conv_calls,
        "characters.conv_s": total_s(*CONV_FUNCS),
        "characters.conv_macs": get("conv_macs"),
        "report.records": calls("IdentityReport.to_json_line"),
        "report.serialize_s": self_s(*REPORT_FUNCS),
        "report.bytes": get("bytes"),
        "cli.calls": calls("main"),
        "cli.self_s": self_s("main"),
    }
    out = {}
    for name, unit in METRICS:
        if unit == "ratio":
            continue
        value = values[name] / rounds
        out[name] = {"value": int(value) if unit == "count" and value.is_integer() else value,
                     "unit": unit}
    out["qnum.plan_unique_share"] = {
        "value": get("plan_unique") / plan_calls if plan_calls else 0.0, "unit": "ratio"}
    out["characters.conv_unique_share"] = {
        "value": get("conv_unique") / conv_calls if conv_calls else 0.0, "unit": "ratio"}
    return {name: out[name] for name, _ in METRICS}


def _covered(span: Span) -> float:
    """Length of the union of the children's intervals."""
    covered = 0.0
    end = float("-inf")
    for child in sorted(span.children, key=lambda c: c.start):
        if child.end <= end:
            continue
        covered += child.end - max(child.start, end)
        end = child.end
    return covered
