"""Span recorder for the traced benchmark run.

Tracing is installed from outside the package.  Every public function that a
layer module defines is replaced by a wrapper on every module attribute that
binds it (``dunkldyn.growth.mean_p``, ``dunkldyn.dynamics.mean_p``,
``dunkldyn.mean_p``, ...), so a call made from inside another traced call
records that call as its parent.  A few methods that the per-layer metrics
name are wrapped on their class.  ``uninstall`` puts every original back.

Derived counters are computed from a call's public arguments and return
value only, never from private names, so they keep their meaning when the
internals behind a public function are replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("numeric", "series", "dunkl", "means", "growth", "dynamics",
          "construct", "cli")

# methods traced besides module-level functions: (layer, class, method, span)
METHODS = (
    ("series", "TruncatedSeries", "evaluate", "series.evaluate"),
    ("series", "TruncatedSeries", "evaluate_circle", "series.evaluate_circle"),
    ("series", "TruncatedSeries", "sup_on_disk", "series.sup_on_disk"),
    ("dunkl", "DunklWeights", "__init__", "dunkl.DunklWeights"),
    ("dunkl", "DunklWeights", "gamma_form_log_weight", "dunkl.gamma_form_log_weight"),
)

MEAN_ROUTES = ("p1", "p2", "pinf", "pother")

CLI_SUBCOMMANDS = ("weights", "means", "verify-lemma1", "verify-lemma3",
                   "verify-hy", "verify-barnes", "build-hc", "build-fhc",
                   "orbit", "frequency", "decay")

SELF_TIMED = (
    "construct.build_hypercyclic", "construct.verify_orbit_hits",
    "construct.build_frequently_hypercyclic", "construct.density_decay_check",
    "construct.frequency_report", "series.evaluate", "series.sup_on_disk",
    "series.evaluate_circle", "series.read_series", "series.write_series",
    "dunkl.apply_dunkl", "dunkl.DunklWeights", "dunkl.gamma_form_log_weight",
    "dynamics.orbit_at_zero", "means.hausdorff_young_check",
    "growth.growth_profile", "dynamics.thm3b_bound_check",
    "dynamics.windowed_c_star", "growth.mittag_leffler", "growth.lemma1_ratio",
    "growth.lemma3_ratio", "numeric.log_gamma", "numeric.to_decimal",
)
CALL_COUNTED = (
    "construct.build_hypercyclic", "series.evaluate", "dunkl.apply_dunkl",
    "dunkl.DunklWeights", "dynamics.orbit_at_zero", "growth.mittag_leffler",
    "growth.lemma1_ratio", "growth.lemma3_ratio", "numeric.log_gamma",
    "numeric.to_decimal",
)
# counters that keep their largest value instead of a sum
MAX_COUNTERS = ("construct.frequency_report.dense_mb",)

# metrics the traced run measures itself rather than reading from spans
RUN_METRICS = ("traced.wall_s", "traced.cpu_s", "traced.setup_s",
               "traced.peak_rss_mb", "traced.error_rate", "trace.overhead_s")


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or ".self_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("_ratio", "_rate")) else "count"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    return [(name, _unit(name)) for name in [*layer_values({}), *RUN_METRICS]]


class Spans:
    """Finished and open spans: name, start, end and parent index (-1 at top).

    Spans stay in memory as parallel arrays until ``profile`` reads them.
    Counters derived from call arguments accumulate in ``counters``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def begin(self, name: str) -> int:
        idx = self.add(name, perf_counter(), math.nan,
                       self._open[-1] if self._open else -1)
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._open.pop()


def self_times(spans: Spans) -> list[float]:
    """Span duration minus the durations of its direct children.

    Children of one span run one after another on the single benchmark
    thread, so their durations do not overlap and their sum is the part of
    the parent's interval they cover.
    """
    out = [e - s for s, e in zip(spans.starts, spans.ends)]
    for i, parent in enumerate(spans.parents):
        if parent >= 0:
            out[parent] -= spans.ends[i] - spans.starts[i]
    return out


def profile(spans: Spans) -> dict[str, float]:
    """Raw sums: '<span>.calls', '<span>.self_s', '<span>.dur_s' and counters."""
    raw: dict[str, float] = defaultdict(float)
    for name, start, end, own in zip(spans.names, spans.starts, spans.ends,
                                     self_times(spans)):
        raw[f"{name}.calls"] += 1
        raw[f"{name}.self_s"] += own
        raw[f"{name}.dur_s"] += end - start
        if name.startswith("cli."):
            raw["cli.self_s"] += own
    raw.update(spans.counters)
    return raw


def combine(setup: dict[str, float], passes: list[dict[str, float]]) -> dict[str, float]:
    """One traced set-up plus the mean of the traced job-list passes."""
    out: dict[str, float] = defaultdict(float, setup)
    keys = set().union(*passes) if passes else set()
    for key in keys:
        values = [p.get(key, 0.0) for p in passes]
        if key in MAX_COUNTERS:
            out[key] = max(out[key], *values)
        else:
            out[key] += sum(values) / len(values)
    return out


def layer_values(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values (everything but RUN_METRICS) from raw sums."""
    def get(key):
        return raw.get(key, 0.0)

    values = {}
    for name in SELF_TIMED:
        if name in CALL_COUNTED:
            values[f"{name}.calls"] = get(f"{name}.calls")
        values[f"{name}.self_s"] = get(f"{name}.self_s")
    steps = get("construct.build_hypercyclic.scan_steps")
    values["construct.build_hypercyclic.scan_steps"] = steps
    values["construct.build_hypercyclic.accept_ratio"] = (
        get("construct.build_hypercyclic.blocks") / steps if steps else 0.0)
    values["construct.frequency_report.dense_mb"] = get("construct.frequency_report.dense_mb")
    values["dunkl.apply_dunkl.terms"] = get("dunkl.apply_dunkl.terms")
    for route in MEAN_ROUTES:
        values[f"means.mean_p.calls.{route}"] = get(f"means.mean_p.{route}.calls")
    for route in MEAN_ROUTES:
        values[f"means.mean_p.self_s.{route}"] = get(f"means.mean_p.{route}.self_s")
    values["means.mean_p.samples"] = get("means.mean_p.samples")
    values["means.mean_p.terms"] = get("means.mean_p.terms")
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.s"] = get(f"cli.{sub}.dur_s")
    values["cli.self_s"] = get("cli.self_s")
    return values


# ---------------------------------------------------------------------------
# derived counters, from public inputs and outputs only


def poly_degree(poly) -> int:
    """Degree of a coefficient tuple; -1 for the zero polynomial.

    Kept here rather than calling ``construct.poly_degree``, which is traced,
    so that counting records no spans.
    """
    nonzero = [i for i, c in enumerate(poly) if c != 0]
    return nonzero[-1] if nonzero else -1


def scan_steps(plan) -> int:
    """Positions the hypercyclic builder probes: sum_k (m_k - lo_k + 1).

    lo_k is the first admissible position of block k: above every filler
    degree and, after the first block, past the end of the previous block.
    """
    floor = max(plan.filler_degrees, default=0) + 1
    steps = 0
    lo = floor
    for q, m in zip(plan.targets, plan.positions):
        steps += m - lo + 1
        lo = max(floor, m + max(poly_degree(q), 0) + 1)
    return steps


def mean_route(p) -> str:
    if p == math.inf:
        return "pinf"
    if p == 2:
        return "p2"
    return "p1" if p == 1 else "pother"


def _count_build_hypercyclic(counters, args, result):
    _, plan = result
    counters["construct.build_hypercyclic.scan_steps"] += scan_steps(plan)
    counters["construct.build_hypercyclic.blocks"] += len(plan.positions)


def _count_frequency_report(counters, args, result):
    f, n_window = args["f"], args["N_window"]
    is_real = all(c.imag == 0 for _, c in f.items())
    dense_mb = (n_window + 1) * (f.trunc_degree + 1) * (8 if is_real else 16) / 2**20
    key = "construct.frequency_report.dense_mb"
    counters[key] = max(counters[key], dense_mb)


def _count_mean_p(counters, args, result):
    f, r, params = args["f"], args["r"], args["params"]
    counters["means.mean_p.terms"] += f.n_nonzero()
    if params.p != 2 and f.degree() > 0 and r != 0:
        counters["means.mean_p.samples"] += params.points_for(f)


def _count_apply_dunkl(counters, args, result):
    counters["dunkl.apply_dunkl.terms"] += args["f"].n_nonzero()


COUNTER_HOOKS = {
    "construct.build_hypercyclic": _count_build_hypercyclic,
    "construct.frequency_report": _count_frequency_report,
    "means.mean_p": _count_mean_p,
    "dunkl.apply_dunkl": _count_apply_dunkl,
}

# spans whose name depends on the call: mean_p by route, main by subcommand
SPAN_NAMERS = {
    "means.mean_p": lambda args: f"means.mean_p.{mean_route(args['params'].p)}",
    "cli.main": lambda args: f"cli.{(args['argv'] or ['?'])[0]}",
}


# ---------------------------------------------------------------------------
# installation


def _wrap(fn, name: str, spans: Spans):
    namer = SPAN_NAMERS.get(name)
    hook = COUNTER_HOOKS.get(name)
    signature = inspect.signature(fn) if namer or hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        idx = spans.begin(namer(bound) if namer else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.end(idx)
        if hook:
            hook(spans.counters, bound, result)
        return result

    return traced


def install(package, spans: Spans) -> list:
    """Wrap the package's public functions; returns the undo list for uninstall."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = _wrap(obj, f"{layer}.{attr}", spans)
    undo = []
    for owner in (package, *modules.values()):
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((owner, attr, obj))
                setattr(owner, attr, wrappers[obj])
    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if inspect.isfunction(original):
            undo.append((cls, method, original))
            setattr(cls, method, _wrap(original, name, spans))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
