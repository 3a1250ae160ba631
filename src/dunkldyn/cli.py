"""Experiment runner: every verifier and builder behind one command.

Each subcommand reads an ExperimentConfig (key=value file, overridden by
flags) plus its own options, does one job, and writes a CSV whose first line
is a `# config: ...` banner naming every effective setting.  Identical
config means byte-identical output: all numeric text is produced at fixed
precision with deterministic tie-breaks, and file writes go through a single
code path.

Each config field and subcommand option is declared once, as an `_Option`
row: the flags and their --help defaults, the range checks, the defaults
`run` applies and the banner entries all come from it; argparse only splits
argv into text, and refuses abbreviated flags.  `run` works under
`mp.workprec(config.precision_bits)` and leaves the ambient precision as found.

Exit codes: 0 success; 1 invalid configuration, option, input file or output
path, or a library ValueError; 2 infeasible construction; 3 a failed
verification or a library RuntimeError.  Exits 1 to 3 print one stderr line
naming the subcommand, unrecognized or abbreviated flags included.  Only a
missing or unknown subcommand, or a flag given without its value, also
prints the usage.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import random
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import finf, fninf, mpf_cmp, mpf_rdiv_int, round_nearest

from .construct import (
    BuilderConfig,
    ConstructionPlan,
    FhcSchedule,
    InfeasibleConstruction,
    density_decay_check,
    frequency_report,
    build_frequently_hypercyclic,
    build_hypercyclic,
    poly_label,
    read_plan,
    verify_orbit_hits,
    write_plan,
)
from .dunkl import ALPHA_BOUNDARY_GAP, DunklWeights, _check_alpha, apply_dunkl
from .dynamics import orbit_at_zero, windowed_c_star
from .growth import (
    RateEnvelope,
    barnes_asymptotic,
    lemma1_ratio,
    lemma3_on_grid,
    mittag_leffler,
    standard_r_grid,
)
from .means import P_INF, MeanParams, hausdorff_young_on_grid, means_on_grid
from .numeric import DEFAULT_PRECISION_BITS, to_decimal
from .series import TruncatedSeries, read_series, write_series

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


class ConfigError(Exception):
    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        prefix = f"config ({', '.join(where)}): " if where else "config: "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class _Option:
    """One config field or subcommand option.  ``parse`` turns the value as
    given (text, or what a caller passes to `run`) into the value read, which
    must be finite (hi = P_INF admits inf) and lie in [lo, hi], lo excluded when
    ``open_lo``; lo and hi may name an ExperimentConfig field.  A required value
    may not be empty.  A default of None leaves an option to the body, and the
    help says how it picks it; config fields take ExperimentConfig's defaults."""

    name: str
    help: str
    parse: Callable = str
    default: object = None
    lo: object = None
    hi: object = None
    open_lo: bool = False
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def resolve(self, given, config: ExperimentConfig):
        """The parsed and range-checked value; None when not given."""
        if given is None or self.required and given == "":
            if self.required:
                raise ConfigError(f"{self.flag} is required", field=self.name)
            return None
        try:
            value = self.parse(given)
        except (TypeError, ValueError):
            kind = "an integer" if self.parse is int else "a number"
            raise ConfigError(f"{self.flag}: not {kind}: {given!r}", field=self.name)
        if not isinstance(value, str) and self.hi is not P_INF and not all(
                mpmath.isfinite(v) for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{self.flag} must be finite, got {given}", field=self.name)
        lo, hi = (self.parse(getattr(config, b)) if isinstance(b, str) else b
                  for b in (self.lo, self.hi))
        above_lo = lo is None or (value > lo if self.open_lo else value >= lo)
        if not (above_lo and (hi is None or value <= hi)):
            rule = (f"lie in [{self.lo}, {self.hi}]" if self.hi is not None
                    else f"be {'>' if self.open_lo else '>='} {self.lo}")
            raise ConfigError(f"{self.flag} must {rule}, got {value}", field=self.name)
        return value


def _read_p(text: str):
    """The exponent p as runs compute with it: P_INF for the text 'inf', else
    mpf(text) at the working precision, whose float64 value must be finite."""
    if text == "inf":
        return P_INF
    if not math.isfinite(float(text)):
        raise ConfigError(f"--p must be a finite float64 number or inf, got {text}", field="p")
    return mpf(text)


# one row per ExperimentConfig field, in its order
_CONFIG_OPTIONS = (
    _Option("alpha", "Dunkl parameter", parse=float, lo=-0.5 + ALPHA_BOUNDARY_GAP, open_lo=True),
    _Option("p", "exponent of the integral means M_p", parse=_read_p, lo=1, hi=P_INF),
    _Option("precision_bits", "working precision in bits", parse=int, lo=64),
    _Option("trunc_degree", "truncation degree of series and weight tables", parse=int, lo=1),
    _Option("r_min", "smallest grid radius", parse=float, lo=0, open_lo=True),
    _Option("r_max", "largest grid radius", parse=float, lo="r_min", open_lo=True),
    _Option("r_points", "number of grid radii", parse=int, lo=2),
    _Option("seed", "random seed", parse=int, lo=0),
    _Option("output", "output CSV path", required=True),
)


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: str = "0"
    p: str = "2"
    precision_bits: int = DEFAULT_PRECISION_BITS
    trunc_degree: int = 4096
    r_min: str = "0.01"
    r_max: str = "400"
    r_points: int = 256
    seed: int = 0
    output: str = "dunkldyn.csv"

    def validate(self) -> ExperimentConfig:
        """This config with each field checked by its `_CONFIG_OPTIONS` row and
        the int fields read; a ConfigError names the first bad field."""
        values = {o.name: o.resolve(getattr(self, o.name), self) for o in _CONFIG_OPTIONS}
        return replace(self, **{k: v for k, v in values.items() if _FIELD_TYPES[k] is int})

    def alpha_mp(self) -> mpf:
        return mpf(self.alpha)

    def p_mp(self):
        return _read_p(self.p)

    def r_grid(self):
        return standard_r_grid(mpf(self.r_min), mpf(self.r_max), self.r_points)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the type of each field is the type of its default: int or str
_FIELD_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def _coerce(field: str, value: str, line: int | None = None):
    value = value.strip()
    if _FIELD_TYPES[field] is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"expected integer, got {value!r}", field=field, line=line)
    return value


def read_config_file(path: str) -> dict:
    """key=value lines; '#' comments; unknown keys and bad values diagnose
    with their line number."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}")
    for i, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {text!r}", line=i)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}", field=key, line=i)
        out[key] = _coerce(key, value, line=i)
    return out


# subcommands whose natural radius range differs from the global default
_SUBCOMMAND_GRID_DEFAULTS = {
    "verify-barnes": {"r_min": "10000", "r_max": "100000", "r_points": 8},
}


def load_config(config_path: str | None, flag_values: dict,
                subcommand: str | None = None) -> ExperimentConfig:
    """Defaults (with the subcommand's own radius grid), then file, then flags."""
    cfg = ExperimentConfig(**_SUBCOMMAND_GRID_DEFAULTS.get(subcommand, {}))
    if config_path:
        cfg = replace(cfg, **read_config_file(config_path))
    cfg = replace(cfg, **{key: value for key, value in flag_values.items() if value is not None})
    return cfg.validate()


def _fmt(x) -> str:
    """Deterministic CSV number text: full-precision decimal round trip."""
    if isinstance(x, (int, str)):
        return str(x)
    if type(x) is not mpf:
        x = mpf(x)
    if not x._mpf_[1] and x._mpf_[2]:  # inf, -inf and nan: no mantissa, nonzero exponent
        return {finf: "inf", fninf: "-inf"}.get(x._mpf_, "nan")
    return to_decimal(x)


def _write_csv(config: ExperimentConfig, extras: dict, header: str, rows) -> None:
    """config.output: a banner of config and extras (None drops a key), header, rows."""
    items = {**config.as_dict(), **extras}
    banner = " ".join(f"{k}={v}" for k, v in sorted(items.items()) if v is not None)
    with open(config.output, "w", newline="") as fh:
        fh.write(f"# config: {banner}\n{header}\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _sibling(output: str, new_ext: str) -> str:
    base, ext = os.path.splitext(output)
    return (base if ext.lower() == ".csv" else output) + new_ext


def _read_input(read, path: str, field: str, what: str):
    """read(path), with an unreadable or malformed file as a ConfigError on ``field``."""
    try:
        return read(path)
    except OSError as e:
        raise ConfigError(f"cannot read {what} file {path}: {e.strerror}", field=field)
    except ValueError as e:
        raise ConfigError(str(e), field=field)


def _read_series_file(path: str):
    """(series, alpha, precision bits) of a series file whose alpha is valid."""
    f, alpha, bits = _read_input(read_series, path, "input", "series")
    try:
        alpha = _check_alpha(alpha)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}", field="input")
    return f, alpha, bits


def _load_series(path: str):
    """Series file plus a weight table sized to its truncation order."""
    f, alpha, _ = _read_series_file(path)
    return f, DunklWeights(alpha, f.trunc_degree)


def _read_plan_file(path: str, kind: type, what: str):
    """The plan in a plan file, which must hold a ``kind`` plan."""
    plan = _read_input(read_plan, path, "plan", "plan")
    if not isinstance(plan, kind):
        raise ConfigError(f"{path} is not a {what} plan", field="plan")
    return plan


def _roundtrip_check(f: TruncatedSeries, path: str) -> None:
    """Written series must read back with the same coefficients and truncation."""
    g, _, _ = read_series(path)
    if f != g:
        raise RuntimeError(f"series round trip through {path} changed the coefficients")


def _write_beside(config: ExperimentConfig, f: TruncatedSeries, alpha, plan=None) -> dict:
    """Write f, and plan when given, beside config.output at config.precision_bits;
    check that f reads back, and return the banner entries naming the files."""
    paths = {"series": _sibling(config.output, ".series")}
    write_series(f, paths["series"], alpha, precision_bits=config.precision_bits)
    _roundtrip_check(f, paths["series"])
    if plan is not None:
        paths["plan"] = _sibling(config.output, ".plan")
        write_plan(plan, paths["plan"], precision_bits=config.precision_bits)
    return paths


# ---------------------------------------------------------------------------
# subcommand options and bodies


def _numbers(text: str) -> list:
    """Comma-separated numbers, read at the working precision."""
    return [mpf(s) for s in text.split(",")]


# subcommand name -> (body, help line, options), in --help order
_COMMANDS: dict = {}


def _command(name: str, help_text: str, *options: _Option):
    """Register a body as subcommand ``name``.  The body gets the config, the
    resolved options and ``write(header, rows, **computed)``, whose banner adds
    the options as given and ``computed`` to the config; after writing it may
    raise RuntimeError to report a failed verification."""

    def register(body):
        _COMMANDS[name] = (body, help_text, options)
        return body

    return register


_INPUT = _Option("input", "series file", required=True)


@_command("weights", "weight table d_n",
          _Option("n", "largest index (default trunc_degree)", parse=int, lo=0,
                  hi="trunc_degree"))
def _cmd_weights(config: ExperimentConfig, opt: dict, write) -> None:
    n = config.trunc_degree if opt["n"] is None else opt["n"]
    w = DunklWeights(config.alpha_mp(), n)
    rows = [(k, w.weight(k), w.log_weight(k)) for k in range(n + 1)]
    write("n,d_n,log_d_n", rows, n=n)


@_command("apply", "k-fold operator action on a series file",
          _INPUT, _Option("k", "number of operator steps", parse=int, default=1, lo=0))
def _cmd_apply(config: ExperimentConfig, opt: dict, write) -> None:
    f, w = _load_series(opt["input"])
    # the output holds values at the working precision, and its header says so;
    # k = 0 rounds f, which may be wider, to that precision
    g = (apply_dunkl(f, w, opt["k"]) if opt["k"]
         else TruncatedSeries(dict(f.items()), f.trunc_degree))
    paths = _write_beside(config, g, w.alpha)
    rows = [(n, mpmath.re(c), mpmath.im(c)) for n, c in g.items()]
    write("n,re_c_n,im_c_n", rows, alpha=to_decimal(w.alpha), **paths)


@_command("means", "M_p sweep over the radius grid", _INPUT)
def _cmd_means(config: ExperimentConfig, opt: dict, write) -> None:
    f, alpha, _ = _read_series_file(opt["input"])
    radii = config.r_grid()
    results = means_on_grid(f, radii, MeanParams(config.p_mp()))
    rows = [(r, res.value, res.richardson_err) for r, res in zip(radii, results)]
    write("r,M_p,richardson_err", rows, alpha=to_decimal(alpha))


def _raw_extremes(values: list) -> tuple:
    """(min, max) of raw mpf tuples as mpf, in one pass of ``mpf_cmp``."""
    lo = hi = values[0]
    for v in values[1:]:
        if mpf_cmp(v, lo) < 0:
            lo = v
        elif mpf_cmp(v, hi) > 0:
            hi = v
    return mp.make_mpf(lo), mp.make_mpf(hi)


@_command("verify-lemma1", "weight comparison ratio stays in band",
          _Option("n", "largest index", parse=int, default=5000, lo=8))
def _cmd_verify_lemma1(config: ExperimentConfig, opt: dict, write) -> None:
    n_max = opt["n"]
    w = DunklWeights(config.alpha_mp(), n_max)
    ratios = [lemma1_ratio(n, w) for n in range(n_max + 1)]
    # 1 / x as mpf.__rtruediv__ computes it
    write("n,ratio,reciprocal",
          [(n, x, mp.make_mpf(mpf_rdiv_int(1, x._mpf_, w.precision_bits, round_nearest)))
           for n, x in enumerate(ratios)])
    raw = [x._mpf_ for x in ratios]
    # finite and > 0: sign 0 and a mantissa (zero, inf and nan have none)
    ok = all(not x[0] and x[1] for x in raw)
    if ok:
        # the two-sided band must have stabilized: the late-range extremes may
        # not escape the early-range extremes by more than 1%
        half = n_max // 2
        early_lo, early_hi = _raw_extremes(raw[: half + 1])
        late_lo, late_hi = _raw_extremes(raw[half:])
        ok = late_hi <= early_hi * mpf("1.01") and late_lo >= early_lo / mpf("1.01")
    if not ok:
        raise RuntimeError("ratio left its stabilized band")


@_command("verify-lemma3", "kernel mean ratio bounded on the grid",
          _Option("q", "kernel exponent", parse=mpf, default="1", lo=1, hi=2))
def _cmd_verify_lemma3(config: ExperimentConfig, opt: dict, write) -> None:
    grid = config.r_grid()  # the sums read no weight table entries
    rows = list(zip(grid, lemma3_on_grid(grid, opt["q"], DunklWeights(config.alpha_mp(), 0))))
    write("r,ratio", rows)
    if not all(mpmath.isfinite(ratio) and ratio >= 0 for _, ratio in rows):
        raise RuntimeError("ratio not finite and nonnegative")


def _random_poly(rng: random.Random, max_degree: int, trunc_degree: int) -> TruncatedSeries:
    # TruncatedSeries drops the zero draws
    degree = rng.randint(0, max_degree)
    coeffs = {n: mpf(rng.uniform(-1, 1)) for n in range(degree + 1)}
    return TruncatedSeries(coeffs, trunc_degree=trunc_degree)


@_command("verify-hy", "Hausdorff-Young margins on random polynomials",
          _Option("count", "number of random polynomials", parse=int, default=100, lo=1),
          _Option("max_degree", "largest polynomial degree", parse=int, default=64, lo=0,
                  hi="trunc_degree"),
          _Option("radii", "comma list of circle radii", parse=_numbers, default="0.5,1,5"))
def _cmd_verify_hy(config: ExperimentConfig, opt: dict, write) -> None:
    params = MeanParams(config.p_mp())
    rng = random.Random(config.seed)
    rows = []
    for i in range(opt["count"]):
        f = _random_poly(rng, opt["max_degree"], config.trunc_degree)
        for r, res in zip(opt["radii"], hausdorff_young_on_grid(f, opt["radii"], params)):
            rows.append((i, r, res.lhs, res.rhs, res.margin))
    write("poly,r,lhs,rhs,margin", rows)
    if any(margin < -mpf("1e-6") * rhs for *_, rhs, margin in rows):
        worst = min(row[-1] for row in rows)
        raise RuntimeError(f"margin below tolerance (worst {mpmath.nstr(worst, 10)})")


@_command("verify-barnes", "series vs asymptotic for the kernel sum",
          _Option("ml_alpha", "Mittag-Leffler index", parse=mpf, default="1", lo=0,
                  open_lo=True),
          _Option("beta", "exponent of the (n + theta) factor", parse=mpf, default="0"),
          _Option("theta", "shift in the (n + theta) factor", parse=mpf, default="1", lo=0,
                  open_lo=True))
def _cmd_verify_barnes(config: ExperimentConfig, opt: dict, write) -> None:
    rows = []
    for r in config.r_grid():
        e_val = mittag_leffler(r, opt["ml_alpha"], opt["theta"], opt["beta"])
        asym = barnes_asymptotic(r, opt["ml_alpha"], opt["theta"], opt["beta"])
        rows.append((r, e_val, asym, e_val / asym))
    write("r,ml_value,asymptotic,ratio", rows)
    if any(r >= 10000 and not mpf("0.95") <= ratio <= mpf("1.05") for r, *_, ratio in rows):
        raise RuntimeError("ratio outside [0.95, 1.05] beyond r = 1e4")


@_command("build-hc", "hypercyclic construction at critical growth",
          _Option("targets", "number of targets", parse=int, default=12, lo=1))
def _cmd_build_hc(config: ExperimentConfig, opt: dict, write) -> None:
    w = DunklWeights(config.alpha_mp(), config.trunc_degree)
    env = RateEnvelope.log_growth()
    cfg = BuilderConfig(r_grid=config.r_grid())
    f, plan = build_hypercyclic(w, env, opt["targets"], cfg=cfg, trunc_degree=config.trunc_degree)
    paths = _write_beside(config, f, w.alpha, plan)
    rows = [(k, -1 if idx is None else idx, m_k, eps, poly_label(q))
            for k, (q, idx, m_k, eps) in enumerate(
                zip(plan.targets, plan.indices, plan.positions, plan.budgets), start=1)]
    write("k,target_index,m_k,eps_k,target", rows, **paths)


@_command("build-fhc", "frequently hypercyclic construction",
          _Option("targets", "number of targets", parse=int, default=3, lo=1),
          _Option("block_width", "block width B", parse=int, default=8, lo=1))
def _cmd_build_fhc(config: ExperimentConfig, opt: dict, write) -> None:
    w = DunklWeights(config.alpha_mp(), config.trunc_degree)
    env = RateEnvelope.log_growth()
    cfg = BuilderConfig(r_grid=config.r_grid(), block_width=opt["block_width"])
    f, schedule = build_frequently_hypercyclic(
        w, config.p_mp(), env, opt["targets"], cfg=cfg, trunc_degree=config.trunc_degree)
    paths = _write_beside(config, f, w.alpha, schedule)
    rows = []
    for j, (q, idx) in enumerate(zip(schedule.targets, schedule.indices), start=1):
        density = schedule.nominal_density(j)  # a Fraction; the CSV writer formats the mpf
        rows.append((j, -1 if idx is None else idx, schedule.positions(j)[0],
                     schedule.period(j), mpf(density.numerator) / density.denominator,
                     poly_label(q)))
    write("j,target_index,first_n,period,nominal_density,target", rows,
          m_0=schedule.m_0, **paths)


@_command("orbit", "orbit at zero; verifies plan budgets when given",
          _INPUT,
          _Option("plan", "hypercyclic plan file whose budgets to verify"),
          _Option("n", "largest orbit index (default the smaller of the series "
                  "trunc_degree and 2048)", parse=int, lo=0),
          _Option("windows", "comma list of r_max values for C_star", parse=_numbers))
def _cmd_orbit(config: ExperimentConfig, opt: dict, write) -> None:
    f, w = _load_series(opt["input"])
    plan = (_read_plan_file(opt["plan"], ConstructionPlan, "hypercyclic")
            if opt["plan"] else None)
    # the banner leaves out the plan, which only decides the exit code
    shown = {"alpha": to_decimal(w.alpha), "plan": None}

    if opt["windows"]:
        ladder = windowed_c_star(f, w, config.r_grid(), opt["windows"])
        write("rmax,C_star", zip(opt["windows"], ladder), n=None, **shown)
        return

    N = min(f.trunc_degree, 2048) if opt["n"] is None else opt["n"]
    report = orbit_at_zero(f, w, N)
    # ln|v_n|, with -inf (mpmath's ln 0) for a zero orbit value
    rows = [(n, mpmath.ln(abs(v)) if v else mp.ninf) for n, v in enumerate(report.values)]
    write("n,log_abs_orbit", rows, n=N, sup_index=report.sup_index,
          bounded=int(report.bounded), **shown)

    if plan is not None:
        hit = verify_orbit_hits(f, plan, w)
        if not hit.all_passed():
            k = hit.passed.index(False)
            raise RuntimeError(f"block {k + 1} residual {mpmath.nstr(hit.deltas[k], 8)} exceeds "
                               f"budget {mpmath.nstr(hit.budgets[k] + hit.noise_floors[k], 8)}")


@_command("frequency", "orbit-hit densities against the schedule",
          _INPUT,
          _Option("plan", "frequent-hypercyclicity plan file", required=True),
          _Option("eps", "hit radius", parse=mpf, default="0.1", lo=0, open_lo=True),
          _Option("r", "radius of the circle", parse=mpf, default="1", lo=0),
          _Option("n_window", "orbit indices checked, at most trunc_degree - block_width "
                  "of the plan", parse=int, default=2048, lo=1))
def _cmd_frequency(config: ExperimentConfig, opt: dict, write) -> None:
    f, w = _load_series(opt["input"])
    schedule = _read_plan_file(opt["plan"], FhcSchedule, "frequent-hypercyclicity")
    report = frequency_report(f, schedule, w, opt["n_window"], opt["eps"], opt["r"])
    write("j,hit_count,density,nominal_density",
          zip(itertools.count(1), report.counts, report.densities, report.nominal))
    if any(d < nominal / 2 for d, nominal in zip(report.densities, report.nominal)):
        raise RuntimeError("a target fell below half its nominal density")


@_command("decay", "sigma_m decay next to orbit-event density",
          _INPUT,
          _Option("q", "exponent, in [1, 2]", parse=mpf, default="2"),
          _Option("m", "largest m, at most the series trunc_degree", parse=int,
                  default=2048))
def _cmd_decay(config: ExperimentConfig, opt: dict, write) -> None:
    f, w = _load_series(opt["input"])
    report = density_decay_check(f, w, opt["q"], opt["m"])
    write("m,sigma_m,event_density",
          zip(itertools.count(1), report.sigma, report.event_density),
          alpha=to_decimal(w.alpha))
    if not report.bound_holds:
        raise RuntimeError("event density exceeded the sigma comparison bound")


def run(subcommand: str, config: ExperimentConfig, options: dict | None = None) -> int:
    """Run one subcommand at config.precision_bits; returns the process exit code.

    ``options`` maps option names to their values as flag text; int and
    number options also take an int or mpf.  A missing or None value takes
    the option's default.  The ambient mpmath precision is left as found.
    """
    try:
        if subcommand not in _COMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        config = config.validate()
        body, _, table = _COMMANDS[subcommand]
        given = {o.name: o.default for o in table}
        given.update({k: v for k, v in (options or {}).items() if v is not None})
        unknown = sorted(given.keys() - {o.name for o in table})
        if unknown:
            raise ConfigError(f"unknown option {unknown[0]!r} for {subcommand}")
        with mp.workprec(config.precision_bits):
            opt = {o.name: o.resolve(given[o.name], config) for o in table}
            body(config, opt, lambda header, rows, **computed:
                 _write_csv(config, {**given, **computed}, header, rows))
        return EXIT_OK
    except (ConfigError, ValueError, OSError) as e:  # OSError: an unwritable output path
        print(f"{subcommand}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleConstruction as e:
        print(f"{subcommand}: infeasible construction: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RuntimeError as e:
        print(f"{subcommand}: {e}", file=sys.stderr)
        return EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    # argparse's own usage failures must map to the invalid-config exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


@functools.cache
def _build_parser() -> _Parser:
    """The config flags, then each subcommand's own options, all as plain
    text for `_Option.resolve` to check; every help line shows the default.
    Flags are never abbreviated.  Built once: parsing leaves the parser
    unchanged."""
    parser = _Parser(prog="dunkldyn", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, table) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text, allow_abbrev=False)
        s.add_argument("--config", metavar="FILE", help="key=value config file")
        defaults = {**ExperimentConfig().as_dict(), **_SUBCOMMAND_GRID_DEFAULTS.get(name, {})}
        for o in (*_CONFIG_OPTIONS, *table):
            default = defaults.get(o.name, o.default)
            s.add_argument(*(("-o",) if o.name == "output" else ()), o.flag, dest=o.name,
                           help=o.help if default is None else f"{o.help} (default: {default})")
    return parser


def main(argv=None) -> int:
    namespace, extra = _build_parser().parse_known_args(argv)
    args = vars(namespace)
    subcommand, config_path = args.pop("subcommand"), args.pop("config")
    if extra:
        print(f"{subcommand}: unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return EXIT_CONFIG
    flag_values = {field: args.pop(field) for field in _FIELD_TYPES}
    try:
        config = load_config(config_path, flag_values, subcommand)
    except ConfigError as e:
        print(f"{subcommand}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(subcommand, config, args)


if __name__ == "__main__":
    sys.exit(main())
