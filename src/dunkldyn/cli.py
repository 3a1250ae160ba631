"""Experiment runner: every verifier and builder behind one command.

Each subcommand reads an ExperimentConfig (key=value file, overridden by
flags, with an environment default for precision) plus its own options, does
one job, and writes a CSV whose first line is a `# config: ...` banner naming
every effective setting.  Identical config means byte-identical output: all
numeric text is produced at fixed precision with deterministic tie-breaks,
and file writes go through a single code path.

Each subcommand declares its options once, as `_Option` entries: the
argparse flags and their --help defaults, the defaults and range checks `run`
applies, and the banner entries all come from them.  `run` works under
`mp.workprec(config.precision_bits)` and leaves the ambient precision as found.

Exit codes: 0 success; 1 invalid configuration, option, input file or output
path, or a library ValueError; 2 infeasible construction; 3 a failed
verification or a library RuntimeError.  Exits 1 to 3 print one stderr line
naming the subcommand (argparse usage errors also print the usage).
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
    poly_to_series,
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
    rate_exponent,
    standard_r_grid,
)
from .means import P_INF, MeanParams, hausdorff_young_check, means_on_grid
from .numeric import to_decimal
from .series import TruncatedSeries, read_series, write_series

PRECISION_ENV_VAR = "DUNKLDYN_PRECISION_BITS"

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


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR, "256")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}",
                          field="precision_bits")


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: str = "0"
    p: str = "2"
    precision_bits: int = 256
    trunc_degree: int = 4096
    r_min: str = "0.01"
    r_max: str = "400"
    r_points: int = 256
    seed: int = 0
    output: str = "dunkldyn.csv"

    def validate(self) -> None:
        if not self._finite("alpha") > -0.5 + ALPHA_BOUNDARY_GAP:
            raise ConfigError(f"alpha must exceed -1/2 + {ALPHA_BOUNDARY_GAP}, "
                              f"got {self.alpha}", field="alpha")
        try:  # float() also reads "inf"
            pv = float(self.p)
        except ValueError:
            raise ConfigError(f"not a number or 'inf': {self.p!r}", field="p")
        if not pv >= 1:
            raise ConfigError(f"p must lie in [1, inf], got {self.p}", field="p")
        for name, lo in (("precision_bits", 64), ("trunc_degree", 1), ("r_points", 2),
                         ("seed", 0)):
            if getattr(self, name) < lo:
                raise ConfigError(f"{name} must be >= {lo}, got {getattr(self, name)}",
                                  field=name)
        if not 0 < self._finite("r_min") < self._finite("r_max"):
            raise ConfigError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}",
                              field="r_min")
        if not self.output:
            raise ConfigError("output path must not be empty", field="output")

    def _finite(self, name: str) -> float:
        """The value of a number field, which must be a finite float64."""
        text = getattr(self, name)
        try:
            x = float(text)
        except ValueError:
            raise ConfigError(f"not a number: {text!r}", field=name)
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be a finite float64 number, got {text}", field=name)
        return x

    def alpha_mp(self) -> mpf:
        return mpf(self.alpha)

    def p_mp(self):
        return P_INF if self.p == "inf" else mpf(self.p)

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
    """Defaults (with the subcommand's own radius grid), then environment
    precision, then file, then flags."""
    cfg = ExperimentConfig(precision_bits=_default_precision(),
                           **_SUBCOMMAND_GRID_DEFAULTS.get(subcommand, {}))
    if config_path:
        cfg = replace(cfg, **read_config_file(config_path))
    cfg = replace(cfg, **{key: _coerce(key, value) if isinstance(value, str) else value
                          for key, value in flag_values.items() if value is not None})
    cfg.validate()
    return cfg


def _fmt(x) -> str:
    """Deterministic CSV number text: full-precision decimal round trip."""
    if isinstance(x, (int, str)):
        return str(x)
    x = mpf(x)
    if not mpmath.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
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
    f, alpha, bits = _read_series_file(path)
    return f, DunklWeights(alpha, f.trunc_degree), bits


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


# ---------------------------------------------------------------------------
# subcommand options and bodies


def _numbers(text: str) -> list:
    """Comma-separated numbers, read at the working precision."""
    return [mpf(s) for s in text.split(",")]


@dataclass(frozen=True)
class _Option:
    """One subcommand option.  ``parse`` turns the value as given (flag text,
    or what a caller passes to `run`) into the value the body reads, which
    must lie in [lo, hi], lo excluded when ``open_lo``; hi may name an
    ExperimentConfig field.  A default of None leaves the value to the body,
    and the help says how the body picks it."""

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
        if given is None:
            if self.required:
                raise ConfigError(f"{self.flag} is required", field=self.name)
            return None
        try:
            value = self.parse(given)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.flag}: not a number: {given!r}", field=self.name)
        if not isinstance(value, str) and not all(
                mpmath.isfinite(v) for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{self.flag} must be finite, got {given}", field=self.name)
        hi = getattr(config, self.hi) if isinstance(self.hi, str) else self.hi
        above_lo = self.lo is None or (value > self.lo if self.open_lo else value >= self.lo)
        if not (above_lo and (hi is None or value <= hi)):
            rule = (f"lie in [{self.lo}, {self.hi}]" if self.hi is not None
                    else f"be {'>' if self.open_lo else '>='} {self.lo}")
            raise ConfigError(f"{self.flag} must {rule}, got {value}", field=self.name)
        return value


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
    f, w, bits = _load_series(opt["input"])
    g = apply_dunkl(f, w, opt["k"]) if opt["k"] else f
    series_path = _sibling(config.output, ".series")
    write_series(g, series_path, w.alpha, precision_bits=bits)
    _roundtrip_check(g, series_path)
    rows = [(n, mpmath.re(c), mpmath.im(c)) for n, c in g.items()]
    write("n,re_c_n,im_c_n", rows, series=series_path, alpha=to_decimal(w.alpha))


@_command("means", "M_p sweep over the radius grid", _INPUT)
def _cmd_means(config: ExperimentConfig, opt: dict, write) -> None:
    f, alpha, _ = _read_series_file(opt["input"])
    radii = config.r_grid()
    results = means_on_grid(f, radii, MeanParams(config.p_mp()))
    rows = [(r, res.value, res.richardson_err) for r, res in zip(radii, results)]
    write("r,M_p,richardson_err", rows, alpha=to_decimal(alpha))


@_command("verify-lemma1", "weight comparison ratio stays in band",
          _Option("n", "largest index", parse=int, default=5000, lo=8))
def _cmd_verify_lemma1(config: ExperimentConfig, opt: dict, write) -> None:
    n_max = opt["n"]
    w = DunklWeights(config.alpha_mp(), n_max)
    ratios = [lemma1_ratio(n, w) for n in range(n_max + 1)]
    write("n,ratio,reciprocal", [(n, x, 1 / x) for n, x in enumerate(ratios)])
    ok = all(mpmath.isfinite(x) and x > 0 for x in ratios)
    if ok:
        # the two-sided band must have stabilized: the late-range extremes may
        # not escape the early-range extremes by more than 1%
        half = n_max // 2
        early_lo, early_hi = min(ratios[: half + 1]), max(ratios[: half + 1])
        late_lo, late_hi = min(ratios[half:]), max(ratios[half:])
        ok = late_hi <= early_hi * mpf("1.01") and late_lo >= early_lo / mpf("1.01")
    if not ok:
        raise RuntimeError("ratio left its stabilized band")


@_command("verify-lemma3", "kernel mean ratio bounded on the grid",
          _Option("q", "kernel exponent", parse=mpf, default="1", lo=1, hi=2))
def _cmd_verify_lemma3(config: ExperimentConfig, opt: dict, write) -> None:
    # the kernel sum at radius r settles a little past n = r + sqrt(r); size
    # the table from the top of the sweep, not from the series truncation
    n_table = max(config.trunc_degree, int(2 * float(config.r_max)) + 256)
    w = DunklWeights(config.alpha_mp(), n_table)
    grid = config.r_grid()
    rows = list(zip(grid, lemma3_on_grid(grid, opt["q"], w)))
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
        for r in opt["radii"]:
            res = hausdorff_young_check(f, r, params)
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
    f, plan = build_hypercyclic(w, env, opt["targets"], trunc_degree=config.trunc_degree)
    series_path = _sibling(config.output, ".series")
    plan_path = _sibling(config.output, ".plan")
    write_series(f, series_path, w.alpha, precision_bits=config.precision_bits)
    _roundtrip_check(f, series_path)
    write_plan(plan, plan_path, precision_bits=config.precision_bits)
    rows = [(k, -1 if idx is None else idx, m_k, eps, poly_label(q))
            for k, (q, idx, m_k, eps) in enumerate(
                zip(plan.targets, plan.indices, plan.positions, plan.budgets), start=1)]
    write("k,target_index,m_k,eps_k,target", rows, series=series_path, plan=plan_path)


@_command("build-fhc", "frequently hypercyclic construction",
          _Option("targets", "number of targets", parse=int, default=3, lo=1),
          _Option("block_width", "block width B", parse=int, default=8, lo=1))
def _cmd_build_fhc(config: ExperimentConfig, opt: dict, write) -> None:
    B = opt["block_width"]
    w = DunklWeights(config.alpha_mp(), config.trunc_degree)
    env = RateEnvelope.log_growth()
    cfg = BuilderConfig(block_width=B)
    f, schedule = build_frequently_hypercyclic(
        w, config.p_mp(), env, opt["targets"], cfg=cfg, trunc_degree=config.trunc_degree)
    series_path = _sibling(config.output, ".series")
    plan_path = _sibling(config.output, ".plan")
    write_series(f, series_path, w.alpha, precision_bits=config.precision_bits)
    _roundtrip_check(f, series_path)
    write_plan(schedule, plan_path, precision_bits=config.precision_bits)
    rows = []
    for j, (q, idx) in enumerate(zip(schedule.targets, schedule.indices), start=1):
        offset = schedule.m_0 + B * (2 ** (j - 1))
        density = schedule.nominal_density(j)  # a Fraction; the CSV writer formats the mpf
        rows.append((j, -1 if idx is None else idx, offset, B * 2 ** j,
                     mpf(density.numerator) / density.denominator, poly_label(q)))
    write("j,target_index,first_n,period,nominal_density,target", rows,
          m_0=schedule.m_0, series=series_path, plan=plan_path)


@_command("orbit", "orbit at zero; verifies plan budgets when given",
          _INPUT,
          _Option("plan", "hypercyclic plan file whose budgets to verify"),
          _Option("n", "largest orbit index (default the smaller of the series "
                  "trunc_degree and 2048)", parse=int),
          _Option("windows", "comma list of r_max values for C_star", parse=_numbers))
def _cmd_orbit(config: ExperimentConfig, opt: dict, write) -> None:
    f, w, _ = _load_series(opt["input"])
    plan = (_read_plan_file(opt["plan"], ConstructionPlan, "hypercyclic")
            if opt["plan"] else None)
    # the banner leaves out the plan, which only decides the exit code
    shown = {"alpha": to_decimal(w.alpha), "plan": None}

    if opt["windows"]:
        ladder = windowed_c_star(f, w, config.r_grid(), opt["windows"])
        write("rmax,C_star", zip(opt["windows"], ladder), n=None, **shown)
        return

    N = min(f.trunc_degree, 2048) if opt["n"] is None else opt["n"]
    if not 0 <= N <= f.trunc_degree:
        raise ConfigError(f"--n must lie in [0, {f.trunc_degree}], got {N}", field="n")
    report = orbit_at_zero(f, w, N)
    # ln|v_n|; mpmath gives ln 0 = -inf for a zero orbit value
    rows = [(n, mpmath.ln(abs(v))) for n, v in enumerate(report.values)]
    write("n,log_abs_orbit", rows, n=N, sup_index=report.sup_index,
          bounded=int(report.bounded), **shown)

    if plan is not None:
        hit = verify_orbit_hits(f, plan, w)
        for k, (delta, budget, floor) in enumerate(
                zip(hit.deltas, hit.budgets, hit.noise_floors), start=1):
            if delta > budget + floor:
                raise RuntimeError(f"block {k} residual {mpmath.nstr(delta, 8)} exceeds "
                                   f"budget {mpmath.nstr(budget + floor, 8)}")


@_command("frequency", "orbit-hit densities against the schedule",
          _INPUT,
          _Option("plan", "frequent-hypercyclicity plan file", required=True),
          _Option("eps", "hit radius", parse=mpf, default="0.1"),
          _Option("r", "radius of the sampled circle", parse=mpf, default="1", lo=0),
          _Option("n_window", "orbit indices checked, at most trunc_degree - block_width "
                  "of the plan", parse=int, default=2048, lo=1),
          _Option("samples", "points on the circle", parse=int, default=64, lo=1))
def _cmd_frequency(config: ExperimentConfig, opt: dict, write) -> None:
    f, w, _ = _load_series(opt["input"])
    schedule = _read_plan_file(opt["plan"], FhcSchedule, "frequent-hypercyclicity")
    n_window = opt["n_window"]
    top = schedule.trunc_degree - schedule.block_width
    if n_window > top:
        raise ConfigError(f"--n-window must lie in [1, {top}], got {n_window}",
                          field="n_window")
    report = frequency_report(f, schedule, w, n_window, opt["eps"], opt["r"],
                              m=opt["samples"])
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
    f, w, _ = _load_series(opt["input"])
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
        config.validate()
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
    """Config flags from the ExperimentConfig fields, then each subcommand's
    own options; every help line shows the default.  Built once: parsing
    leaves the parser unchanged."""
    parser = _Parser(prog="dunkldyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, table) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", metavar="FILE", help="key=value config file")
        defaults = {**ExperimentConfig().as_dict(), **_SUBCOMMAND_GRID_DEFAULTS.get(name, {}),
                    "precision_bits": f"${PRECISION_ENV_VAR}, else 256"}
        for field, kind in _FIELD_TYPES.items():
            flags = ("-o", "--output") if field == "output" else ("--" + field.replace("_", "-"),)
            s.add_argument(*flags, dest=field, type=kind, help=f"(default: {defaults[field]})")
        for o in table:
            s.add_argument(o.flag, dest=o.name, required=o.required,
                           help=o.help if o.default is None else f"{o.help} (default: {o.default})")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    subcommand, config_path = args.pop("subcommand"), args.pop("config")
    flag_values = {field: args.pop(field) for field in _FIELD_TYPES}
    try:
        config = load_config(config_path, flag_values, subcommand)
    except ConfigError as e:
        print(f"{subcommand}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(subcommand, config, args)


if __name__ == "__main__":
    sys.exit(main())
