"""Experiment runner: every verifier and builder behind one command.

Each subcommand reads an ExperimentConfig (key=value file, overridden by
flags, with an environment default for precision), does one job, and writes
a CSV whose first line is a `# config: ...` banner naming every effective
setting.  Identical config means byte-identical output: all numeric text is
produced at fixed precision with deterministic tie-breaks, and file writes
go through a single code path.

Exit codes: 0 success, 1 invalid configuration (with line/field
diagnostics), 2 infeasible construction, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass, fields, replace

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
from .numeric import set_precision, to_decimal
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
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return 256
    try:
        bits = int(raw)
    except ValueError:
        raise ConfigError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}",
                          field="precision_bits")
    return bits


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
        try:
            a = float(self.alpha)
        except ValueError:
            raise ConfigError(f"not a number: {self.alpha!r}", field="alpha")
        if not a > -0.5 + ALPHA_BOUNDARY_GAP:
            raise ConfigError(f"alpha must exceed -1/2 + {ALPHA_BOUNDARY_GAP}, "
                              f"got {self.alpha}", field="alpha")
        if self.p != "inf":
            try:
                pv = float(self.p)
            except ValueError:
                raise ConfigError(f"not a number or 'inf': {self.p!r}", field="p")
            if not pv >= 1:
                raise ConfigError(f"p must lie in [1, inf], got {self.p}", field="p")
        if self.precision_bits < 64:
            raise ConfigError(f"precision_bits must be >= 64, got {self.precision_bits}",
                              field="precision_bits")
        if self.trunc_degree < 1:
            raise ConfigError(f"trunc_degree must be >= 1, got {self.trunc_degree}",
                              field="trunc_degree")
        try:
            lo, hi = float(self.r_min), float(self.r_max)
        except ValueError:
            raise ConfigError(f"not numbers: r_min={self.r_min!r} r_max={self.r_max!r}",
                              field="r_min")
        if not 0 < lo < hi:
            raise ConfigError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}",
                              field="r_min")
        if self.r_points < 2:
            raise ConfigError(f"r_points must be >= 2, got {self.r_points}",
                              field="r_points")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", field="seed")
        if not self.output:
            raise ConfigError("output path must not be empty", field="output")

    def alpha_mp(self) -> mpf:
        return mpf(self.alpha)

    def p_mp(self):
        return P_INF if self.p == "inf" else mpf(self.p)

    def r_grid(self):
        return standard_r_grid(mpf(self.r_min), mpf(self.r_max), self.r_points)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INT_FIELDS = {"precision_bits", "trunc_degree", "r_points", "seed"}
_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def _coerce(field: str, value: str, line: int | None = None):
    value = value.strip()
    if field in _INT_FIELDS:
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
        if key not in _FIELD_NAMES:
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
    overrides = {}
    for key, value in flag_values.items():
        if value is None:
            continue
        overrides[key] = _coerce(key, value) if isinstance(value, str) else value
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _fmt(x) -> str:
    """Deterministic CSV number text: full-precision decimal round trip."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    x = mpf(x)
    if not mpmath.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return to_decimal(x)


def _banner(config: ExperimentConfig, extras: dict) -> str:
    items = dict(config.as_dict())
    items.update({k: v for k, v in extras.items() if v is not None})
    body = " ".join(f"{k}={items[k]}" for k in sorted(items))
    return f"# config: {body}"


def _write_csv(path: str, banner: str, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(banner + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _sibling(output: str, new_ext: str) -> str:
    base, ext = os.path.splitext(output)
    return (base if ext.lower() == ".csv" else output) + new_ext


def _read_series_file(path: str):
    """(series, alpha, precision bits) of a series file whose alpha is valid."""
    try:
        f, alpha, bits = read_series(path)
    except OSError as e:
        raise ConfigError(f"cannot read series file {path}: {e.strerror}", field="input")
    except ValueError as e:
        raise ConfigError(str(e), field="input")
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
    try:
        plan = read_plan(path)
    except OSError as e:
        raise ConfigError(f"cannot read plan file {path}: {e.strerror}", field="plan")
    except ValueError as e:
        raise ConfigError(str(e), field="plan")
    if not isinstance(plan, kind):
        raise ConfigError(f"{path} is not a {what} plan", field="plan")
    return plan


def _roundtrip_check(f: TruncatedSeries, path: str) -> None:
    """Written series must read back with the same coefficients and truncation."""
    g, _, _ = read_series(path)
    if f != g:
        raise RuntimeError(f"series round trip through {path} changed the coefficients")


# ---------------------------------------------------------------------------
# subcommand bodies; each returns an exit code


def _cmd_weights(config: ExperimentConfig, opt: dict) -> int:
    n = opt.get("n")
    if n is None:
        n = config.trunc_degree
    if n < 0 or n > config.trunc_degree:
        raise ConfigError(f"--n must lie in [0, trunc_degree], got {n}", field="n")
    w = DunklWeights(config.alpha_mp(), n)
    rows = [(k, w.weight(k), w.log_weight(k)) for k in range(n + 1)]
    _write_csv(config.output, _banner(config, {"n": n}), "n,d_n,log_d_n", rows)
    return EXIT_OK


def _cmd_apply(config: ExperimentConfig, opt: dict) -> int:
    f, w, bits = _load_series(opt["input"])
    k = opt.get("k", 1)
    if k < 0:
        raise ConfigError(f"--k must be >= 0, got {k}", field="k")
    g = apply_dunkl(f, w, k) if k else f
    series_path = _sibling(config.output, ".series")
    write_series(g, series_path, w.alpha, precision_bits=bits)
    _roundtrip_check(g, series_path)
    rows = [(n, mpmath.re(c), mpmath.im(c)) for n, c in g.items()]
    extras = {"input": opt["input"], "k": k, "series": series_path,
              "alpha": to_decimal(w.alpha)}
    _write_csv(config.output, _banner(config, extras), "n,re_c_n,im_c_n", rows)
    return EXIT_OK


def _cmd_means(config: ExperimentConfig, opt: dict) -> int:
    f, alpha, _ = _read_series_file(opt["input"])
    radii = config.r_grid()
    results = means_on_grid(f, radii, MeanParams(config.p_mp()))
    rows = [(r, res.value, res.richardson_err) for r, res in zip(radii, results)]
    extras = {"input": opt["input"], "alpha": to_decimal(alpha)}
    _write_csv(config.output, _banner(config, extras),
               "r,M_p,richardson_err", rows)
    return EXIT_OK


def _cmd_verify_lemma1(config: ExperimentConfig, opt: dict) -> int:
    n_max = opt.get("n", 5000)
    if n_max < 8:
        raise ConfigError(f"--n must be >= 8, got {n_max}", field="n")
    w = DunklWeights(config.alpha_mp(), n_max)
    rows = []
    ratios = []
    for n in range(n_max + 1):
        ratio = lemma1_ratio(n, w)
        ratios.append(ratio)
        rows.append((n, ratio, 1 / ratio))
    _write_csv(config.output, _banner(config, {"n": n_max}),
               "n,ratio,reciprocal", rows)
    ok = all(mpmath.isfinite(x) and x > 0 for x in ratios)
    if ok:
        # the two-sided band must have stabilized: the late-range extremes may
        # not escape the early-range extremes by more than 1%
        half = n_max // 2
        early_lo, early_hi = min(ratios[: half + 1]), max(ratios[: half + 1])
        late_lo, late_hi = min(ratios[half:]), max(ratios[half:])
        ok = late_hi <= early_hi * mpf("1.01") and late_lo >= early_lo / mpf("1.01")
    if not ok:
        print("verify-lemma1: ratio left its stabilized band", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify_lemma3(config: ExperimentConfig, opt: dict) -> int:
    q = mpf(opt.get("q", "1"))
    if not 1 <= q <= 2:
        raise ConfigError(f"--q must lie in [1, 2], got {q}", field="q")
    # the kernel sum at radius r settles a little past n = r + sqrt(r); size
    # the table from the top of the sweep, not from the series truncation
    n_table = max(config.trunc_degree, int(2 * float(config.r_max)) + 256)
    w = DunklWeights(config.alpha_mp(), n_table)
    grid = config.r_grid()
    rows = list(zip(grid, lemma3_on_grid(grid, q, w)))
    ok = all(mpmath.isfinite(ratio) and ratio >= 0 for _, ratio in rows)
    extras = {"q": opt.get("q", "1")}
    _write_csv(config.output, _banner(config, extras), "r,ratio", rows)
    if not ok:
        print("verify-lemma3: ratio not finite and nonnegative", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _random_poly(rng: random.Random, max_degree: int, trunc_degree: int) -> TruncatedSeries:
    degree = rng.randint(0, max_degree)
    coeffs = {}
    for n in range(degree + 1):
        c = rng.uniform(-1, 1)
        if c:
            coeffs[n] = mpf(c)
    return TruncatedSeries(coeffs, trunc_degree=trunc_degree)


def _cmd_verify_hy(config: ExperimentConfig, opt: dict) -> int:
    count = opt.get("count", 100)
    max_degree = opt.get("max_degree", 64)
    radii = [mpf(s) for s in opt.get("radii", "0.5,1,5").split(",")]
    if count < 1:
        raise ConfigError(f"--count must be >= 1, got {count}", field="count")
    if not 0 <= max_degree <= config.trunc_degree:
        raise ConfigError(f"--max-degree must lie in [0, trunc_degree], got {max_degree}",
                          field="max_degree")
    params = MeanParams(config.p_mp())
    rng = random.Random(config.seed)
    rows = []
    worst = mpf("inf")
    ok = True
    for i in range(count):
        f = _random_poly(rng, max_degree, config.trunc_degree)
        for r in radii:
            res = hausdorff_young_check(f, r, params)
            rows.append((i, r, res.lhs, res.rhs, res.margin))
            if res.margin < -mpf("1e-6") * res.rhs:
                ok = False
            worst = min(worst, res.margin)
    extras = {"count": count, "max_degree": max_degree,
              "radii": opt.get("radii", "0.5,1,5")}
    _write_csv(config.output, _banner(config, extras),
               "poly,r,lhs,rhs,margin", rows)
    if not ok:
        print(f"verify-hy: margin below tolerance (worst {mpmath.nstr(worst, 10)})",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify_barnes(config: ExperimentConfig, opt: dict) -> int:
    ml_alpha = mpf(opt.get("ml_alpha", "1"))
    beta = mpf(opt.get("beta", "0"))
    theta = mpf(opt.get("theta", "1"))
    if not ml_alpha > 0:
        raise ConfigError(f"--ml-alpha must be > 0, got {ml_alpha}", field="ml_alpha")
    if not theta > 0:
        raise ConfigError(f"--theta must be > 0, got {theta}", field="theta")
    rows = []
    ok = True
    for r in config.r_grid():
        e_val = mittag_leffler(r, ml_alpha, theta, beta)
        asym = barnes_asymptotic(r, ml_alpha, theta, beta)
        ratio = e_val / asym
        rows.append((r, e_val, asym, ratio))
        if r >= 10000 and not mpf("0.95") <= ratio <= mpf("1.05"):
            ok = False
    extras = {"ml_alpha": opt.get("ml_alpha", "1"), "beta": opt.get("beta", "0"),
              "theta": opt.get("theta", "1")}
    _write_csv(config.output, _banner(config, extras),
               "r,ml_value,asymptotic,ratio", rows)
    if not ok:
        print("verify-barnes: ratio outside [0.95, 1.05] beyond r = 1e4",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_build_hc(config: ExperimentConfig, opt: dict) -> int:
    K = opt.get("targets", 12)
    if K < 1:
        raise ConfigError(f"--targets must be >= 1, got {K}", field="targets")
    w = DunklWeights(config.alpha_mp(), config.trunc_degree)
    env = RateEnvelope.log_growth()
    f, plan = build_hypercyclic(w, env, K, trunc_degree=config.trunc_degree)
    series_path = _sibling(config.output, ".series")
    plan_path = _sibling(config.output, ".plan")
    write_series(f, series_path, w.alpha, precision_bits=config.precision_bits)
    _roundtrip_check(f, series_path)
    write_plan(plan, plan_path, precision_bits=config.precision_bits)
    rows = [(k, -1 if idx is None else idx, m_k, eps, poly_label(q))
            for k, (q, idx, m_k, eps) in enumerate(
                zip(plan.targets, plan.indices, plan.positions, plan.budgets), start=1)]
    extras = {"targets": K, "series": series_path, "plan": plan_path}
    _write_csv(config.output, _banner(config, extras),
               "k,target_index,m_k,eps_k,target", rows)
    return EXIT_OK


def _cmd_build_fhc(config: ExperimentConfig, opt: dict) -> int:
    J = opt.get("targets", 3)
    B = opt.get("block_width", 8)
    if J < 1:
        raise ConfigError(f"--targets must be >= 1, got {J}", field="targets")
    if B < 1:
        raise ConfigError(f"--block-width must be >= 1, got {B}", field="block_width")
    w = DunklWeights(config.alpha_mp(), config.trunc_degree)
    env = RateEnvelope.log_growth()
    cfg = BuilderConfig(block_width=B)
    f, schedule = build_frequently_hypercyclic(
        w, config.p_mp(), env, J, cfg=cfg, trunc_degree=config.trunc_degree)
    series_path = _sibling(config.output, ".series")
    plan_path = _sibling(config.output, ".plan")
    write_series(f, series_path, w.alpha, precision_bits=config.precision_bits)
    _roundtrip_check(f, series_path)
    write_plan(schedule, plan_path, precision_bits=config.precision_bits)
    rows = []
    for j, (q, idx) in enumerate(zip(schedule.targets, schedule.indices), start=1):
        offset = schedule.m_0 + B * (2 ** (j - 1))
        rows.append((j, -1 if idx is None else idx, offset, B * 2 ** j,
                     _fmt(mpf(schedule.nominal_density(j).numerator)
                          / schedule.nominal_density(j).denominator),
                     poly_label(q)))
    extras = {"targets": J, "block_width": B, "m_0": schedule.m_0,
              "series": series_path, "plan": plan_path}
    _write_csv(config.output, _banner(config, extras),
               "j,target_index,first_n,period,nominal_density,target", rows)
    return EXIT_OK


def _cmd_orbit(config: ExperimentConfig, opt: dict) -> int:
    f, w, _ = _load_series(opt["input"])
    plan_path = opt.get("plan")
    plan = _read_plan_file(plan_path, ConstructionPlan, "hypercyclic") if plan_path else None
    windows = opt.get("windows")
    extras = {"input": opt["input"], "alpha": to_decimal(w.alpha)}

    if windows:
        r_maxes = [mpf(s) for s in windows.split(",")]
        ladder = windowed_c_star(f, w, config.r_grid(), r_maxes)
        rows = list(zip(r_maxes, ladder))
        extras["windows"] = windows
        _write_csv(config.output, _banner(config, extras), "rmax,C_star", rows)
        return EXIT_OK

    N = opt.get("n")
    if N is None:
        N = min(f.trunc_degree, 2048)
    if not 0 <= N <= f.trunc_degree:
        raise ConfigError(f"--n must lie in [0, {f.trunc_degree}], got {N}", field="n")
    report = orbit_at_zero(f, w, N)
    # ln|v_n|; mpmath gives ln 0 = -inf for a zero orbit value
    rows = [(n, mpmath.ln(abs(v))) for n, v in enumerate(report.values)]
    extras.update({"n": N, "sup_index": report.sup_index,
                   "bounded": int(report.bounded)})
    _write_csv(config.output, _banner(config, extras), "n,log_abs_orbit", rows)

    if plan is not None:
        hit = verify_orbit_hits(f, plan, w)
        for k, (delta, budget, floor) in enumerate(
                zip(hit.deltas, hit.budgets, hit.noise_floors), start=1):
            if delta > budget + floor:
                print(f"orbit: block {k} residual {mpmath.nstr(delta, 8)} exceeds "
                      f"budget {mpmath.nstr(budget + floor, 8)}", file=sys.stderr)
                return EXIT_VERIFY
    return EXIT_OK


def _cmd_frequency(config: ExperimentConfig, opt: dict) -> int:
    f, w, _ = _load_series(opt["input"])
    schedule = _read_plan_file(opt["plan"], FhcSchedule, "frequent-hypercyclicity")
    eps = mpf(opt.get("eps", "0.1"))
    R = mpf(opt.get("r", "1"))
    n_window = opt.get("n_window", 2048)
    samples = opt.get("samples", 64)
    if R < 0:
        raise ConfigError(f"--r must be >= 0, got {R}", field="r")
    top = schedule.trunc_degree - schedule.block_width
    if not 1 <= n_window <= top:
        raise ConfigError(f"--n-window must lie in [1, {top}], got {n_window}",
                          field="n_window")
    if samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {samples}", field="samples")
    report = frequency_report(f, schedule, w, n_window, eps, R, m=samples)
    rows = []
    ok = True
    for j in range(1, len(schedule.targets) + 1):
        nominal = report.nominal[j - 1]
        density = report.densities[j - 1]
        rows.append((j, report.counts[j - 1], density, nominal))
        if density < nominal / 2:
            ok = False
    extras = {"input": opt["input"], "plan": opt["plan"],
              "eps": opt.get("eps", "0.1"), "r": opt.get("r", "1"),
              "n_window": n_window, "samples": samples}
    _write_csv(config.output, _banner(config, extras),
               "j,hit_count,density,nominal_density", rows)
    if not ok:
        print("frequency: a target fell below half its nominal density",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_decay(config: ExperimentConfig, opt: dict) -> int:
    f, w, _ = _load_series(opt["input"])
    q = mpf(opt.get("q", "2"))
    M = opt.get("m", 2048)
    report = density_decay_check(f, w, q, M)
    rows = [(m, sigma, event)
            for m, (sigma, event) in enumerate(
                zip(report.sigma, report.event_density), start=1)]
    extras = {"input": opt["input"], "q": opt.get("q", "2"), "m": M,
              "alpha": to_decimal(w.alpha)}
    _write_csv(config.output, _banner(config, extras),
               "m,sigma_m,event_density", rows)
    if not report.bound_holds:
        print("decay: event density exceeded the sigma comparison bound",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


_COMMANDS = {
    "weights": _cmd_weights,
    "apply": _cmd_apply,
    "means": _cmd_means,
    "verify-lemma1": _cmd_verify_lemma1,
    "verify-lemma3": _cmd_verify_lemma3,
    "verify-hy": _cmd_verify_hy,
    "verify-barnes": _cmd_verify_barnes,
    "build-hc": _cmd_build_hc,
    "build-fhc": _cmd_build_fhc,
    "orbit": _cmd_orbit,
    "frequency": _cmd_frequency,
    "decay": _cmd_decay,
}


def run(subcommand: str, config: ExperimentConfig, options: dict | None = None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    try:
        if subcommand not in _COMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        config.validate()
        set_precision(config.precision_bits)
        return _COMMANDS[subcommand](config, options or {})
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleConstruction as e:
        print(f"{subcommand}: infeasible construction: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


class _Parser(argparse.ArgumentParser):
    # argparse's own usage failures must map to the invalid-config exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--alpha")
    common.add_argument("--p")
    common.add_argument("--precision-bits", type=int, dest="precision_bits")
    common.add_argument("--trunc-degree", type=int, dest="trunc_degree")
    common.add_argument("--r-min", dest="r_min")
    common.add_argument("--r-max", dest="r_max")
    common.add_argument("--r-points", type=int, dest="r_points")
    common.add_argument("--seed", type=int)
    common.add_argument("-o", "--output")

    parser = _Parser(prog="dunkldyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text)

    s = add("weights", "weight table d_n")
    s.add_argument("--n", type=int, help="largest index (default trunc_degree)")

    s = add("apply", "k-fold operator action on a series file")
    s.add_argument("--input", required=True)
    s.add_argument("--k", type=int, default=1)

    s = add("means", "M_p sweep over the radius grid")
    s.add_argument("--input", required=True)

    s = add("verify-lemma1", "weight comparison ratio stays in band")
    s.add_argument("--n", type=int, default=5000)

    s = add("verify-lemma3", "kernel mean ratio bounded on the grid")
    s.add_argument("--q", default="1")

    s = add("verify-hy", "Hausdorff-Young margins on random polynomials")
    s.add_argument("--count", type=int, default=100)
    s.add_argument("--max-degree", type=int, dest="max_degree", default=64)
    s.add_argument("--radii", default="0.5,1,5")

    s = add("verify-barnes", "series vs asymptotic for the kernel sum")
    s.add_argument("--ml-alpha", dest="ml_alpha", default="1")
    s.add_argument("--beta", default="0")
    s.add_argument("--theta", default="1")

    s = add("build-hc", "hypercyclic construction at critical growth")
    s.add_argument("--targets", type=int, default=12)

    s = add("build-fhc", "frequently hypercyclic construction")
    s.add_argument("--targets", type=int, default=3)
    s.add_argument("--block-width", type=int, dest="block_width", default=8)

    s = add("orbit", "orbit at zero; verifies plan budgets when given")
    s.add_argument("--input", required=True)
    s.add_argument("--plan")
    s.add_argument("--n", type=int)
    s.add_argument("--windows", help="comma list of r_max values for C_star")

    s = add("frequency", "orbit-hit densities against the schedule")
    s.add_argument("--input", required=True)
    s.add_argument("--plan", required=True)
    s.add_argument("--eps", default="0.1")
    s.add_argument("--r", default="1")
    s.add_argument("--n-window", type=int, dest="n_window", default=2048)
    s.add_argument("--samples", type=int, default=64)

    s = add("decay", "sigma_m decay next to orbit-event density")
    s.add_argument("--input", required=True)
    s.add_argument("--q", default="2")
    s.add_argument("--m", type=int, default=2048)

    return parser


_CONFIG_FLAGS = ("alpha", "p", "precision_bits", "trunc_degree", "r_min",
                 "r_max", "r_points", "seed", "output")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flag_values = {k: getattr(args, k) for k in _CONFIG_FLAGS}
    options = {k: v for k, v in vars(args).items()
               if k not in _CONFIG_FLAGS and k not in ("config", "subcommand")}
    try:
        config = load_config(args.config, flag_values, args.subcommand)
        return run(args.subcommand, config, options)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
