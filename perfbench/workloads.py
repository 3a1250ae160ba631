"""The benchmark's three workloads: set-up, job list and output checks.

Each job is one CLI subcommand run in-process through ``dunkldyn.cli.main``
or one library call.  ``run`` is the timed part; ``check`` runs untimed
afterwards, raises ``Mismatch`` when an output fails an oracle or inequality
check, and returns the observed values that ``compare`` holds against the
references frozen from the seed commit (``reference.json``).

Package functions are always called through their module attribute
(``construct.build_hypercyclic``), so the traced run's wrappers see them.
See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction as F
from typing import Callable, NamedTuple

import mpmath
from mpmath import mp, mpf

from dunkldyn import cli, construct, dunkl, growth, means, series

BITS = 256
ALPHAS = ("-0.49", "0", "0.5", "1", "3")

# Job sizes.  Each workload's job list takes about 5 s on a 2-core VM, so a
# 30 s run repeats it about six times, and per-job medians over the passes
# reject the bursts of neighbour load that a shared machine shows.
SWEEP_POINTS = "64"  # radius grid of the growth-sweep means and windows
LEMMA3_POINTS = "128"
TABLE_N = 2048  # weight tables and their Gamma closed-form check
LEMMA1_N = "2500"

# tolerances the repository's tests apply to each quantity
REL_MEAN = 1e-12  # M_p and quantities derived from it (tests/test_means.py)
REL_GOLDEN = 0.01  # calibrated goldens: lemma bands and sups (tests/test_acceptance.py)
REL_ML = 2.0**-200  # Mittag-Leffler values (tests/test_growth.py)
REL_WEIGHT = mpf(2) ** -236  # recurrence vs Gamma closed form (acceptance 02)
REL_OPERATOR = mpf(2) ** (30 - BITS)  # apply_dunkl vs apply_dunkl_direct (acceptance 01)


class Mismatch(Exception):
    """An output that misses its reference or fails its oracle."""


class Approx(NamedTuple):
    """Decimal strings compared with a relative tolerance."""

    values: list
    rel: float

    @classmethod
    def of(cls, values, rel: float) -> "Approx":
        digits = int(-math.log10(rel)) + 5
        with mp.workprec(BITS):
            return cls([mpmath.nstr(mpf(v), digits) for v in values], rel)

    def to_json(self) -> dict:
        return {"rel": self.rel, "values": self.values}


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


class Workload(NamedTuple):
    name: str
    setup: Callable[[str, int], object]  # (workdir, seed) -> context
    jobs: Callable[[object], list]  # context -> [Job]


def compare(observed: dict, reference: dict) -> None:
    """Raise Mismatch unless every referenced value is reproduced."""
    for key, want in reference.items():
        if key not in observed:
            raise Mismatch(f"{key}: missing from output")
        got = observed[key]
        if isinstance(want, dict):
            got_values = got.values if isinstance(got, Approx) else got
            if len(got_values) != len(want["values"]):
                raise Mismatch(f"{key}: {len(got_values)} values, want {len(want['values'])}")
            with mp.workprec(BITS):
                for i, (g, w) in enumerate(zip(got_values, want["values"])):
                    g, w = mpf(g), mpf(w)
                    if not abs(g - w) <= want["rel"] * abs(w):
                        raise Mismatch(f"{key}[{i}]: {mpmath.nstr(g, 17)} vs reference "
                                       f"{mpmath.nstr(w, 17)} (rel tol {want['rel']:.3g})")
        elif got != want:
            raise Mismatch(f"{key}: got {got!r}, want {want!r}")


def to_json(observed: dict) -> dict:
    return {k: v.to_json() if isinstance(v, Approx) else v for k, v in observed.items()}


# ---------------------------------------------------------------------------
# helpers


def read_csv(path: str) -> tuple[dict, dict]:
    """(banner settings, column name -> list of cell strings) of a CLI CSV."""
    with open(path) as fh:
        banner = fh.readline().rstrip("\n")
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    settings = dict(item.split("=", 1) for item in banner.removeprefix("# config: ").split())
    return settings, {name: [row[i] for row in rows] for i, name in enumerate(header)}


def cli_job(name: str, argv: list, output: str, check: Callable[[str], dict]) -> Job:
    """A subcommand run through ``cli.main``; a non-zero exit fails the job."""

    def run():
        code = cli.main(argv + ["-o", output])
        if code != 0:
            raise Mismatch(f"exit code {code}")
        return output

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# build-verify: both builders and their verifiers, no mean_p work


def _build_verify_setup(workdir: str, seed: int):
    mp.prec = BITS
    return {
        "dir": workdir,
        "env": growth.RateEnvelope.log_growth(),
        "w0": dunkl.DunklWeights(mpf(0), 4096),
    }


def _build_verify_jobs(ctx) -> list:
    d = ctx["dir"]
    hc, fhc = os.path.join(d, "hc"), os.path.join(d, "fhc")
    built = {}

    def hc_positions(out):
        return {"positions": [int(m) for m in read_csv(out)[1]["m_k"]]}

    def orbit_summary(out):
        settings = read_csv(out)[0]
        return {"sup_index": int(settings["sup_index"]), "bounded": int(settings["bounded"])}

    def single_target():
        cfg = construct.BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        built["f"], plan = construct.build_hypercyclic(ctx["w0"], ctx["env"], 1, cfg)
        return plan

    def decay():
        if "f" not in built:
            raise Mismatch("no series: the single-target build failed")
        return construct.density_decay_check(built.pop("f"), ctx["w0"], 2, 2048)

    def decay_bars(report):
        """Acceptance 10's sparse-build bars: sigma_2048 < 0.01, halving from m = 1024."""
        if not report.bound_holds:
            raise Mismatch("event density exceeded sigma")
        if not report.final_sigma() < mpf("0.01"):
            raise Mismatch(f"sigma_2048 = {mpmath.nstr(report.final_sigma(), 6)} >= 0.01")
        if not report.sigma[2047] <= mpf("0.51") * report.sigma[1023]:
            raise Mismatch("sigma did not halve between m = 1024 and m = 2048")
        return {}

    def m_0(out):
        return {"m_0": int(read_csv(out)[0]["m_0"])}

    def hit_counts(out):
        return {"hit_count": [int(c) for c in read_csv(out)[1]["hit_count"]]}

    def last_sigma(out):
        cols = read_csv(out)[1]
        return {"final": Approx.of([cols["sigma_m"][-1], cols["event_density"][-1]], REL_MEAN)}

    return [
        cli_job("build-hc alpha=0", ["build-hc", "--alpha", "0"], hc + ".csv", hc_positions),
        cli_job("orbit --plan alpha=0",
                ["orbit", "--input", hc + ".series", "--plan", hc + ".plan"],
                hc + "-orbit.csv", orbit_summary),
        Job("single-target 1 alpha=0", single_target,
            lambda plan: {"positions": list(plan.positions)}),
        Job("density_decay_check 1 alpha=0", decay, decay_bars),
        cli_job("build-fhc alpha=1 p=2", ["build-fhc", "--alpha", "1", "--p", "2"],
                fhc + ".csv", m_0),
        cli_job("frequency p=2", ["frequency", "--input", fhc + ".series", "--plan", fhc + ".plan"],
                fhc + "-freq.csv", hit_counts),
        cli_job("decay p=2", ["decay", "--input", fhc + ".series"], fhc + "-decay.csv", last_sigma),
    ]


# ---------------------------------------------------------------------------
# growth-sweep: M_p sweeps on large series built in set-up


def _growth_sweep_setup(workdir: str, seed: int):
    mp.prec = BITS
    env = growth.RateEnvelope.log_growth()
    w1 = dunkl.DunklWeights(mpf(1), 4096)
    fhc, _ = construct.build_frequently_hypercyclic(w1, mpf(2), env, 3)
    w0 = dunkl.DunklWeights(mpf(0), 4096)
    hc, _ = construct.build_hypercyclic(w0, env, 12)
    paths = {}
    for name, f, alpha in (("fhc", fhc, 1), ("hc", hc, 0),
                           ("exp", series.exp_truncation(256), 0)):
        paths[name] = os.path.join(workdir, f"{name}.series")
        series.write_series(f, paths[name], mpf(alpha), precision_bits=BITS)
    return {"dir": workdir, "env": env, "fhc": fhc, "paths": paths}


def _growth_sweep_jobs(ctx) -> list:
    d, paths = ctx["dir"], ctx["paths"]

    def sweep(out):
        return {"M_p": Approx.of(read_csv(out)[1]["M_p"], REL_MEAN)}

    jobs = [
        cli_job(f"means p={p} {name}",
                ["means", "--input", paths[name], "--p", p, "--r-points", SWEEP_POINTS],
                os.path.join(d, f"means-{name}-{p}.csv"), sweep)
        for name, p in (("fhc", "2"), ("fhc", "1"), ("hc", "inf"), ("exp", "1.5"))
    ]

    def profile():
        a = growth.rate_exponent(means.P_INF, mpf(1), "fhc_upper")
        grid = growth.standard_r_grid(points=8)
        return growth.growth_profile(ctx["fhc"], means.P_INF, a, ctx["env"], grid)

    jobs.append(Job("growth_profile p=inf fhc", profile,
                    lambda prof: {"ratios": Approx.of(prof.ratios, REL_MEAN),
                                  "satisfied_from": prof.satisfied_from}))

    def ladder(out):
        c_star = read_csv(out)[1]["C_star"]
        with mp.workprec(BITS):
            values = [mpf(c) for c in c_star]
        if not all(b > a for a, b in zip(values, values[1:])):
            raise Mismatch("windowed C_star is not strictly increasing")
        return {"C_star": Approx.of(c_star, REL_MEAN)}

    jobs.append(cli_job("orbit --windows hc",
                        ["orbit", "--input", paths["hc"], "--windows", "50,100,200,400",
                         "--r-points", SWEEP_POINTS],
                        os.path.join(d, "windows.csv"), ladder))
    return jobs


# ---------------------------------------------------------------------------
# kernels: scalar mpf checks and many small calls


def _kernels_setup(workdir: str, seed: int):
    mp.prec = BITS
    return {
        "dir": workdir,
        "seed": seed,
        "tables": {a: dunkl.DunklWeights(mpf(a), TABLE_N) for a in ALPHAS},
        "small": {a: dunkl.DunklWeights(mpf(a), 160) for a in ALPHAS},
    }


def _weight_close(a, b) -> bool:
    return abs(a - b) <= REL_WEIGHT * max(1, abs(a))


def _kernels_jobs(ctx) -> list:
    d, seed = ctx["dir"], ctx["seed"]
    jobs = []

    for alpha in ALPHAS:
        w = ctx["tables"][alpha]

        def weights_table(out, w=w):
            log_d = read_csv(out)[1]["log_d_n"]
            if len(log_d) != w.n_max + 1:
                raise Mismatch(f"{len(log_d)} rows, want {w.n_max + 1}")
            with mp.workprec(BITS):
                for n in range(0, len(log_d), 16):
                    if not _weight_close(mpf(log_d[n]), w.log_weight(n)):
                        raise Mismatch(f"log d_{n} differs from the recurrence table")
            return {}

        def gamma_form(w=w):
            return [w.gamma_form_log_weight(n) for n in range(0, w.n_max + 1, 16)]

        def gamma_check(values, w=w):
            for n, v in zip(range(0, w.n_max + 1, 16), values):
                if not _weight_close(w.log_weight(n), v):
                    raise Mismatch(f"Gamma closed form differs from the recurrence at n={n}")
            return {}

        def band(out):
            ratios = [float(x) for x in read_csv(out)[1]["ratio"]]
            return {"band": Approx.of([min(ratios), max(ratios)], REL_GOLDEN)}

        jobs.append(cli_job(f"weights alpha={alpha}",
                            ["weights", "--alpha", alpha, "--n", str(TABLE_N)],
                            os.path.join(d, f"weights{alpha}.csv"), weights_table))
        jobs.append(Job(f"gamma closed form alpha={alpha}", gamma_form, gamma_check))
        jobs.append(cli_job(f"verify-lemma1 alpha={alpha}",
                            ["verify-lemma1", "--alpha", alpha, "--n", LEMMA1_N],
                            os.path.join(d, f"lemma1-{alpha}.csv"), band))

    def kernel_sup(out):
        return {"sup": Approx.of([max(float(x) for x in read_csv(out)[1]["ratio"])], REL_GOLDEN)}

    for q in ("1", "1.5", "2"):
        jobs.append(cli_job(f"verify-lemma3 q={q}",
                            ["verify-lemma3", "--q", q, "--r-min", "0.1", "--r-max", "200",
                             "--r-points", LEMMA3_POINTS],
                            os.path.join(d, f"lemma3-{q}.csv"), kernel_sup))

    def ml_values(out):
        return {"ml_value": Approx.of(read_csv(out)[1]["ml_value"], REL_ML)}

    # ml_alpha 1 sums about r terms, so its grid stops at 4e4 to keep one
    # job near a second; ml_alpha 2 runs the default 8 radii up to 1e5
    for ml, extra in (("1", ["--r-max", "40000", "--r-points", "2"]), ("2", [])):
        jobs.append(cli_job(f"verify-barnes ml_alpha={ml}",
                            ["verify-barnes", "--ml-alpha", ml, *extra],
                            os.path.join(d, f"barnes{ml}.csv"), ml_values))

    def hy_margins(out, p):
        cols = read_csv(out)[1]
        with mp.workprec(BITS):
            for margin, rhs in zip(cols["margin"], cols["rhs"]):
                margin, rhs = mpf(margin), mpf(rhs)
                if margin < -mpf("1e-6") * rhs or (p == "2" and abs(margin) > mpf("1e-30") * rhs):
                    raise Mismatch(f"margin {mpmath.nstr(margin, 6)} out of tolerance")
        return {}

    for p in ("1.25", "1.5", "2"):
        jobs.append(cli_job(f"verify-hy p={p}",
                            ["verify-hy", "--p", p, "--seed", str(seed), "--count", "50"],
                            os.path.join(d, f"hy{p}.csv"),
                            lambda out, p=p: hy_margins(out, p)))

    def operator_pairs():
        rng = random.Random(seed)
        pairs = []
        for alpha in ALPHAS:
            w = ctx["small"][alpha]
            for _ in range(20):
                degree = rng.randint(0, 128)
                coeffs = {n: mpf(rng.uniform(-1, 1)) for n in range(degree + 1)}
                f = series.TruncatedSeries(coeffs, trunc_degree=160)
                k = rng.randint(1, 3)
                pairs.append((dunkl.apply_dunkl(f, w, k), dunkl.apply_dunkl_direct(f, w, k),
                              degree - k))
        return pairs

    def operator_check(pairs):
        for via_table, via_direct, top in pairs:
            for n in range(top + 1):
                a, b = via_table.coeff(n), via_direct.coeff(n)
                if not abs(a - b) <= REL_OPERATOR * abs(b):
                    raise Mismatch(f"apply_dunkl differs from apply_dunkl_direct at n={n}")
        return {}

    jobs.append(Job("operator oracle", operator_pairs, operator_check))
    return jobs


WORKLOADS = {
    "build-verify": Workload("build-verify", _build_verify_setup, _build_verify_jobs),
    "growth-sweep": Workload("growth-sweep", _growth_sweep_setup, _growth_sweep_jobs),
    "kernels": Workload("kernels", _kernels_setup, _kernels_jobs),
}
