"""Constructive builders for hypercyclic and frequently hypercyclic series.

The hypercyclic builder lays target polynomials Q_k into disjoint coefficient
blocks S^{m_k} Q_k, choosing each m_k as the smallest position satisfying

  (a) disjointness from the previous block,
  (b) the block's weighted-norm upper bound on the radius grid stays under
      an internal threshold eps_k / 8 (so the stated budget eps_k = 2^-k
      holds with headroom), and
  (c) the block's shadow at every earlier position j < k, the circle sup of
      S^{m_k - m_j} Q_k at the build radius R = 2, stays under eps_k Phi(R)/2,
      where Phi(R) = env(R) e^R / R^{alpha+1}.

Condition (c) is what makes the orbit verification budgets attainable: the
residual Lambda^{m_j} f - Q_j equals exactly the sum of those shadows of the
later blocks, so bounding the shadows term by term bounds every residual by
its tail budget.  Without it, consecutive blocks can sit a few slots apart
and leave residuals of order one against budgets of order 2^-K.

Optionally the builder pre-places positive "filler" monomials at low degrees
whose coefficients fill the envelope up to a fixed fraction: the running
total of their contributions to M_1(f, r) r^{alpha+1}/e^r touches 0.35 env(r)
near each filler's peak radius and exceeds it by at most ~1%.  A float64
screen (``_calibrate_fillers``) sends only the radii that can bind to mpf.
Fillers sit strictly below every target block, so Lambda^{m_k} annihilates
them and no residual changes; their job is to make the windowed growth
constant of the construction strictly increase as the radius window widens,
at every scale the grid can see rather than only near its upper edge.

The frequently hypercyclic builder uses the dyadic-residue schedule
A_j = {m_0 + B (2^j k + 2^{j-1})}: exact nominal densities 1/(B 2^j),
pairwise disjointness by 2-adic valuation, O(1) membership.  The start
offset m_0 is the smallest making the total weighted-norm bound of all
scheduled blocks fit NORM_BUDGET.

Every placement decision of both builders compares a log bound of one
float64 weighted-norm kernel, built once per (weights, envelope, exponent,
grid, truncation), with a log threshold.  The frequently hypercyclic side sums
its factor table against the (i, ln |q_i| d_i) pairs of each target and
bisects for m_0.  The hypercyclic scan, which cannot bisect because the bound
is not monotone in m, scores chunks of candidate m in increasing order: test
(b) on the radius grid, and test (c) on the one-point grid (R), where the
penalty (alpha+1) ln R - ln env(R) - R is -ln Phi(R), so the kernel's bound of
S^gap Q_k is ln(shadow bound / Phi(R)) against ln(eps_k / 2).  (c) checks the
nearest earlier block only: for n >= 3, a_n >= n > R = 2 (and a_2 = R), so the
shadow bound does not grow with the gap.  The kernel's ln d_n comes from the
float64 closed Gamma form (``DunklWeights.float_log_weights``), within 3.2
units of 2^-52 max(1, |ln d_n|) of the rounded mpf table: 7.3e-12 absolute up
to n = 4096, 2.9e-11 up to 16384.  So the mpf table is filled only as far as
the blocks' mpf coefficients (``right_inverse``) read it.  The logs stay below
a few times 10^4 at the default truncation, so a float64 log bound is off by
at most ~1e-11.  Over the 15 shipped builds (K = 6, 12, 20 at alpha -0.49, 0,
0.5, 1, 3) no scanned norm bound comes within 5e-4 of its log threshold and no
shadow bound within 0.0075, so none of their placements can move.  That holds
for those builds only: any alpha is accepted, and near a tie the float64 bound
and its mpf definition can fall on either side of the threshold.  In
build_hypercyclic(DunklWeights("-0.3388801499199742", 4096), log_growth, 6),
block 3 (target -1) sits at m = 432, where the kernel puts the norm bound
4.1e-13 nats below its cap and the mpf bound puts it 5.7e-14 above.  A guard
band for such ties is open item 4 of ROADMAP.md.

The tuning is fixed by the module constants below; BuilderConfig holds only
what a caller chooses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
from mpmath import mp, mpf, mpc
from mpmath.libmp import (fone, from_int, fzero, mpc_abs, mpf_add, mpf_exp, mpf_gt, mpf_le,
                          mpf_log, mpf_pow, round_nearest, to_float)

from .dunkl import DunklWeights, _at_table_precision, _require_table, apply_dunkl, right_inverse
from .growth import RateEnvelope, rate_exponent, standard_r_grid
from .means import _BLOCK_ELEMENTS, _log_abs_and_phase
from .numeric import to_decimal
from .series import TruncatedSeries, read_header, read_text

Polynomial = tuple  # of Fraction, low degree first, no trailing zeros

MAX_DEGREE = 8  # largest target degree
R_BUILD = 2.0  # circle radius for shadow control and orbit verification
NORM_BUDGET = 1.0  # total weighted-norm budget of the fhc schedule
_BUDGET_TIGHTEN = 8  # internal norm threshold = eps_k / this
_SHADOW_SAFETY = 2  # shadow threshold = eps_k Phi(R) / this
# filler ladder: degrees from the cap down by the ratio to the base, filled
# up to _FILLER_SAT of the envelope
_FILLER_BASE_DEGREE = 4
_FILLER_CAP_DEGREE = 360
_FILLER_RATIO = 1.75
_FILLER_SAT = 0.35
_SCREEN_MARGIN = 1e-6  # filler screen: relative margin of the float64 room
_SCREEN_SLACK = 1e-3  # filler screen: 1 - running/cap below which it cancels


class InfeasibleConstruction(Exception):
    """Raised when a schedule cannot fit the truncation order."""

    def __init__(self, message, achieved=0):
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# polynomials and their enumeration


def poly_degree(poly: Polynomial) -> int:
    return len(poly) - 1


def poly_is_zero(poly: Polynomial) -> bool:
    return len(poly) == 0


def poly_normalize(coeffs) -> Polynomial:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_to_series(poly: Polynomial, trunc_degree: int) -> TruncatedSeries:
    table = {}
    for i, c in enumerate(poly):
        if c != 0:
            table[i] = mpc(mpf(c.numerator) / c.denominator)
    return TruncatedSeries(table, trunc_degree)


def poly_label(poly: Polynomial) -> str:
    if poly_is_zero(poly):
        return "0"
    parts = []
    for i in range(len(poly) - 1, -1, -1):
        c = poly[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}") + ("z" if i == 1 else f"z^{i}")
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


def _rationals_of_height(h: int):
    """Reduced fractions with max(|num|, den) == h, denominator-major order."""
    for den in range(1, h + 1):
        for num in range(1, h + 1):
            if max(num, den) == h and math.gcd(num, den) == 1:
                yield Fraction(num, den)
                yield Fraction(-num, den)


def _targets():
    """Every rational polynomial of degree <= MAX_DEGREE, once each, after the zero polynomial.

    Stage h >= 1 yields, in order of degree, then leading coefficient, then
    lower coefficients with the constant term varying fastest, every
    polynomial whose coefficient data has height max(|num|, den) exactly h,
    so every rational polynomial with bounded data is eventually reached.
    """
    h = 0
    values = [Fraction(0)]
    while True:
        h += 1
        values = values + list(_rationals_of_height(h))
        nonzero = [v for v in values if v != 0]
        for d in range(MAX_DEGREE + 1):
            for lead in nonzero:
                for lower in product(values, repeat=d):
                    data = lower + (lead,)
                    if max(max(abs(c.numerator), c.denominator) for c in data) != h:
                        continue
                    yield tuple(reversed(lower)) + (lead,)


_TARGETS = [()]  # the enumeration so far; index 1 is the zero polynomial
_MORE_TARGETS = _targets()


def enumerate_targets(index: int) -> Polynomial:
    """The deterministic bijection index -> rational polynomial of ``_targets``, from index 1."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    while len(_TARGETS) < index:
        _TARGETS.append(next(_MORE_TARGETS))
    return _TARGETS[index - 1]


# ---------------------------------------------------------------------------
# configuration and plan containers


@dataclass
class BuilderConfig:
    """What a caller of the builders chooses; the rest of the tuning is the
    module constants (MAX_DEGREE, R_BUILD, NORM_BUDGET and the private ones)."""

    targets: tuple | None = None  # explicit Polynomial list overrides enumeration
    r_grid: tuple | None = None  # default standard_r_grid()
    saturate_envelope: bool = True  # place filler monomials under the targets
    block_width: int = 8  # B for the dyadic-residue schedule

    def grid(self):
        return self.r_grid if self.r_grid is not None else standard_r_grid()


@dataclass(frozen=True)
class ConstructionPlan:
    targets: tuple  # Polynomial per block
    indices: tuple  # enumeration index per block, or None for custom targets
    positions: tuple  # m_k
    budgets: tuple  # eps_k = 2^-k
    alpha: mpf
    trunc_degree: int
    r_build: float
    filler_degrees: tuple = ()
    filler_coeffs: tuple = ()

    def __post_init__(self):
        for k in range(1, len(self.positions)):
            gap = self.positions[k] - self.positions[k - 1]
            if gap <= max(poly_degree(self.targets[k - 1]), 0):
                raise ValueError(f"blocks {k} and {k + 1} overlap (gap {gap})")
        for m, q in zip(self.positions, self.targets):
            if m + max(poly_degree(q), 0) > self.trunc_degree:
                raise ValueError(f"block at {m} exceeds trunc_degree {self.trunc_degree}")


@dataclass(frozen=True)
class FhcSchedule:
    targets: tuple
    indices: tuple
    block_width: int
    m_0: int
    trunc_degree: int
    alpha: mpf
    p: object
    norm_budget: float

    def __post_init__(self):
        if self.block_width < 1:
            raise ValueError(f"block_width must be >= 1, got {self.block_width}")

    def period(self, j: int) -> int:
        """B 2^j, the spacing of target j's placements (1-based j)."""
        return self.block_width << j

    def positions(self, j: int) -> tuple:
        """All placements m_0 + B 2^(j-1) + k B 2^j of target j inside the truncation."""
        step = self.period(j)
        return tuple(range(self.m_0 + step // 2, self.trunc_degree - self.block_width + 1, step))

    def nominal_density(self, j: int) -> Fraction:
        return Fraction(1, self.period(j))


# ---------------------------------------------------------------------------
# weighted-norm kernel (upper bounds via coefficient sums)

_PROBE_CHUNK = 64  # candidate positions scored per batched norm probe


def _phi_at(env: RateEnvelope, w: DunklWeights, r) -> mpf:
    return env(r) * mpmath.exp(r) / r ** (w.alpha + 1)


class _NormKernel:
    """Weighted norm sup_r [sum_n |y_n| r^n] r^a / (env(r) e^r) over a radius grid.

    Holds ln r, the penalty a ln r - ln env(r) - r, logd = ln d_n as the
    caller passes it (``w.float_log_weights``) and log_env, ln of env_vals =
    env on r_grid, as float64 arrays; all work stays in the log domain, so
    nothing overflows.
    """

    def __init__(self, logd: np.ndarray, env_vals, a, r_grid):
        self.ln_r = np.array([float(mpmath.ln(r)) for r in r_grid])
        self.log_env = np.array([float(mpmath.ln(v)) for v in env_vals])
        r_vals = np.array([float(r) for r in r_grid])
        self.pen = float(a) * self.ln_r - self.log_env - r_vals
        self.logd = logd

    def factor_table(self) -> np.ndarray:
        """g[nu] = max_r r^{nu+a} / (d_nu env(r) e^r), flushed to 0 below e^-745.

        The norm bound of S^n y is then sum_i |y_i| d_i g[n+i].  ln d_nu is
        subtracted after the max over r, from one nu x R array built in place:
        fl(y - c) is nondecreasing in y, so max_r fl(y_r - c) = fl(max_r y_r - c)
        and g equals the table of fl(fl(nu ln r + pen) - ln d_nu) maxed over r
        bit for bit.  The array is not split into cache-sized chunks: with
        glibc, smaller temporaries keep its mmap threshold low, and the 2-4 MB
        temporaries of ``means`` that follow in the same process then fault in
        fresh pages.
        """
        logs = np.arange(self.logd.size)[:, None] * self.ln_r
        logs += self.pen
        log_g = logs.max(axis=1) - self.logd
        return np.where(log_g > -745.0, np.exp(np.maximum(log_g, -745.0)), 0.0)

    def log_factors(self, poly: Polynomial) -> tuple:
        """(i, ln(|q_i| d_i)) over the nonzero coefficients q_i of poly, as two arrays."""
        idx = np.array([i for i, c in enumerate(poly) if c != 0])
        return idx, np.array([math.log(abs(c)) for c in poly if c != 0]) + self.logd[idx]

    def block_log_norms(self, poly: Polynomial, ms: np.ndarray) -> np.ndarray:
        """ln of the bound for S^m poly (q_i d_i / d_{m+i} at degree m + i), per m in ms."""
        idx, log_c = self.log_factors(poly)
        deg = ms[None, :] + idx[:, None]
        logs = (log_c[:, None] - self.logd[deg])[:, :, None] + deg[:, :, None] * self.ln_r
        top = logs.max(axis=0)
        lse = top + np.log(np.exp(logs - top).sum(axis=0))
        return (lse + self.pen).max(axis=1)


def _calibrate_fillers(w: DunklWeights, env: RateEnvelope, r_grid, log_env: np.ndarray):
    """Degrees and coefficients of the envelope-saturating filler ladder.

    Walking a geometric ramp of degrees from the cap down, each coefficient
    gamma is the largest keeping the running total sum_j gamma_j
    r^{P_j + alpha + 1}/e^r at or below _FILLER_SAT * env(r) at every point
    where the new mode carries at least 1% of its peak (the grid is augmented
    with the analytic peak radii P + alpha + 1, so calibration does not depend
    on grid alignment).  Large degrees go first, so each drives the total up
    to the scaled envelope near its own peak; the cutoff keeps a touched point
    far from the new peak from zeroing gamma.  The total touches _FILLER_SAT *
    env near every surviving ramp radius and exceeds it by at most about 1%.

    A float64 screen of ln mode, ln cap (log_env: ln env on r_grid) and q =
    running / cap sends to the mpf room (cap - running) / mode only points
    within _SCREEN_MARGIN (1e-6) of the least screened room or with 1 - q <
    _SCREEN_SLACK (1e-3), where it cancels; mpf also decides significance
    within _SCREEN_MARGIN of the cutoff.  The screen errs by ~1e-9 elsewhere.
    The mpf running total at a point is replayed, rv = rv + gamma_j mode_j in
    placement order, modes memoised per (P, point): bit-identical to a full pass.
    """
    ramp = []
    P = _FILLER_CAP_DEGREE
    while P >= _FILLER_BASE_DEGREE:
        ramp.append(P)
        nxt = math.floor(P / _FILLER_RATIO)
        P = nxt if nxt < P else P - 1
    on_grid = dict(zip((float(r) for r in r_grid), log_env))
    points = sorted(set(on_grid) | {float(P + w.alpha + 1) for P in ramp})
    r, ln_r = np.array(points), np.log(points)
    ln_cap = math.log(_FILLER_SAT) + np.array([on_grid[x] if x in on_grid else
                                               float(mpmath.ln(env(mpf(repr(x))))) for x in points])
    exact, modes = {}, {}  # point -> mpf (r, ln r, cap); (P, point) -> mpf mode

    def mode(P, i):
        if i not in exact:
            x = mpf(repr(points[i]))
            exact[i] = (x, mpmath.ln(x), mpf(_FILLER_SAT) * env(x))
        if (P, i) not in modes:
            modes[P, i] = mpmath.exp((P + w.alpha + 1) * exact[i][1] - exact[i][0])
        return modes[P, i]

    def room(P, i):
        mv, rv = mode(P, i), mpf(0)
        for Pj, gj in placed:
            rv = rv + gj * mode(Pj, i)
        return (exact[i][2] - rv) / mv

    significance = mpf("0.01")
    placed, q = [], np.zeros(r.size)  # q: running / cap
    for P in ramp:
        ln_mode = (P + float(w.alpha) + 1) * ln_r - r
        rel = ln_mode - ln_mode.max() + math.log(100)  # > 0: significant
        significant = rel > 0
        top = np.flatnonzero(rel >= math.log(100) - _SCREEN_MARGIN)
        for i in np.flatnonzero(np.abs(rel) <= _SCREEN_MARGIN):  # the mpf peak decides
            significant[i] = not mode(P, i) < max(mode(P, j) for j in top) * significance
        cancels = q > 1 - _SCREEN_SLACK
        ln_room = np.where(significant & ~cancels, ln_cap - ln_mode
                           + np.log1p(-np.minimum(q, 1 - _SCREEN_SLACK)), np.inf)
        near = np.isfinite(ln_room) & (ln_room <= ln_room.min() + _SCREEN_MARGIN)
        gamma = min((room(P, i) for i in np.flatnonzero(significant & cancels | near)),
                    default=None)
        if gamma is None or gamma <= 0:
            continue
        placed.append((P, gamma))
        q += np.exp(float(mpmath.ln(gamma)) + ln_mode - ln_cap)
    placed.sort()
    return tuple(P for P, _ in placed), tuple(g for _, g in placed)


def _builder_setup(w, env, count, name, cfg, trunc_degree, first_index):
    """(cfg, grid, env_vals, targets, indices) after the checks both builders share.

    cfg defaults to BuilderConfig(); grid is cfg.grid() and env_vals env on it,
    each computed once per build; targets are cfg.targets when given, else the
    count polynomials of the enumeration from first_index on.
    """
    cfg = cfg or BuilderConfig()
    grid = cfg.grid()
    env_vals = env.validate_on(grid)
    if cfg.targets is not None:
        targets = tuple(poly_normalize(t) for t in cfg.targets)
        indices = (None,) * len(targets)
        if len(targets) != count:
            raise ValueError(f"cfg.targets has {len(targets)} entries, {name}={count}")
    else:
        indices = tuple(range(first_index, first_index + count))
        targets = tuple(enumerate_targets(i) for i in indices)
    _require_table(w, trunc_degree)
    return cfg, grid, env_vals, targets, indices


# ---------------------------------------------------------------------------
# hypercyclic builder and verification


@_at_table_precision
def build_hypercyclic(
    w: DunklWeights,
    env: RateEnvelope,
    K: int,
    cfg: BuilderConfig | None = None,
    trunc_degree: int = 4096,
):
    """f = sum_k S^{m_k} Q_k meeting per-block budgets eps_k = 2^-k.

    Returns (TruncatedSeries, ConstructionPlan).  Raises
    InfeasibleConstruction (with the largest achievable K attached) when the
    truncation order is exhausted first.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    cfg, grid, env_vals, targets, indices = _builder_setup(w, env, K, "K", cfg, trunc_degree, 1)
    if any(poly_degree(q) > MAX_DEGREE for q in targets):
        raise ValueError(f"targets must have degree <= {MAX_DEGREE}")

    kernel = _NormKernel(w.float_log_weights(trunc_degree), env_vals, w.alpha + 1, grid)
    if cfg.saturate_envelope:
        filler_degrees, filler_coeffs = _calibrate_fillers(w, env, grid, kernel.log_env)
    else:
        filler_degrees, filler_coeffs = (), ()

    # test (c): on the one point R the penalty is -ln Phi(R); ln d_n is shared
    shadow = _NormKernel(kernel.logd, (env(mpf(R_BUILD)),), w.alpha + 1, (mpf(R_BUILD),))

    positions = []
    budgets = []
    floor = max(filler_degrees) if filler_degrees else 0
    for k in range(1, K + 1):
        q = targets[k - 1]
        eps = mpf(2) ** (-k)
        budgets.append(eps)
        lo = floor + 1
        if positions:
            lo = max(lo, positions[-1] + max(poly_degree(targets[k - 2]), 0) + 1)
        if poly_is_zero(q):
            m = lo
            if m > trunc_degree:
                raise InfeasibleConstruction(
                    f"truncation {trunc_degree} exhausted at block {k}", achieved=k - 1
                )
            positions.append(m)
            continue
        log_norm_cap = float(mpmath.ln(eps / _BUDGET_TIGHTEN))
        log_shadow_cap = float(mpmath.ln(eps / _SHADOW_SAFETY))
        # the norm bound is not monotone in m: scan every m upward, a chunk
        # per batched probe, and take the first passing (b) and (c)
        start, m = lo, None
        while m is None:
            ms = np.arange(start, min(start + _PROBE_CHUNK, trunc_degree - poly_degree(q) + 1))
            if ms.size == 0:
                raise InfeasibleConstruction(
                    f"truncation {trunc_degree} exhausted at block {k} "
                    f"(searched from {lo})",
                    achieved=k - 1,
                )
            fits = kernel.block_log_norms(q, ms) <= log_norm_cap
            if positions:  # the nearest earlier block casts the largest shadow
                fits &= shadow.block_log_norms(q, ms - positions[-1]) <= log_shadow_cap
            m = int(ms[fits][0]) if fits.any() else None
            start += _PROBE_CHUNK
        positions.append(m)

    coeffs: dict[int, mpc] = {}
    for P, gamma in zip(filler_degrees, filler_coeffs):
        coeffs[P] = mpc(gamma)
    for q, m in zip(targets, positions):
        coeffs.update(right_inverse(poly_to_series(q, trunc_degree), w, m).items())
    f = TruncatedSeries(coeffs, trunc_degree)
    plan = ConstructionPlan(
        targets,
        indices,
        tuple(positions),
        tuple(budgets),
        w.alpha,
        trunc_degree,
        R_BUILD,
        filler_degrees,
        filler_coeffs,
    )
    return f, plan


@dataclass(frozen=True)
class OrbitHitReport:
    deltas: tuple
    budgets: tuple
    noise_floors: tuple
    passed: tuple
    r: mpf

    def all_passed(self) -> bool:
        return all(self.passed)


@_at_table_precision
def verify_orbit_hits(
    f: TruncatedSeries,
    plan: ConstructionPlan,
    w: DunklWeights,
    env: RateEnvelope | None = None,
) -> OrbitHitReport:
    """delta_k = sum_n |r_n| R^n of r = Lambda^{m_k} f - Q_k against its tail budget.

    R is the plan's build radius, the circle the builder controlled the shadows on.
    The coefficient sum dominates sup_{|z| = R} |r(z)|, so a pass is certified;
    it is the quantity the builder's shadow test (c) bounds block by block.
    ``TruncatedSeries.sup_on_disk`` gives the sampled sup the tests hold it above.

    Budget_k = Phi(R) sum_{j>k} eps_j with Phi(R) = env(R) e^R / R^{alpha+1}.
    The last block's tail is empty, so its budget is zero; a rounding floor of
    a few units in the last place of sum_i |q_i| R^i is allowed on top of
    every budget, since block coefficients store d-ratios to finite precision
    and an exact zero residual is not representable.
    """
    env = env or RateEnvelope.log_growth()
    R = mpf(plan.r_build)
    phi_R = _phi_at(env, w, R)

    def coefficient_sum(g: TruncatedSeries) -> mpf:
        return mpmath.fsum(abs(c) * R**n for n, c in g.items())

    K = len(plan.targets)
    deltas = []
    budgets = []
    floors = []
    passed = []
    for k in range(1, K + 1):
        q = poly_to_series(plan.targets[k - 1], f.trunc_degree)
        residual = apply_dunkl(f, w, plan.positions[k - 1]).add(q.scale(-1))
        delta = coefficient_sum(residual)
        budget = phi_R * mpmath.fsum(plan.budgets[k:]) if k < K else mpf(0)
        floor = (1 + coefficient_sum(q)) * mpf(2) ** (40 - mp.prec)
        deltas.append(delta)
        budgets.append(budget)
        floors.append(floor)
        passed.append(delta <= budget + floor)
    return OrbitHitReport(tuple(deltas), tuple(budgets), tuple(floors), tuple(passed), R)


# ---------------------------------------------------------------------------
# frequently hypercyclic side


@_at_table_precision
def build_frequently_hypercyclic(
    w: DunklWeights,
    p,
    env: RateEnvelope,
    J: int,
    cfg: BuilderConfig | None = None,
    trunc_degree: int = 4096,
):
    """f = sum_j sum_{n in A_j} S^n Q_j on the dyadic-residue schedule.

    Targets default to enumeration indices 2..J+1 (the zero polynomial is
    skipped; approximating zero needs no block at all).  m_0 is the smallest
    offset whose total weighted-norm bound over every scheduled block fits
    NORM_BUDGET.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    cfg, grid, env_vals, targets, indices = _builder_setup(w, env, J, "J", cfg, trunc_degree, 2)
    B = cfg.block_width
    max_deg = max((poly_degree(q) for q in targets), default=-1)
    if B <= max_deg:
        raise InfeasibleConstruction(
            f"block width {B} must exceed the largest target degree {max_deg}"
        )

    a = rate_exponent(p, w.alpha, "fhc_upper")
    kernel = _NormKernel(w.float_log_weights(trunc_degree), env_vals, a, grid)
    g = kernel.factor_table()
    factors = [kernel.log_factors(q) for q in targets]

    def schedule_at(m_0: int) -> FhcSchedule:
        return FhcSchedule(targets, indices, B, m_0, trunc_degree, w.alpha, p, NORM_BUDGET)

    def total_norm(m_0: int) -> float:
        total = 0.0
        schedule = schedule_at(m_0)
        for j, (idx, log_facs) in enumerate(factors, start=1):
            ns = np.array(schedule.positions(j), dtype=np.int64)
            for i, log_fac in zip(idx, log_facs):
                total += math.exp(log_fac) * float(np.sum(g[ns + i]))
        return total

    hi = trunc_degree - 2 * schedule_at(0).period(len(targets))
    if hi < 1 or total_norm(hi) > NORM_BUDGET:
        raise InfeasibleConstruction(
            f"norm budget {NORM_BUDGET} unreachable within trunc_degree {trunc_degree}"
        )
    # the smallest feasible m_0 (total_norm falls as m_0 grows)
    m_0 = 1 + bisect.bisect_left(range(1, hi), True, key=lambda m: total_norm(m) <= NORM_BUDGET)

    schedule = schedule_at(m_0)
    coeffs: dict[int, mpc] = {}
    for j, q in enumerate(targets, start=1):
        target = poly_to_series(q, trunc_degree)
        for n in schedule.positions(j):
            block = dict(right_inverse(target, w, n).items())
            if not coeffs.keys().isdisjoint(block):
                raise AssertionError("dyadic schedule produced an overlap")
            coeffs.update(block)
    return TruncatedSeries(coeffs, trunc_degree), schedule


@dataclass(frozen=True)
class FrequencyReport:
    densities: tuple  # empirical per target
    nominal: tuple
    counts: tuple
    n_window: int
    eps: float
    r: float


@_at_table_precision
def frequency_report(
    f: TruncatedSeries,
    schedule: FhcSchedule,
    w: DunklWeights,
    N_window: int,
    eps,
    R,
) -> FrequencyReport:
    """Per-target count of n <= N_window with certified sup_{|z|=R} |Lambda^n f - Q_j| < eps.

    Row n is a hit for target j only when S_j(n) = sum_k |a_k - q_k| R^k <
    eps, with a_k the coefficients of Lambda^n f.  S_j(n) dominates the sup,
    so a hit is certified and a count can only fall short, which is safe for a
    lower-density claim.  Each term c_s d_s / d_(s-n) R^(s-n) of a row is
    formed in float64 in the log domain; terms below e^-745 are dropped before
    exp, and a term past e^709 raises.  Degrees above the largest target
    degree add their magnitudes at once; the lower ones, one entry per degree
    in a row, keep their phases and meet q_k R^k.  So a plain float64 sum is
    within ~1e-15 relative of S_j(n), and an overflowed sum is a miss.  Rows
    run in blocks of at most _BLOCK_ELEMENTS terms (the entries of degree s >=
    the block's first n times its rows), each reduced to hit counts and
    dropped, so memory does not grow with N_window.  In the shipped fhc build
    (alpha 1, p 2, N_window 2048, eps 0.1, R 1) the largest hit has S 1.4e-6
    and the smallest miss 0.75; over seven J = 3 builds at R = 1, 1.5 and 2
    they are 0.045 and 0.5.

    ln|c_s| and the unit phases come from ``means._log_abs_and_phase``, as in
    the sampled means' coefficient table.  Unlike the builders' kernel, this
    reads ln d_n from the mpf table, not from ``DunklWeights.float_log_weights``:
    ln d_s as raw tuples, and float(ln d_n) from one fill of the table as
    ``DunklWeights._float_view`` rounds its tuples, with no mpf formed.
    A block coefficient is c_s = q_i d_i / d_s, so ln|c_s| + ln d_s cancels
    in mpf to the small ln(|q_i| d_i) before it is rounded to float64; on the
    float64 table the ~1e-11 error of ln d_s would survive that cancellation.
    On three J = 3 fhc builds (alpha 1 and 0 at p 2, alpha 3 at p 1; R 1)
    the float route moves hit-row sums by up to 2.2e-12 absolute, up to
    3.2e4 times the sum itself, which could change the counts at a small
    eps.
    """
    if N_window < 1:
        raise ValueError(f"N_window must be >= 1, got {N_window}")
    if N_window > schedule.trunc_degree - schedule.block_width:
        raise ValueError(
            f"N_window {N_window} exceeds trunc_degree - B = "
            f"{schedule.trunc_degree - schedule.block_width}"
        )
    if not 0 <= R < mpmath.inf:
        raise ValueError(f"R must be finite and >= 0, got {R}")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    _require_table(w, f.trunc_degree)
    # at R = 0 a slope far below -745 per degree keeps the degree-0 terms only
    ln_R = float(mpmath.ln(R)) if R > 0 else -1e300
    items = list(f.items())
    log_abs, phase = _log_abs_and_phase(items)
    degrees, prec = np.array([s for s, _ in items], dtype=np.int64), w.precision_bits
    logd = w._float_view(f.trunc_degree)
    # ln(|c_s| d_s); the term of Lambda^n f at degree s - n is this minus ln d_(s-n)
    log_top = np.array([to_float(mpf_add(la, w._raw_log_weight(s), prec, round_nearest),
                                 rnd=round_nearest) for (s, _), la in zip(items, log_abs)])
    # degrees below width can meet a target term; q_k R^k is padded to that width
    width = max(len(q) for q in schedule.targets)
    targets = [np.array([float(c) * float(R)**k for k, c in enumerate(q)]
                        + [0.0] * (width - len(q))) for q in schedule.targets]

    def block_hits(ns: np.ndarray) -> list:
        """Per-target hit counts of the rows Lambda^n f, n in ns (consecutive).

        A function, so that one block's arrays are freed before the next is formed.
        """
        first = int(np.searchsorted(degrees, ns[0]))  # entries with s >= ns[0]
        deg = degrees[first:, None] - ns  # entry-major; s < n has no term
        logs = log_top[first:, None] - logd[np.maximum(deg, 0)] + deg * ln_R
        logs[deg < 0] = -np.inf
        if logs.size and logs.max() > 709.0:
            raise ValueError(f"R={R}: a term of Lambda^n f reaches e^{logs.max():.1f}, "
                             "which overflows float64; reduce R")
        owner, row = np.nonzero(logs > -745.0)
        k, terms = deg[owner, row], np.exp(logs[owner, row])
        low = k < width
        high = np.bincount(row[~low], weights=terms[~low], minlength=len(ns))
        coeffs = np.zeros((len(ns), width), dtype=np.complex128)
        # a row has one entry per degree, so each cell is set once
        coeffs[row[low], k[low]] = phase[first + owner[low]] * terms[low]
        return [int(np.sum(high + np.sum(np.abs(coeffs - t), axis=1) < float(eps)))
                for t in targets]

    # rows of a block times the entries stay within _BLOCK_ELEMENTS
    per_block = max(1, _BLOCK_ELEMENTS // max(len(items), 1))
    counts = [0] * len(targets)
    for n in range(1, N_window + 1, per_block):
        hits = block_hits(np.arange(n, min(n + per_block, N_window + 1)))
        counts = [c + h for c, h in zip(counts, hits)]
    return FrequencyReport(
        tuple(c / N_window for c in counts),
        tuple(float(schedule.nominal_density(j)) for j in range(1, len(targets) + 1)),
        tuple(counts), N_window, float(eps), float(R)
    )


@dataclass(frozen=True)
class DensityDecayReport:
    sigma: tuple  # sigma_m, m = 1..M
    event_density: tuple  # #{n <= m : |c_n| d_n > 1} / m
    bound_holds: bool  # event density <= sigma pointwise

    def final_sigma(self) -> mpf:
        return self.sigma[-1]


def _div_int(t: tuple, m: int, prec: int) -> tuple:
    """t / m rounded to nearest even at prec bits, for a raw tuple t >= 0 and an int m >= 1.

    ``mpf_div(t, from_int(m), prec, round_nearest)`` is correctly rounded, so
    its answer is unique and this is it: the integer quotient is taken with at
    least prec + 2 bits (man 2^shift / m > 2^(bc - 1 + shift - m.bit_length())
    >= 2^(prec + 1)), the dropped bits and the remainder decide the rounding
    as one exact sticky value, and the result is normalised to an odd
    mantissa.  Zero, inf and nan have no mantissa and come back as they are,
    as mpf_div returns them for a positive divisor.
    """
    _, man, exp, bc = t
    if not man:
        return t
    shift = max(prec + 2 + m.bit_length() - bc, 0)
    q, rem = divmod(man << shift, m)
    drop = q.bit_length() - prec
    kept = q >> (drop - 1)  # the kept bits and the first dropped one
    if kept & 1 and (kept & 2 or rem or q & ((1 << (drop - 1)) - 1)):
        q = (kept >> 1) + 1
    else:
        q = kept >> 1
    exp += drop - shift
    if not q & 1:
        zeros = (q & -q).bit_length() - 1
        q, exp = q >> zeros, exp + zeros
    return (0, q, exp, q.bit_length())


@_at_table_precision
def density_decay_check(f: TruncatedSeries, w: DunklWeights, q, M: int) -> DensityDecayReport:
    """sigma_m = (1/m) sum_{n<=m} (|c_n| d_n)^q next to the orbit-event density.

    Each orbit event |c_n d_n| > 1 contributes more than one to the sum, so
    the event density can never exceed sigma_m; vanishing sigma therefore
    forces the event density to vanish, the obstruction that rules out
    frequent hypercyclicity below the critical rate.  The loop runs on raw
    libmp tuples at the table's precision, each step rounded as the mpf
    operators round it; the tests keep the mpf loop as its oracle.

    sigma_m = RN(running / m) and the density RN(RN(count) / m) come from one
    exact divider (``_div_int``).  The bound test is e <= s + slack, rounded:
    while RN(count) <= running, RN's monotonicity gives e <= s <= RN(s + slack)
    at every m, so the test holds without being formed.  That comparison only
    moves where a coefficient does; at any m where it fails, the test is
    ``mpf_le(e, mpf_add(s, slack))`` as written.
    """
    q = mpf(q)
    if not 1 <= q <= 2:
        raise ValueError(f"q must lie in [1, 2], got {q}")
    if M > f.trunc_degree:
        raise ValueError(f"M={M} exceeds trunc_degree {f.trunc_degree}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    _require_table(w, M)
    prec, rnd = w.precision_bits, round_nearest
    q = q._mpf_
    slack = (mpf(2) ** (24 - prec))._mpf_
    sigma = []
    events = []
    running = count = fzero  # sum of v^q; the event count as from_int rounds it
    event_count = 0
    below = holds = True  # below: count <= running, so e <= s
    coeffs = dict(f.items())
    log_d = w._raw_log_weight
    log_d(max((n for n in coeffs if n <= M), default=0))  # one fill, not one per read
    for n in range(1, M + 1):
        c = coeffs.get(n)
        if c is not None:
            # v = exp(ln|c_n| + ln d_n); running += v^q
            v = mpf_exp(mpf_add(mpf_log(mpc_abs(c._mpc_, prec, rnd), prec, rnd),
                                log_d(n), prec, rnd), prec, rnd)
            running = mpf_add(running, mpf_pow(v, q, prec, rnd), prec, rnd)
            if mpf_gt(v, fone):
                event_count += 1
                count = from_int(event_count, prec, rnd)
            below = mpf_le(count, running)
        s, e = _div_int(running, n, prec), _div_int(count, n, prec)
        sigma.append(s)
        events.append(e)
        if not below and holds:
            holds = mpf_le(e, mpf_add(s, slack, prec, rnd))
    return DensityDecayReport(tuple(map(mp.make_mpf, sigma)), tuple(map(mp.make_mpf, events)),
                              holds)


# ---------------------------------------------------------------------------
# plan serialization (dunklplan v1)
#
# One key=value or row per line; readers skip blank lines:
#
#     dunklplan v1
#     kind=<hc|fhc>
#     alpha=<decimal>
#     precision_bits=<int>
#     <key>=<value>          (one line per header key of the kind, in table order)
#     n_targets=<int>
#     target <index> <column>... <coefficient>...     (n_targets lines)
#     n_fillers=<int>                                 (hc only)
#     filler <degree> <coefficient decimal>           (hc only, n_fillers lines)
#
# The index is the enumeration index, or -1 for a custom target.  The kind's
# target columns (hc: m_k and eps_k) follow it, then the target's
# coefficients as fractions, low degree first, none for the zero polynomial.
# Decimals reparse at precision_bits to the exact binary value written, and
# the plan read back keeps that precision.

_INT = (str, int)
_FLOAT = (repr, float)  # repr reparses to the same float64
_DECIMAL = (to_decimal, mpf)
_EXPONENT = (lambda p: "inf" if p == mpmath.inf else to_decimal(mpf(p)),
             lambda text: mpmath.inf if text == "inf" else mpf(text))

# kind -> (plan class, header keys, target-line columns); each key and column
# names a field of the class and gives its (to text, parse) pair
_PLAN_KINDS = {
    "hc": (ConstructionPlan, {"trunc_degree": _INT, "r_build": _FLOAT},
           {"positions": _INT, "budgets": _DECIMAL}),
    "fhc": (FhcSchedule, {"trunc_degree": _INT, "block_width": _INT, "m_0": _INT,
                          "p": _EXPONENT, "norm_budget": _FLOAT}, {}),
}


def write_plan(plan, path, precision_bits=None) -> None:
    """Serialize a ConstructionPlan or FhcSchedule as dunklplan v1 text."""
    kind = next((k for k, (cls, _, _) in _PLAN_KINDS.items() if isinstance(plan, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(plan).__name__}")
    _, keys, columns = _PLAN_KINDS[kind]
    bits = precision_bits if precision_bits is not None else mp.prec
    lines = ["dunklplan v1", f"kind={kind}", f"alpha={to_decimal(plan.alpha)}",
             f"precision_bits={bits}"]
    lines += [f"{key}={text(getattr(plan, key))}" for key, (text, _) in keys.items()]
    lines.append(f"n_targets={len(plan.targets)}")
    for k, (q, idx) in enumerate(zip(plan.targets, plan.indices)):
        cells = [text(getattr(plan, key)[k]) for key, (text, _) in columns.items()]
        lines.append(" ".join(["target", str(-1 if idx is None else idx), *cells,
                               *map(str, q)]))
    if kind == "hc":
        lines.append(f"n_fillers={len(plan.filler_degrees)}")
        lines += [f"filler {P} {to_decimal(gamma)}"
                  for P, gamma in zip(plan.filler_degrees, plan.filler_coeffs)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_plan(path):
    """Read a dunklplan v1 file back into its plan object.

    A malformed or truncated file raises ValueError("<path>: ...").
    """
    return read_text(path, "dunklplan v1", _parse_plan)


def _rows(lines: list, count: int, tag: str) -> list:
    """The split fields of the next count lines, each of which starts with tag."""
    rows = [lines.pop(0).split() for _ in range(count)]
    if any(row[0] != tag for row in rows):
        raise ValueError(f"expected {tag} line")
    return rows


def _parse_plan(lines: list):
    kind = read_header(lines, ["kind"])["kind"]
    if kind not in _PLAN_KINDS:
        raise ValueError(f"unknown plan kind {kind!r}")
    cls, keys, columns = _PLAN_KINDS[kind]
    head = read_header(lines, ["alpha", "precision_bits", *keys, "n_targets"])
    with mp.workprec(int(head["precision_bits"])):
        fields = {key: parse(head[key]) for key, (_, parse) in keys.items()}
        fields["alpha"] = mpf(head["alpha"])
        rows = _rows(lines, int(head["n_targets"]), "target")
        fields["indices"] = tuple(None if int(row[1]) < 0 else int(row[1]) for row in rows)
        for c, (key, (_, parse)) in enumerate(columns.items(), start=2):
            fields[key] = tuple(parse(row[c]) for row in rows)
        fields["targets"] = tuple(poly_normalize([Fraction(s) for s in row[2 + len(columns):]])
                                  for row in rows)
        if kind == "hc":
            fillers = _rows(lines, int(read_header(lines, ["n_fillers"])["n_fillers"]), "filler")
            fields["filler_degrees"] = tuple(int(row[1]) for row in fillers)
            fields["filler_coeffs"] = tuple(mpf(row[2]) for row in fillers)
        return cls(**fields)
