"""Critical growth rates, the weight-asymptotics band, Mittag-Leffler sums.

Everything here answers one of two questions about an entire function f and
the operator with parameter alpha:

* how fast may M_p(f, r) grow for f to remain a candidate (envelopes
  phi(r) e^r / r^a with the critical exponent a), and
* how the weights d_n and the comparison series sum_n r^{qn}/d_n^q actually
  behave, verified against their stated asymptotics on finite grids.

"Sufficiently large r" statements are operationalized on a bounded grid: a
profile is satisfied when its ratio stays at or below 1 from some grid index
to the end of the grid.  Band and supremum constants that the statements
leave unnamed are measured and frozen as golden values by the tests.

The scalar loops of the lemma ratios and of the integer-order Mittag-Leffler
walk run on raw libmp tuples at an explicit precision, skipping mpmath's
per-operation wrapper.  Each must give the ``_mpf_`` of the mpf expression it
replaces, bit for bit; that expression lives on in the tests as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, mpf_add, mpf_div, mpf_exp, mpf_lt, mpf_mul,
                          mpf_pos, mpf_pow, mpf_rdiv_int, mpf_shift, mpf_sub, round_nearest)

from .dunkl import DunklWeights, _at_table_precision, _check_alpha
from .means import MeanParams, P_INF, conjugate_exponent, means_on_grid
from .numeric import DEFAULT_PRECISION_BITS
from .series import TruncatedSeries

with mp.workprec(DEFAULT_PRECISION_BITS):  # 0.01 is inexact: fix its bits at the default
    R_GRID_MIN = mpf("0.01")
R_GRID_MAX = mpf(400)
R_GRID_POINTS = 256

ML_MAX_TERMS = 10**6
ML_QUIET_STREAK = 8
ML_GUARD_BITS = 32
ML_MAX_PASSES = 6  # precision raises of the from-zero loop before it gives up


def standard_r_grid(r_min=R_GRID_MIN, r_max=R_GRID_MAX, points=R_GRID_POINTS):
    """Log-spaced radius grid used as the default sup surrogate."""
    r_min, r_max = mpf(r_min), mpf(r_max)
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    step = (mpmath.ln(r_max) - mpmath.ln(r_min)) / (points - 1)
    return tuple(r_min * mpmath.exp(i * step) for i in range(points))


class RateEnvelope:
    """A phi: positive, nondecreasing and escaping comparison function of r.

    The limit claims are checked as finite-horizon monotonicity on whatever
    grid the envelope is validated against; the builders validate it on
    their radius grid and refuse one that does not grow there.
    """

    __slots__ = ("_fn", "label")

    def __init__(self, fn, label: str = "phi"):
        self._fn = fn
        self.label = label

    def __call__(self, r) -> mpf:
        return mpf(self._fn(mpf(r)))

    @classmethod
    def log_growth(cls) -> "RateEnvelope":
        """phi(r) = ln(e + r): monotone, positive at 0, unbounded."""
        return cls(lambda r: mpmath.ln(mpmath.e + r), "ln(e+r)")

    def validate_on(self, r_grid) -> list:
        """Check positivity and growth; return env(r) over r_grid."""
        vals = [self(r) for r in r_grid]
        if any(not v > 0 for v in vals):
            raise ValueError(f"envelope {self.label!r} not positive on the grid")
        if any(b < a for a, b in zip(vals, vals[1:])) or not vals[-1] > vals[0]:
            raise ValueError(f"envelope {self.label!r} not growing on the grid")
        return vals

    def __repr__(self) -> str:
        return f"RateEnvelope({self.label!r})"


def rate_exponent(p, alpha, which: str) -> mpf:
    """Critical exponent a in the envelope e^r/r^a.

    hc: a = alpha + 1; fhc_upper: alpha + 1/2 + 1/(2 max(2,p));
    fhc_lower: alpha + 1/2 + 1/(2 min(2,p)), with 1/(2p) = 0 at p = inf.
    """
    alpha = _check_alpha(alpha)
    if p != P_INF:
        p = mpf(p)
        if not p >= 1:
            raise ValueError(f"p must lie in [1, inf], got {p}")
    if which == "hc":
        return alpha + 1
    if which == "fhc_upper":
        if p == P_INF or p > 2:
            half_over = mpf(0) if p == P_INF else 1 / (2 * p)
            return alpha + mpf(0.5) + half_over
        return alpha + mpf(0.5) + mpf(0.25)
    if which == "fhc_lower":
        small = mpf(2) if p == P_INF else min(mpf(2), p)
        return alpha + mpf(0.5) + 1 / (2 * small)
    raise ValueError(f"which must be hc, fhc_upper or fhc_lower, got {which!r}")


def lemma1_ratio(n: int, w: DunklWeights) -> mpf:
    """d_n e^{n+alpha+1} / (n+alpha+1)^{n+alpha+1}, evaluated in log domain.

    Two-sided boundedness of this ratio over n is the weight asymptotic; the
    band endpoints are empirical constants frozen by the calibration tests.
    It is exp(ln d_n + x - x ln x) with x = (n + alpha) + 1, each step
    rounded at the table's precision; ln x comes from the table's memo.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prec, rnd = w.precision_bits, round_nearest
    x = mpf_add(mpf_add(w.alpha._mpf_, from_int(n), prec, rnd), fone, prec, rnd)
    x_ln_x = mpf_mul(x, w._log(x), prec, rnd)
    exponent = mpf_sub(mpf_add(w.log_weight(n)._mpf_, x, prec, rnd), x_ln_x, prec, rnd)
    return mp.make_mpf(mpf_exp(exponent, prec, rnd))


def mittag_leffler(z, ml_alpha, theta, beta):
    """E(z) = sum_n z^n / ((n+theta)^beta Gamma(ml_alpha n + 1)).

    It takes no weight table, so prec is the caller's ambient precision.
    Two routes, each accurate to about tol = 2^(16-prec) relative:

    * integer ml_alpha with z real and > 0, where every term is positive,
      takes the peak walk (``_ml_peak_walk``): the sum starts at the largest
      term n0 = floor(z^(1/ml_alpha)/ml_alpha) and walks both ways with the
      exact term recurrence.  Each side stops once a geometric bound on
      everything it has not summed falls below tol/2 of the running total,
      so the two truncated tails together are below tol of the sum;
    * non-integer ml_alpha, and any z off the positive real axis, where
      terms can cancel, sum from n = 0 until the upcoming term stays below
      tol times the running sum for 8 consecutive indices.  Integer
      ml_alpha uses the exact term recurrence there too, general ml_alpha
      computes each Gamma factor once, for the upcoming term, and as its
      terms fall slowly past tol, runs at ML_GUARD_BITS more bits and stops
      at tol 2^-ML_GUARD_BITS.  The loop also sums S = sum |t_n|; when its
      rounding S 2^-wp exceeds tol |sum|, as on the negative axis where
      e^-200 is summed from terms near e^200, it reruns with the missing
      bits plus ML_GUARD_BITS, at most ML_MAX_PASSES times.  Terms that
      still rise at n = ML_MAX_TERMS raise ValueError before the loop.
    """
    ml_alpha = mpf(ml_alpha)
    if not 0 < ml_alpha <= 2:
        raise ValueError(f"ml_alpha must lie in (0, 2], got {ml_alpha}")
    theta = mpf(theta)
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    beta = mpf(beta)
    tol = mpf(2) ** (16 - mp.prec)
    z = mpmath.mpmathify(z)

    int_alpha = int(ml_alpha) if ml_alpha == int(ml_alpha) else None
    if int_alpha is not None and mpmath.im(z) == 0 and mpmath.re(z) > 0:
        return _ml_peak_walk(mpmath.re(z), int_alpha, theta, beta, tol)
    # |z|^n / Gamma(ml n + 1) rises through N = ML_MAX_TERMS if ln|z| >= ml (ln y - 1/(2y)),
    # y = ml N + 1 (ln Gamma is convex, psi(y) < ln y - 1/(2y)); then each sum before N is at
    # most e^spread times the next term, so none settles when e^spread < 1/tol
    y = ml_alpha * ML_MAX_TERMS + 1
    spread = mpmath.ln(ML_MAX_TERMS) + max(beta, 0) * mpmath.ln(1 + ML_MAX_TERMS / theta)
    if mpmath.ln(abs(z)) >= ml_alpha * (mpmath.ln(y) - 1 / (2 * y)) and spread < -mpmath.ln(tol):
        raise ValueError(f"Mittag-Leffler terms at z={mpmath.nstr(z, 8)} still rise at "
                         f"n = {ML_MAX_TERMS} for ml_alpha={mpmath.nstr(ml_alpha, 8)}")
    # terms of opposite sign cancel: the loop's rounding is about mass 2^-wp,
    # where mass = sum |t_n|, so rerun it with the bits the cancellation ate
    guard = ML_GUARD_BITS if int_alpha is None else 0
    wp = mp.prec + guard
    for _ in range(ML_MAX_PASSES):
        with mp.workprec(wp):
            total, mass = _ml_from_zero(z, ml_alpha, int_alpha, theta, beta, tol * 2.0**-guard)
            noise = mass * mpf(2) ** -wp
            if noise <= tol * abs(total):
                break
            shortfall = noise / (tol * abs(total)) if total else mpf(2) ** wp
            wp += int(mpmath.ceil(mpmath.log(shortfall, 2))) + ML_GUARD_BITS
    else:
        raise RuntimeError(
            f"Mittag-Leffler sum at z={mpmath.nstr(z, 8)} lost to cancellation "
            f"after {ML_MAX_PASSES} passes"
        )
    if mpmath.im(z) == 0 and mpmath.re(z) >= 0:
        return mpmath.re(+total)
    return +total


def _ml_from_zero(z, ml_alpha, int_alpha, theta, beta, tol):
    """(sum, sum of |terms|) of the series from n = 0, stopped as in mittag_leffler."""
    total = mpmath.mpc(0)
    mass = mpf(0)
    power_over_gamma = mpf(1)  # z^n / Gamma(ml_alpha n + 1) along the loop
    streak = 0
    for n in range(ML_MAX_TERMS):
        term = power_over_gamma
        if int_alpha is None:
            power_over_gamma = z ** (n + 1) / mpmath.gamma(ml_alpha * (n + 1) + 1)
        else:
            denom = mpf(1)
            for i in range(int_alpha):
                denom *= int_alpha * n + 1 + i
            power_over_gamma = power_over_gamma * z / denom
        if beta != 0:
            term = term / (n + theta) ** beta
        total += term
        mass += abs(term)
        upcoming = abs(power_over_gamma)
        if beta > 0:
            upcoming = upcoming / (n + 1 + theta) ** beta
        elif beta < 0:
            upcoming = upcoming * (n + 1 + theta) ** (-beta)
        if upcoming < tol * abs(total):
            streak += 1
            if streak >= ML_QUIET_STREAK:
                return total, mass
        else:
            streak = 0
    raise RuntimeError(
        f"Mittag-Leffler sum not converged within {ML_MAX_TERMS} terms"
    )


def _ml_peak_walk(x, m: int, theta, beta, tol) -> mpf:
    """sum_n x^n / ((n+theta)^beta (mn)!) for x > 0 and integer m, from its peak.

    With g_n = x^n/(mn)! the terms are t_n = g_n (n+theta)^(-beta).  g's ratio
    rho_n = g_(n+1)/g_n = x/((mn+1)...(mn+m)) falls with n, so g_(n+k) <=
    g_n rho_n^k above n and g_(n-k) <= g_n (1/rho_(n-1))^k below it.  Each
    side bounds what it has not summed by s rho/(1 - rho), rho < 1:

    * upward, s = t_n; rho is g's ratio for beta >= 0, where the weight only
      shrinks, and the actual term ratio for beta < 0, which then falls too;
    * downward, rho is g's ratio; s = t_n for beta <= 0, where the weight
      only shrinks, and g_n theta^(-beta), the weight's maximum, for beta > 0.

    The peak term takes one exp and one loggamma; the walk and the sum run
    with ML_GUARD_BITS extra bits, so rounding stays far below tol.  The walk
    runs on raw tuples, each step rounded as the mpf operators round it.
    """
    prec, rnd = mp.prec, round_nearest
    wp = prec + ML_GUARD_BITS
    half_tol = (tol / 2)._mpf_
    with mp.workprec(wp):
        n0 = int(mpmath.floor(mpmath.root(x, m) / m))
        g0 = mpmath.exp(n0 * mpmath.ln(x) - mpmath.loggamma(m * n0 + 1))
        weighted, rising = beta != 0, beta < 0
        t0 = g0 / (n0 + theta) ** beta if weighted else g0
        weight_max = (theta ** -beta)._mpf_ if beta > 0 else None
    x, theta, beta, total = x._mpf_, theta._mpf_, beta._mpf_, t0._mpf_
    walked = 1
    for up in (True, False):
        n, g, t = n0, g0._mpf_, t0._mpf_
        while up or n > 0:
            # g's ratio for the step away from the peak
            falling = 1
            for i in range(1, m + 1):
                falling *= m * (n if up else n - 1) + i
            rho = (mpf_div(x, from_int(falling), wp, rnd) if up
                   else mpf_rdiv_int(falling, x, wp, rnd))
            g_next = t_next = mpf_mul(g, rho, wp, rnd)
            n += 1 if up else -1
            if weighted:
                weight = mpf_pow(mpf_add(theta, from_int(n), wp, rnd), beta, wp, rnd)
                t_next = mpf_div(g_next, weight, wp, rnd)
            if up and rising:
                rho = mpf_div(t_next, t, wp, rnd)
            # the tail bound is at least t_next, so it is tried only once
            # t_next itself is below tol/2 of the total
            cap = mpf_mul(half_tol, total, wp, rnd)
            if mpf_lt(rho, fone) and mpf_lt(t_next, cap):
                s = mpf_mul(g, weight_max, wp, rnd) if not up and weight_max is not None else t
                if mpf_lt(mpf_mul(s, rho, wp, rnd),
                          mpf_mul(cap, mpf_sub(fone, rho, wp, rnd), wp, rnd)):
                    break
            total = mpf_add(total, t_next, wp, rnd)
            g, t = g_next, t_next
            walked += 1
            if walked > ML_MAX_TERMS:
                raise RuntimeError(
                    f"Mittag-Leffler sum not converged within {ML_MAX_TERMS} terms"
                )
    return mp.make_mpf(mpf_pos(total, prec, rnd))


def barnes_asymptotic(r, ml_alpha, theta, beta) -> mpf:
    """Leading asymptotic term ml_alpha^{beta-1} r^{-beta/ml_alpha} e^{r^{1/ml_alpha}}.

    It takes no weight table, so it works at the caller's ambient precision.
    """
    r = mpf(r)
    if not r > 0:
        raise ValueError(f"r must be > 0, got {r}")
    ml_alpha = mpf(ml_alpha)
    if not 0 < ml_alpha <= 2:
        raise ValueError(f"ml_alpha must lie in (0, 2], got {ml_alpha}")
    beta = mpf(beta)
    return ml_alpha ** (beta - 1) * r ** (-beta / ml_alpha) * mpmath.exp(r ** (1 / ml_alpha))


@_at_table_precision
def lemma3_on_grid(radii, q, w: DunklWeights) -> list:
    """[sum_n r^{qn}/d_n^q] / [e^r / r^{alpha+1/2+1/(2p)}]^q at each radius, p conjugate to q.

    The terms r^{qn}/d_n^q run t_0 = 1, t_n = t_(n-1) r^q a_n^(-q) with the
    weight ratios a_n = d_n/d_(n-1), so no term costs an exp; the table of
    a_n^(-q) is built once per call and extended as far as the radii need.
    A sum stops at the first n > r whose term is below 2^-prec of the running
    total; exhausting the weight table first is an error.
    """
    radii = [mpf(r) for r in radii]
    for r in radii:
        if not r > 0:
            raise ValueError(f"r must be > 0, got {r}")
    q = mpf(q)
    if not 1 <= q <= 2:
        raise ValueError(f"q must lie in [1, 2], got {q}")
    p = conjugate_exponent(q)
    a = rate_exponent(p, w.alpha, "fhc_upper")
    prec, rnd = w.precision_bits, round_nearest
    inv_aq = [None]  # a_n^(-q) for n >= 1, extended lazily
    ratios = []
    for r in radii:
        r_q = (r**q)._mpf_
        settle_from = int(mpmath.floor(r))  # the cutoff applies for n > r
        term = total = fone  # n = 0: r^0 / d_0^q
        for n in range(1, w.n_max + 1):
            if n == len(inv_aq):
                inv_aq.append((w.ratio(n) ** -q)._mpf_)
            term = mpf_mul(mpf_mul(term, r_q, prec, rnd), inv_aq[n], prec, rnd)
            total = mpf_add(total, term, prec, rnd)
            # total 2^-prec is exact, so the shift is the product with the cutoff
            if n > settle_from and mpf_lt(term, mpf_shift(total, -prec)):
                break
        else:
            raise ValueError(f"weight table (n_max={w.n_max}) exhausted before the sum "
                             f"settled at r={mpmath.nstr(r, 8)}")
        ln_r = mpmath.ln(r)
        ratios.append(mpmath.exp(mpmath.ln(mp.make_mpf(total)) - q * (r - a * ln_r)))
    return ratios


@dataclass(frozen=True)
class GrowthProfile:
    """Ratio table M_p(f,r) r^a / (env(r) e^r) over a radius grid."""

    r_grid: tuple
    ratios: tuple
    exponent: mpf
    p: object
    satisfied_from: int | None


def growth_profile(f: TruncatedSeries, p, a, env: RateEnvelope, r_grid) -> GrowthProfile:
    """Measure f against the envelope env(r) e^r / r^a at exponent a.

    satisfied_from is the smallest grid index beyond which every ratio is
    at most 1, or None when even the last grid point violates the envelope.
    """
    r_grid = tuple(mpf(r) for r in r_grid)
    if any(not r > 0 for r in r_grid):
        raise ValueError("r_grid must be positive")
    if any(b <= a_ for a_, b in zip(r_grid, r_grid[1:])):
        raise ValueError("r_grid must be strictly increasing")
    a = mpf(a)
    params = MeanParams(p)
    ratios = [res.value * r**a / (env(r) * mpmath.exp(r))
              for r, res in zip(r_grid, means_on_grid(f, r_grid, params))]
    satisfied_from = None
    for i in range(len(ratios) - 1, -1, -1):
        if ratios[i] > 1:
            break
        satisfied_from = i
    return GrowthProfile(r_grid, tuple(ratios), a, params.p, satisfied_from)
