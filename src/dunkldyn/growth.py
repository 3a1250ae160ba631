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
leave unnamed are measured and frozen as golden values by the tests.  The
Mittag-Leffler kernel sum behind the Barnes asymptotics is taken only at real
r > 0, the one place the growth statements read it.

The scalar loops of the lemma ratios and of the Mittag-Leffler peak walk run
on raw libmp tuples at an explicit precision, skipping mpmath's
per-operation wrapper.  Each must give the ``_mpf_`` of the mpf expression it
replaces, bit for bit; that expression lives on in the tests as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_loggamma,
                          mpf_lt, mpf_mul, mpf_pos, mpf_pow, mpf_rdiv_int, mpf_shift, mpf_sub,
                          round_nearest)

from .dunkl import DunklWeights, _at_table_precision, _check_alpha
from .means import MeanParams, P_INF, conjugate_exponent, means_on_grid
from .numeric import DEFAULT_PRECISION_BITS
from .series import TruncatedSeries

with mp.workprec(DEFAULT_PRECISION_BITS):  # 0.01 is inexact: fix its bits at the default
    R_GRID_MIN = mpf("0.01")
R_GRID_MAX = mpf(400)
R_GRID_POINTS = 256

ML_MAX_TERMS = 10**6
ML_GUARD_BITS = 32


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


def mittag_leffler(z, ml_alpha, theta, beta) -> mpf:
    """E(z) = sum_n z^n / ((n+theta)^beta Gamma(ml_alpha n + 1)) for real z > 0.

    It takes no weight table, so prec is the caller's ambient precision; the
    sum is accurate to about tol = 2^(16-prec) relative.  z must be real,
    finite and > 0: there every term is positive, and ``_ml_peak_walk`` sums
    outward from the largest.  Any other z, and a non-integer ml_alpha whose
    terms peak past n = ML_MAX_TERMS, raise ValueError.
    """
    ml_alpha = mpf(ml_alpha)
    if not 0 < ml_alpha <= 2:
        raise ValueError(f"ml_alpha must lie in (0, 2], got {ml_alpha}")
    theta = mpf(theta)
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    beta = mpf(beta)
    z = mpmath.mpmathify(z)
    if mpmath.im(z) != 0 or not 0 < mpmath.re(z) < mpmath.inf:
        raise ValueError(f"z must be real, finite and > 0, got {z}")
    ml = int(ml_alpha) if ml_alpha == int(ml_alpha) else ml_alpha
    return _ml_peak_walk(mpmath.re(z), ml, theta, beta, mpf(2) ** (16 - mp.prec))


def _ml_peak_walk(x, ml, theta, beta, tol) -> mpf:
    """sum_n x^n / ((n+theta)^beta Gamma(ml n + 1)) for x > 0, from its peak.

    ml is a Python int at integer order, else an mpf.  With g_n =
    x^n/Gamma(ml n + 1) the terms are t_n = g_n (n+theta)^(-beta).  g's ratio
    rho_n = g_(n+1)/g_n = x Gamma(ml n + 1)/Gamma(ml n + ml + 1) falls with n
    at any ml > 0 (ln Gamma is convex), so g_(n+k) <= g_n rho_n^k above n and
    g_(n-k) <= g_n (1/rho_(n-1))^k below it.  Each side bounds what it has not
    summed by s rho/(1 - rho), rho < 1:

    * upward, s = t_n; rho is g's ratio for beta >= 0, where the weight only
      shrinks, and the actual term ratio for beta < 0, which then falls too;
    * downward, rho is g's ratio; s = t_n for beta <= 0, where the weight
      only shrinks, and g_n theta^(-beta), the weight's maximum, for beta > 0.

    The walk starts at n0 = floor(x^(1/ml)/ml), near the largest term, whose g
    is exp(n0 ln x - loggamma(ml n0 + 1)).  At integer order each step
    multiplies g by the exact ratio x/((ml n+1)...(ml n+ml)), and each side
    stops once its bound is below tol/2 of the running total.  At other
    orders each step takes its g from that same formula, so rounding does not
    build up along the walk, and each side stops at tol 2^-ML_GUARD_BITS,
    which keeps the sum within an ulp of its closed form at ml = 1/2.  There
    n0 must not pass ML_MAX_TERMS, or ValueError is raised before any term is
    summed; that also keeps each g's rounding, about n ln x 2^-wp, far below
    tol.  The walk and the sum run with ML_GUARD_BITS extra bits on raw
    tuples, each step rounded as the mpf operators round it.
    """
    prec, rnd = mp.prec, round_nearest
    wp = prec + ML_GUARD_BITS
    integer = isinstance(ml, int)
    with mp.workprec(wp):
        if integer:
            n0 = int(mpmath.floor(mpmath.root(x, ml) / ml))
            cut = tol / 2
        else:
            peak = x ** (1 / ml) / ml  # not mpmath.root, which gives root(x, 0.5) = 1
            if peak > ML_MAX_TERMS:
                raise ValueError(f"Mittag-Leffler terms at z={mpmath.nstr(x, 8)} peak past "
                                 f"n = {ML_MAX_TERMS} for ml_alpha={mpmath.nstr(ml, 8)}")
            n0 = int(peak)
            cut = tol * mpf(2) ** -ML_GUARD_BITS
        weight_max = (theta ** -beta)._mpf_ if beta > 0 else None
    weighted, rising = beta != 0, beta < 0
    x, theta, beta, cut = x._mpf_, theta._mpf_, beta._mpf_, cut._mpf_
    ml_ = from_int(ml) if integer else ml._mpf_
    ln_x = mpf_log(x, wp, rnd)

    def g_at(n):
        y = mpf_add(mpf_mul(ml_, from_int(n), wp, rnd), fone, wp, rnd)
        return mpf_exp(mpf_sub(mpf_mul(from_int(n), ln_x, wp, rnd),
                               mpf_loggamma(y, wp, rnd), wp, rnd), wp, rnd)

    def weight(n):
        return mpf_pow(mpf_add(theta, from_int(n), wp, rnd), beta, wp, rnd)

    g0 = g_at(n0)
    total = t0 = mpf_div(g0, weight(n0), wp, rnd) if weighted else g0
    walked = 1
    for up in (True, False):
        n, g, t = n0, g0, t0
        while up or n > 0:
            # g's ratio for the step away from the peak
            if integer:
                falling = 1
                for i in range(1, ml + 1):
                    falling *= ml * (n if up else n - 1) + i
                rho = (mpf_div(x, from_int(falling), wp, rnd) if up
                       else mpf_rdiv_int(falling, x, wp, rnd))
                g_next = mpf_mul(g, rho, wp, rnd)
                n += 1 if up else -1
            else:
                n += 1 if up else -1
                g_next = g_at(n)
                rho = mpf_div(g_next, g, wp, rnd)
            t_next = mpf_div(g_next, weight(n), wp, rnd) if weighted else g_next
            if up and rising:
                rho = mpf_div(t_next, t, wp, rnd)
            # the tail bound is at least t_next, so it is tried only once
            # t_next itself is below the cut of the total
            cap = mpf_mul(cut, total, wp, rnd)
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
