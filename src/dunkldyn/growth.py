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

The lemma ratios and ``_peak_walk``, which sums both kernel sums out from near
their largest term, run on raw libmp tuples at an explicit precision, skipping
mpmath's per-operation wrapper; each gives the ``_mpf_`` of the mpf expression
it replaces, bit for bit, and that expression is its oracle in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, from_man_exp, mpf_add, mpf_div, mpf_exp, mpf_log,
                          mpf_loggamma, mpf_lt, mpf_mul, mpf_mul_int, mpf_pos, mpf_pow,
                          mpf_rdiv_int, mpf_shift, mpf_sub, round_nearest, to_fixed, to_float)
from mpmath.libmp.libelefun import EXP_COSH_CUTOFF

from .dunkl import DunklWeights, _at_table_precision, _check_alpha, _gamma_form
from .means import MeanParams, P_INF, conjugate_exponent, means_on_grid
from .numeric import DEFAULT_PRECISION_BITS
from .series import TruncatedSeries

with mp.workprec(DEFAULT_PRECISION_BITS):  # 0.01 is inexact: fix its bits at the default
    R_GRID_MIN = mpf("0.01")
R_GRID_MAX = mpf(400)
R_GRID_POINTS = 256

_EXP_ERR_BITS = 6  # mpf_exp's unrounded value is within 2^(6 - wp) of exp(x), relatively
_GRID_GUARD_BITS = 30  # bits the grid's fixed-point exp(i step) carries beyond mpf_exp's wp

_WALK_MAX_TERMS = 10**6
ML_GUARD_BITS = 32


def standard_r_grid(r_min=R_GRID_MIN, r_max=R_GRID_MAX, points=R_GRID_POINTS):
    """Log-spaced radius grid used as the default sup surrogate.

    Point i is ``r_min * mpmath.exp(i * step)`` with step = (ln r_max - ln
    r_min) / (points - 1), bit for bit.  While wp = mp.prec + 14 is at most
    EXP_COSH_CUTOFF, the exponentials come from ``_exp_multiples``: it
    rounds a fixed-point exp(i step) itself wherever mpf_exp's error bound,
    2^(6 - wp) relative (read from mpmath 1.3's ``libelefun.mpf_exp`` and
    ``exp_basecase``, lines 1086-1109 and 1151-1188, and ``ln2_fixed``,
    ``machin`` and ``constant_memo``, lines 85-170), shows the rounding
    cannot differ, and calls mpf_exp elsewhere.  Above the cutoff every
    point calls it.
    """
    r_min, r_max = mpf(r_min), mpf(r_max)
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    step = (mpmath.ln(r_max) - mpmath.ln(r_min)) / (points - 1)
    prec = mp.prec
    if prec + 14 > EXP_COSH_CUTOFF:
        return tuple(r_min * mpmath.exp(i * step) for i in range(points))
    r_min = r_min._mpf_
    return tuple(mp.make_mpf(mpf_mul(r_min, e, prec, round_nearest))
                 for e in _exp_multiples(step._mpf_, points, prec))


def _exp_multiples(step: tuple, points: int, prec: int):
    """mpf_exp(RN(i step), prec, round_nearest) for i = 0..points-1, RN(i step)
    rounded as ``i * step`` rounds it; step > 0 and wp = prec + 14 <= EXP_COSH_CUTOFF.

    The bound.  For x > 0 and such wp, mpmath 1.3's ``mpf_exp`` returns
    RN(M 2^(n - wp)) with M 2^(n - wp) within 54 2^-wp of exp(x), relatively
    (for x = 0 and x < 2^-wp it returns 1, which is RN(exp(x)) as well):

    * Reduction.  Below 2 it truncates x to t = floor(x 2^wp), n = 0.  From 2
      on (mag = exp + bc >= 2) it divides T = floor(x 2^(wp + mag)) by L =
      ln2_fixed(wp + mag), which is within 2.1 units of ln 2 2^(wp + mag)
      (``machin``'s three floors at 10 guard bits, then ``constant_memo``'s
      right shift), and shifts the remainder right by mag.  With 0 <= n <
      2^mag / ln 2, t 2^-wp is within (1 + 2.1 n + 2^mag) 2^-(wp + mag) <
      4.3 2^-wp of x - n ln 2.
    * ``exp_basecase(t, wp)`` sums the Taylor series of exp(xi), xi = t
      2^-(wp + r) < 2^(1 - r), r = floor(sqrt(wp)), in P = wp + r bit fixed
      point.  Every quantity is >= 0 and every step a floor, so each added
      term falls short by less than 1.53 units of 2^-P; at most P / (r - 1)
      <= 27 terms are nonzero; the terms after the loop stops sum to less
      than 4.2 units; and s1 xi costs one unit more.  The sum is short of
      exp(xi) >= 1 by less than 47 units.  Each of the r squarings at most
      doubles the relative shortfall and adds 2^-P, and the final shift by r
      loses less than one unit of 2^-wp: M 2^-wp is short of exp(t 2^-wp) by
      less than 49 2^-wp relative.
    * Together: 49 + 4.31 < 54 < 2^_EXP_ERR_BITS.

    The steps.  p_i ~ exp(i step) 2^F is carried in F = wp + _GRID_GUARD_BITS
    bit fixed point: p_0 = 2^F and p_(i+1) = floor(p_i q 2^-F), where q =
    floor(exp(step) 2^F) comes from mpf_exp at qprec = min(F + 40,
    EXP_COSH_CUTOFF - 14) bits (within 2^(1 - qprec) relative, by the bound).
    Each step adds less than (2 + 2^(F + 1 - qprec)) 2^-F relative error.  Then
    y = p_i exp(delta), delta = RN(i step) - i step taken exactly in integers
    (|delta| is at most half an ulp of RN(i step); above 1/2 the point falls
    back), from a k-term fixed-point Taylor sum that adds less than (3 k + 8)
    2^-F.  So [y - band, y + band] holds both exp(x) 2^F and mpf_exp's
    unrounded value.  RN is monotone: if no prec-bit rounding midpoint lies in
    that interval, all three round alike and y is rounded directly.  With
    band below a quarter of y's ulp at prec bits, the one midpoint within
    reach is the one nearest y's dropped bits (below a power of two the
    finer midpoints lie a quarter ulp or more away).  Any other point goes to
    ``mpf_exp``, as does every point once the step error passes 2^-11.
    """
    rnd = round_nearest
    wp = prec + 14
    fbits = wp + _GRID_GUARD_BITS
    qprec = min(fbits + 40, EXP_COSH_CUTOFF - 14)
    q = to_fixed(mpf_exp(step, qprec, rnd), fbits)
    per_step = 2 + (1 << max(0, fbits + 1 - qprec))  # relative error per step, units of 2^-F
    _, s_man, s_exp, _ = step
    shift = s_exp + fbits
    p = 1 << fbits
    for i in range(points):
        x = mpf_mul_int(step, i, prec, rnd)
        _, man, exp, _ = x
        delta = (man << (exp - s_exp)) - i * s_man if man else 0  # units of 2^s_exp
        delta = delta << shift if shift >= 0 else delta >> -shift
        y, term, k, size = p, p, 1, abs(delta)
        while term:  # y = p exp(delta): terms p |delta|^k / k!, alternating when delta < 0
            term = (term * size >> fbits) // k
            y += -term if delta < 0 and k & 1 else term
            k += 1
        err = i * per_step + 3 * k + 8  # relative error of y, units of 2^-F
        z = y + (y >> 10) + 1  # at least exp(x) 2^F while err < 2^(F - 11)
        band = (z >> (wp - _EXP_ERR_BITS)) + ((z >> fbits) + 1) * err
        half = 1 << (y.bit_length() - prec - 1)
        off = (y & ((half << 1) - 1)) - half  # y's signed distance from the midpoint of its ulp
        proved = not (size >> (fbits - 1) or err >> (fbits - 11))  # |delta| <= 1/2, err small
        if proved and band < half >> 1 and abs(off) > band:
            yield from_man_exp(y, -fbits, prec, rnd)
        else:
            yield mpf_exp(x, prec, rnd)
        p = p * q >> fbits


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
    rounded at the table's precision; ln x comes from the table's memo
    (``DunklWeights._log``), which keys an integer x by its int, as the fill
    keys its ratios, and takes one Taylor sum per odd mantissa: at integer
    alpha x is often a ratio already met, and at half-integer alpha x = o/2
    shares the sum of the odd ratio o.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prec, rnd = w.precision_bits, round_nearest
    x = mpf_add(mpf_add(w.alpha._mpf_, from_int(n), prec, rnd), fone, prec, rnd)
    x_ln_x = mpf_mul(x, w._log(x), prec, rnd)
    exponent = mpf_sub(mpf_add(w._raw_log_weight(n), x, prec, rnd), x_ln_x, prec, rnd)
    return mp.make_mpf(mpf_exp(exponent, prec, rnd))


def mittag_leffler(z, ml_alpha, theta, beta) -> mpf:
    """E(z) = sum_n z^n / ((n+theta)^beta Gamma(ml_alpha n + 1)) for real z > 0.

    It takes no weight table, so prec is the caller's ambient precision; the
    sum is accurate to about tol = 2^(16-prec) relative.  z must be real,
    finite and > 0: there every term is positive, and ``_ml_peak_walk`` sums
    outward from the largest.  Any other z, and a sum whose walk would pass
    _WALK_MAX_TERMS terms, raise ValueError.
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


def _peak_walk(n0, width, t0, side, cut_bits, wp, what) -> tuple:
    """The raw sum of positive terms t_n, n >= 0, walked out both ways from t0 = t_(n0).

    side(up) yields the terms n0+1, n0+2, ... or n0-1, ..., 0, each with None
    where the side cannot stop yet, else a callable giving its tail bound (s,
    rho), read at once: for rho < 1 that term and the later ones are at most s
    rho, s rho^2, ....  A side stops, leaving the term out, once the term and
    s rho/(1 - rho) are both below 2^-cut_bits of the running total, summed at
    wp bits.  A side walks about width terms; past _WALK_MAX_TERMS, estimated
    or walked, it raises ValueError(what).
    """
    too_long = ValueError(f"{what}: its walk from the peak would pass {_WALK_MAX_TERMS} terms")
    if width + min(n0, width) > _WALK_MAX_TERMS:
        raise too_long
    total, rnd = t0, round_nearest
    for up in (True, False):
        for k, (t, bound) in enumerate(side(up)):
            if bound and mpf_lt(t, cap := mpf_shift(total, -cut_bits)):  # bound >= t
                s, rho = bound()
                if mpf_lt(rho, fone) and mpf_lt(mpf_mul(s, rho, wp, rnd), mpf_mul(
                        cap, mpf_sub(fone, rho, wp, rnd), wp, rnd)):
                    break
            if k == _WALK_MAX_TERMS:
                raise too_long
            total = mpf_add(total, t, wp, rnd)
    return total


def _up_side_outruns_cap(ln_x: float, ml: float, theta: tuple, beta: float, n0: int,
                         cut_bits: int) -> bool:
    """Whether the up side of ``_ml_peak_walk`` from n0 surely walks past _WALK_MAX_TERMS.

    g's step ratio rho_n = x Gamma(y)/Gamma(y + ml), y = ml n + 1, falls with
    n, and as ln t - 1/t < psi(t) < ln t, ln x - ml ln(y + ml) <= ln rho_n <=
    ln x - ml (ln y - 1/y).  When the first term ratio (rho_(n0), times
    ((n0+1+theta)/(n0+theta))^(-beta) for beta < 0) is below 1, the terms fall
    from t0, the running total stays below t0/(1 - that ratio), and every term
    up to n0 + K + 1, K = _WALK_MAX_TERMS, is at least t0 rho_(n0+K)^(K+1)
    ((n0+theta)/(n0+K+1+theta))^max(beta, 0).  No such term can stop the side
    when that bound is 1 nat above 2^-cut_bits of the total bound.  It runs in
    float64, each bound widened by 1e-15 of its summands' sizes.
    """
    K = _WALK_MAX_TERMS

    def ln_at(n):  # ln(n + theta)
        return to_float(mpf_log(mpf_add(theta, from_int(n), 53, round_nearest), 53, round_nearest))

    y0, yK = ml * n0 + 1, ml * (n0 + K) + 1
    first = ln_x - ml * (math.log(y0) - 1 / y0)
    slack = abs(ln_x) + ml * (abs(math.log(y0)) + 1 / y0 + 1)
    if beta < 0 and first < 0:  # the weight only raises the ratio
        lo, hi = ln_at(n0), ln_at(n0 + 1)
        first -= beta * (hi - lo)
        slack -= beta * (abs(hi) + abs(lo))
    first += 1e-15 * slack
    if not first < 0:
        return False
    drop = (K + 1) * (ln_x - ml * math.log(yK + ml))
    slack = (K + 1) * (abs(ln_x) + ml * (math.log(yK + ml) + 1))
    if beta > 0:
        lo, hi = ln_at(n0), ln_at(n0 + K + 1)
        drop -= beta * (hi - lo)
        slack += beta * (abs(hi) + abs(lo))
    return drop - 1e-15 * slack > 1 - math.log(-math.expm1(first)) - cut_bits * math.log(2)


def _ml_peak_walk(x, ml, theta, beta, tol) -> mpf:
    """sum_n x^n / ((n+theta)^beta Gamma(ml n + 1)) for x > 0, by ``_peak_walk``.

    ml is a Python int at integer order, else an mpf; tol is a power of two;
    all runs ML_GUARD_BITS above prec.  With g_n = x^n/Gamma(ml n + 1), t_n =
    g_n (n+theta)^(-beta); g's ratio x Gamma(ml n + 1)/Gamma(ml n + ml + 1)
    falls with n (ln Gamma is convex).  Upward, s = t_n, with g's ratio as rho
    for beta >= 0 and the term ratio, which then falls too, for beta < 0.
    Downward, rho is g's ratio, with s = t_n for beta <= 0 and g_n
    theta^(-beta), the weight's maximum, for beta > 0.  The walk starts at n0
    = floor(x^(1/ml)/ml) with g = exp(n0 ln x - loggamma(ml n0 + 1)), where ln
    g curves by about ml/n0, so width = sqrt(4 cut_bits ln2 n0/ml).  That
    is 0 at n0 = 0, so a sum whose up side ``_up_side_outruns_cap`` shows to
    pass the term cap gets an infinite width, which ``_peak_walk`` refuses.  At
    integer order g steps by the exact ratio x/((ml n+1)...(ml n+ml)) and the
    cut is tol/2.  At other orders each g comes from that formula, so no
    rounding builds up, and the cut is tol 2^-ML_GUARD_BITS, which keeps the
    sum within an ulp of its closed form at ml = 1/2.
    """
    prec, wp, rnd = mp.prec, mp.prec + ML_GUARD_BITS, round_nearest
    integer = isinstance(ml, int)
    with mp.workprec(wp):
        peak = mpmath.root(x, ml) / ml if integer else x ** (1 / ml) / ml  # root(x, 0.5) = 1
        cut_bits = 1 - mpmath.mag(tol) + (1 if integer else ML_GUARD_BITS)
        width = mpmath.sqrt(4 * cut_bits * mpmath.ln(2) * peak / ml)
        weight_max = (theta ** -beta)._mpf_ if beta > 0 else None
    what = f"Mittag-Leffler sum at z={mpmath.nstr(x, 8)} for ml_alpha={mpmath.nstr(ml, 8)}"
    weighted, rising = beta != 0, beta < 0
    x, theta, beta = x._mpf_, theta._mpf_, beta._mpf_
    ml_ = from_int(ml) if integer else ml._mpf_
    ln_x = mpf_log(x, wp, rnd)

    def g_at(n):
        y = mpf_add(mpf_mul(ml_, from_int(n), wp, rnd), fone, wp, rnd)
        return mpf_exp(mpf_sub(mpf_mul(from_int(n), ln_x, wp, rnd),
                               mpf_loggamma(y, wp, rnd), wp, rnd), wp, rnd)

    def weight(n):
        return mpf_pow(mpf_add(theta, from_int(n), wp, rnd), beta, wp, rnd)

    n0 = int(min(peak, _WALK_MAX_TERMS**2))  # a wider peak passes the cap, width > peak^(1/2)
    if _up_side_outruns_cap(to_float(ln_x), float(ml), theta, to_float(beta), n0, cut_bits):
        width = math.inf
    g0 = g_at(n0)
    t0 = mpf_div(g0, weight(n0), wp, rnd) if weighted else g0

    def side(up):
        n, g, t = n0, g0, t0

        def bound():
            return (t if up or weight_max is None else mpf_mul(g, weight_max, wp, rnd)), rho

        while up or n > 0:
            if integer:  # g's ratio for the step away from the peak
                falling = math.prod(ml * (n if up else n - 1) + i for i in range(1, ml + 1))
                rho = (mpf_div(x, from_int(falling), wp, rnd) if up
                       else mpf_rdiv_int(falling, x, wp, rnd))
                g_next = mpf_mul(g, rho, wp, rnd)
            n += 1 if up else -1
            if not integer:
                g_next = g_at(n)
                rho = mpf_div(g_next, g, wp, rnd)
            t_next = mpf_div(g_next, weight(n), wp, rnd) if weighted else g_next
            if up and rising:
                rho = mpf_div(t_next, t, wp, rnd)
            yield t_next, bound
            g, t = g_next, t_next

    return mp.make_mpf(mpf_pos(_peak_walk(n0, width, t0, side, cut_bits, wp, what), prec, rnd))


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

    Each sum is a ``_peak_walk`` at the table's precision: t_(n+1) = t_n r^q
    a_(n+1)^(-q) up, t_(n-1) = t_n / r^q / a_n^(-q) down, a_n^(-q) taken once
    per call from the ratio formula (``_raw_ratio``), so n_max 0 serves any r.
    As k <= a_k <= k + 2 alpha + 1, s = t_n with rho = (r/(n+1))^q up and
    ((n+2 alpha+1)/r)^q down bound the tails, and the cut leaves out terms
    below half an ulp.  A sum starts at n0 = floor(r) if width = sqrt(4 ln2
    prec r) < n0 (r > 710 at 256 bits), with t_(n0) from the closed Gamma
    form at ML_GUARD_BITS more bits, and else walks up from t_0 = 1.
    """
    radii = [mpf(r) for r in radii]
    for r in radii:
        if not r > 0:
            raise ValueError(f"r must be > 0, got {r}")
    q = mpf(q)
    if not 1 <= q <= 2:
        raise ValueError(f"q must lie in [1, 2], got {q}")
    a = rate_exponent(conjugate_exponent(q), w.alpha, "fhc_upper")
    prec, rnd, four_l = w.precision_bits, round_nearest, 4 * w.precision_bits * math.log(2)
    inv_a_q = functools.lru_cache(maxsize=1 << 16)(
        lambda n: (mp.make_mpf(w._raw_ratio(n)) ** -q)._mpf_)

    def side(up):  # the walk at the radius of the loop below
        n, t = n0, t0

        def bound():
            return t, ((r / n if up else (n + 2 * w.alpha + 2) / r) ** q)._mpf_

        while up or n > 0:
            if up:
                n += 1
                t_next = mpf_mul(mpf_mul(t, r_q, prec, rnd), inv_a_q(n), prec, rnd)
            else:
                t_next = mpf_div(mpf_div(t, r_q, prec, rnd), inv_a_q(n), prec, rnd)
                n -= 1
            yield t_next, (None if up and n <= floor_r else bound)  # up to r, rho >= 1
            t = t_next

    ratios = []
    for r in radii:
        r_q, floor_r, width = (r**q)._mpf_, int(r), math.sqrt(four_l * float(r))
        n0, t0 = floor_r if width < floor_r else 0, fone  # t_0 = r^0 / d_0^q
        if n0:
            with mp.workprec(prec + ML_GUARD_BITS):
                t0 = mpf_exp((q * (n0 * mpmath.ln(r) - _gamma_form(w.alpha, n0)))._mpf_, prec, rnd)
        total = _peak_walk(n0, width, t0, side, prec + 1, prec,
                           f"Lemma 3 sum at r={mpmath.nstr(r, 8)}")
        ratios.append(mpmath.exp(mpmath.ln(mp.make_mpf(total)) - q * (r - a * mpmath.ln(r))))
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
