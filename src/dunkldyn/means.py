"""Integral means M_p(f, r) on circles and the Hausdorff-Young comparison.

Routes by exponent:

* p = 2 goes through the Parseval closed form, summed at working precision.
  This is the anchor the quadrature route is tested against.
* p = infinity samples |f| on a uniform circle grid and sharpens up to the three
  highest local maxima of the samples with a golden-section pass each.
* other p use trapezoidal quadrature of |f|^p on a uniform grid whose length
  each radius sets from its own band of terms (below).  For a smooth
  periodic integrand the uniform trapezoid rule converges faster than any
  power of 1/m, so the m-versus-m/2 discrepancy reported next to each value
  is an honest error proxy.

The quadrature and sampling paths run in scaled float64: coefficients
c_n r^n are max-shifted in the log domain before an FFT evaluates the circle
samples.  That is sound for means because M_p(f, r) >= max_n |c_n| r^n for
every p >= 1 (the coefficient integral bound), so terms that underflow the
shifted window are smaller than the top term by hundreds of orders and
cannot move the mean at the float64 noise level, which is what the reported
discrepancy tracks.

``_circle_rows`` is the one fold-and-inverse-FFT kernel: it takes flat
(row, degree, value) arrays and fills the rows of one array.  It has one
caller, ``means_on_grid`` (and through it ``_band_local_means``), which
fills a row per radius.  ``TruncatedSeries.sup_on_disk`` is the kernel's working-precision
oracle.  ``points_for`` gives the series' full length m: 4096 samples, or
m = 8 D with D the degree above that.  Up to 4096 samples the kernel runs one
inverse FFT of length m.  Above that, when D has a prime factor of at least
191, it computes the same length-m transform as a length-8 step, twiddles
and length-D transforms, so a prime D costs a Bluestein transform of length
D rather than 8 D; when D is smoother, the one length-m transform is faster
and runs instead.  A series with real coefficients, as every built series
is, has f(conj z) = conj f(z), so its split takes a length-8 real FFT and
five of the eight length-D transforms and fills the other three eighths of
the samples by conjugation.  Whether a series is real is decided once per
call, by the table, so a row's samples never depend on the other radii of
its block.

Band-local lengths.  A row's samples come only from the terms of its 700-nat
window, whose degrees span far fewer than D on a sparse series (a median of
140 on a built fhc series of degree 4079).  |f| on the circle is
|z^(-n_lo) f|, a polynomial of degree span, so the span and not D sets the
trapezoid's accuracy.  So, except at p = infinity, on a series whose m is
above 4096 each row first takes its own m_W samples: the smallest even
5-smooth number of at least max(64, 8 (span + 1)), with span the largest
minus the smallest degree the row keeps.  The row stands there when its
m_W-vs-m_W/2 discrepancy is below 1e-14 of its value; otherwise it tries
2 m_W if that is below m, and then falls back to m, where its value is the
full-length one bit for bit.  Accepted rows stay within 1e-15 relative of
the full-length value, and their discrepancy column is the m_W-vs-m_W/2 one.
A series with m = 4096 (degree at most 512) keeps m on every row: half the
rows of a random low-degree polynomial fail the test, as its zeros near the
circle make |f|^p rough, and would pay for three transforms.  p = infinity
keeps m, since a coarser grid can rank its narrow peaks differently.

Every mean goes through ``means_on_grid``: one table per call serves every
radius, and nothing outlives the call.  On the sampled routes the table takes
the working-precision ln|c_n| and phase only of the coefficients that some
radius of the call can keep, found by a float64 estimate with a 1-nat guard
(``_CircleTable``), so every term, top and shift equals that of the table of
all coefficients bit for bit (128 of 427 on a built fhc series of degree 4079
over ``standard_r_grid``).  The sampled routes take a block of radii, as many
as fill _BLOCK_ELEMENTS = 2^17 complex samples (2 MB) at m or, when rows go
band-local, about _TABLE_ELEMENTS entries of the series' coefficients, through
three array steps, each keeping a row's numbers apart from the other rows', so
a mean does not depend on its block:

1. terms (``_CircleTable.block_terms``): a float64 pass over ln|c_n| + n ln r
   picks each radius' terms within the 700-nat window plus a 1-nat margin,
   which dwarfs the ~1e-11 rounding of that pass, and forms each exponent
   relative to the row's top term in double-double arithmetic; ln r and the
   shift are the only mpf operations.  The samples agree with a
   working-precision evaluation of every coefficient to within 1e-14 of the
   largest sample, where plain float64 exponents miss by ~2e-12 at degree 4000;
2. transform: the rows of one length in batches of at most _BLOCK_ELEMENTS
   samples, one ``_circle_rows`` call each; a block whose rows all take m is
   one batch.  At most two batch-sized arrays are alive in it (1 5/8 on the
   real route), plus two length-D twiddle vectors;
3. reduce, per batch: ``_quadrature_floats`` (behind ``_quadrature_means``)
   raises the batch's |samples| to the power p once; ``_max_means`` refines
   the candidate peaks of every row in one lockstep golden section, each on
   its band rotated to the peak's angle through the exact residue (j n) mod
   m, accurate to float64 at any degree.  A quadrature row's mpf result is
   formed once, when it stands.

Parseval likewise drops terms more than (precision + 64) bits below the top term.

The sampled routes' per-coefficient table and the Hausdorff-Young left-hand
terms run on raw libmp tuples; as in ``growth``, each equals the mpf
expression it replaces bit for bit, and the tests keep that as its oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (from_float, fzero, mpc_abs, mpc_div_mpf, mpc_to_complex, mpf_div,
                          mpf_log, mpf_mul, mpf_pow, mpf_pow_int, mpf_sqrt, mpf_sub, mpf_sum,
                          round_nearest, to_float)

from .series import TruncatedSeries

P_INF = mpmath.inf

_UNDERFLOW_LOG = -700.0  # scaled log below which a float64 term is pure noise
_WINDOW_MARGIN = 1.0  # nats added to a float64 window; its rounding is ~1e-11
_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SPLIT = 2.0**27 + 1.0  # Veltkamp splitter: a float64 into two 26-bit halves
_BLOCK_ELEMENTS = 1 << 17  # complex values per batched inverse FFT (2 MB; 4 MB with its output)
_TABLE_ELEMENTS = 1 << 14  # (radius, coefficient) entries per block; block_terms holds
                           # several arrays of that size at once
_MIN_POINTS = 4096  # the smallest full grid; above it m = 8 * degree and rows go band-local
_POINTS_PER_DEGREE = 8  # circle samples per degree of D or of a band; the split's short length
_SPLIT_MIN_FACTOR = 191  # the split pays only when m/8 has a prime factor at least this large
_REFINED_PEAKS = 3  # most local maxima of a p = inf row that get a refine
_MIN_BAND_POINTS = 64  # fewest circle samples of a band-local row
_BAND_ACCEPT = 1e-14  # relative m-vs-m/2 discrepancy below which a band-local row stands


def conjugate_exponent(p):
    """q with 1/p + 1/q = 1, under the conventions q(1) = inf, q(inf) = 1."""
    if p == P_INF:
        return mpf(1)
    p = mpf(p)
    if p == 1:
        return P_INF
    return p / (p - 1)


class MeanParams:
    """The exponent p and its conjugate q = conjugate_exponent(p)."""

    __slots__ = ("p", "q")

    def __init__(self, p):
        p = P_INF if p == P_INF else mpf(p)
        if p != P_INF and not p >= 1:
            raise ValueError(f"p must lie in [1, inf], got {p}")
        self.p = p
        self.q = conjugate_exponent(p)

    def points_for(self, f: TruncatedSeries) -> int:
        """The full circle sample count m: 4096, or eight points per coefficient degree
        if more.  Every p = inf row takes m, and so does every quadrature row of a
        series with m = 4096; above that a quadrature row takes m only when its
        band-local lengths fail (see the module docstring)."""
        return max(_MIN_POINTS, _POINTS_PER_DEGREE * max(f.degree(), 1))

    def __repr__(self) -> str:
        return f"MeanParams(p={self.p}, q={self.q})"


class MeanResult(NamedTuple):
    value: mpf
    richardson_err: mpf


class HausdorffYoungResult(NamedTuple):
    lhs: mpf
    rhs: mpf
    margin: mpf


def _float_ln(x: mpf) -> float:
    """ln x in float64 for x > 0, without forming x as a float."""
    man, exp = x.man_exp
    return math.log(man) + exp * _LN2


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _log_abs_and_phase(items, real: bool | None = None):
    """(ln|c_n| as raw mpf tuples, c_n/|c_n| in float64 if the series is real, else
    complex128) over the (n, c_n) items, at working precision.  real says whether
    the series is real; by default, whether every c_n of items is.  A real phase is
    sign(c_n), with no division, whenever |c_n| keeps c_n's mantissa; it equals
    the complex one's real part either way.  ``construct.frequency_report``
    reads both too."""
    prec, rnd = mp.prec, round_nearest
    mags = [mpc_abs(c._mpc_, prec, rnd) for _, c in items]
    log_abs = [mpf_log(a, prec, rnd) for a in mags]
    if real is None:
        real = all(c._mpc_[1] == fzero for _, c in items)
    if real:
        # c/|c| is exactly sign(c) when |c| kept c's mantissa
        phase = np.array([(-1.0 if x[0] else 1.0) if a[1] == x[1]
                          else to_float(mpf_div(x, a, prec, rnd), rnd=rnd)
                          for x, a in zip((c._mpc_[0] for _, c in items), mags)])
    else:
        phase = np.array([mpc_to_complex(mpc_div_mpf(c._mpc_, a, prec, rnd), rnd=rnd)
                          for (_, c), a in zip(items, mags)])
    return log_abs, phase


def _estimate_log_abs(c) -> float:
    """ln|c| in float64 for a nonzero mpc c, from its parts' mantissas and exponents
    without an mpf log, within a few ulps of ln|c|; nan for an infinite or nan part."""
    re, im = c._mpc_
    if im == fzero and re[1]:  # a real coefficient, as every built series has
        return math.log(re[1]) + re[2] * _LN2
    logs = []
    for _, man, exp, _ in (re, im):
        if man:
            logs.append(math.log(man) + exp * _LN2)
        elif exp:  # inf or nan
            return math.nan
    if len(logs) == 1:
        return logs[0]
    hi, lo = max(logs), min(logs)
    return hi + 0.5 * math.log1p(math.exp(2.0 * (lo - hi)))


def _reachable(items, radii) -> list:
    """The (n, c_n) items within the 700-nat window plus _WINDOW_MARGIN of the largest
    |c_k| r^k at some radius r > 0 of radii, by float64 estimates, a block of radii
    at a time.  An item with a nan or infinite estimate is always kept, and so is
    every item when no row's estimates can spread wider than that."""
    est = [_estimate_log_abs(c) for _, c in items]
    ln_r = [_float_ln(r) for r in radii]
    width = _WINDOW_MARGIN - _UNDERFLOW_LOG
    if max(est) - min(est) + (items[-1][0] - items[0][0]) * max(map(abs, ln_r)) < width:
        return items
    est = np.array(est)
    degrees = np.array([n for n, _ in items], dtype=np.float64)
    ln_r = np.array(ln_r)
    keep = np.zeros(len(items), dtype=bool)
    per_block = max(1, _TABLE_ELEMENTS // len(items))
    for start in range(0, len(ln_r), per_block):
        x = est + ln_r[start:start + per_block, None] * degrees
        keep |= ~(x < x.max(axis=1, keepdims=True) - width).all(axis=0)
    return [items[i] for i in np.flatnonzero(keep)]


class _CircleTable:
    """Per-coefficient data of one series, shared by every radius of a call.

    n lists the table's degrees as ints for mpf arithmetic and degrees as an
    int64 array; log_abs_f holds ln|c_n| rounded to float64, which selects
    candidate terms.  The Parseval route keeps every nonzero coefficient and
    |c_n|^2.  The sampling routes keep ln|c_n| as an mpf tuple and the unit
    phase (``_log_abs_and_phase``), and the float64 remainder log_abs_lo (so
    log_abs_f + log_abs_lo is a double-double), which ``block_terms`` reads
    for a block of radii at once.  Real phases make its values float64, which
    send ``_circle_rows`` down the split's real route; whether the series is
    real is decided over all its coefficients.

    Given the call's nonzero radii, the sampling routes keep only the
    coefficients that some radius can keep: those whose float64 estimate of
    ln|c_n| + n ln r (``_estimate_log_abs``, error ~1e-11) is within the
    700-nat window plus a 1-nat guard of the row's largest estimate at some
    radius.  Every term ``block_terms`` keeps lies within 700 nats of its
    row's top, and the top itself has the largest estimate up to that error,
    so the tops, the shifts and the kept terms equal those of the table of all
    coefficients bit for bit.  Only those coefficients pay the mpf log.
    """

    __slots__ = ("n", "degrees", "log_abs_f", "abs2", "log_abs", "log_abs_lo", "phase")

    def __init__(self, f: TruncatedSeries, parseval: bool, radii=None):
        items = list(f.items())
        if parseval:
            mags = [abs(c) for _, c in items]
            self.log_abs_f = np.array([_float_ln(a) for a in mags])
            self.abs2 = [mpf_pow_int(a._mpf_, 2, mp.prec, round_nearest) for a in mags]
        else:
            real = all(c._mpc_[1] == fzero for _, c in items)
            if radii is not None:
                items = _reachable(items, radii)
            self.log_abs, self.phase = _log_abs_and_phase(items, real)
            hi = [to_float(v, rnd=round_nearest) for v in self.log_abs]
            self.log_abs_f = np.array(hi)
            prec, rnd = mp.prec, round_nearest
            self.log_abs_lo = np.array([to_float(mpf_sub(v, from_float(h), prec, rnd), rnd=rnd)
                                        for v, h in zip(self.log_abs, hi)])
        self.n = [n for n, _ in items]
        self.degrees = np.array(self.n, dtype=np.int64)

    def parseval(self, r: mpf) -> mpf:
        """M_2 = (sum |c_n|^2 r^(2n))^(1/2), without terms below the working precision.

        On raw tuples, rounded as ``mpmath.sqrt(mpmath.fsum(|c_n|**2 * r**(2n)))``
        rounds it: each term is an ``mpf_mul`` of two ``mpf_pow_int`` results,
        and ``fsum`` is ``mpf_sum`` over them.
        """
        approx = self.log_abs_f + self.degrees * _float_ln(r)
        width = (mp.prec + 64) * _LN2 / 2 + _WINDOW_MARGIN
        idx = np.flatnonzero(approx >= approx.max() - width)
        prec, rnd, x = mp.prec, round_nearest, r._mpf_
        terms = [mpf_mul(self.abs2[i], mpf_pow_int(x, 2 * self.n[i], prec, rnd), prec, rnd)
                 for i in idx.tolist()]
        return mp.make_mpf(mpf_sqrt(mpf_sum(terms, prec, rnd), prec, rnd))

    def block_terms(self, radii):
        """(shifts, (rows, degrees, scaled)): the terms c_n r_i^n e^{-shift_i} of each
        radius' 700-nat window, flat in row order, as ``_circle_rows`` takes them.

        shift_i = ln|c_top| + n_top ln r_i in mpf for the largest term of the
        float64 pass.  Each exponent is (ln|c_n| - ln|c_top|) + (n - n_top) ln r_i,
        summed exactly by two-sum from the (hi, lo) logs and from ln r_i split
        into two 26-bit halves, whose products with an integer below 2^26 are
        exact, plus its float64 remainder: within an ulp of the exact value.  A
        term the float64 pass misordered against c_top, within ~1e-11 nats,
        gets an exponent just above 0.  Every operation is elementwise over a
        2-D (radius, coefficient) pass, so a row's terms do not depend on its block.
        """
        ln_r = [mpmath.ln(r) for r in radii]
        hi = [float(x) for x in ln_r]
        l_lo = np.array([float(x - h) for x, h in zip(ln_r, hi)])
        l_hi = np.array(hi)
        c = _SPLIT * l_hi
        l_1 = c - (c - l_hi)
        l_2 = l_hi - l_1
        approx = self.log_abs_f + l_hi[:, None] * self.degrees
        top = np.argmax(approx, axis=1)
        floor = approx[np.arange(len(hi)), top] - (_WINDOW_MARGIN - _UNDERFLOW_LOG)
        rows, idx = np.nonzero(approx >= floor[:, None])
        t = top[rows]
        k = (self.degrees[idx] - self.degrees[t]).astype(np.float64)
        s, e_a = _two_sum(self.log_abs_f[idx], -self.log_abs_f[t])
        s, e_1 = _two_sum(s, k * l_1[rows])
        s, e_2 = _two_sum(s, k * l_2[rows])
        rel = s + (e_a + e_1 + e_2 + (self.log_abs_lo[idx] - self.log_abs_lo[t]) + k * l_lo[rows])
        shifts = [mp.make_mpf(self.log_abs[i]) + self.n[i] * x for i, x in zip(top.tolist(), ln_r)]
        keep = rel >= _UNDERFLOW_LOG
        sel = idx[keep]
        return shifts, (rows[keep], self.degrees[sel], np.exp(rel[keep]) * self.phase[sel])


def _has_large_factor(n: int) -> bool:
    """Whether n >= 1 has a prime factor of at least _SPLIT_MIN_FACTOR."""
    for p in range(2, _SPLIT_MIN_FACTOR):
        while n % p == 0:
            n //= p
    return n > 1


def _circle_rows(n_rows: int, m: int, rows, degrees, scaled) -> np.ndarray:
    """samples[i, j] = sum of scaled_t e^{2 pi i j degrees_t / m} over the t with rows_t = i.

    Degrees are folded mod m, so any m >= 1 is sampled exactly; when m
    exceeds the span of a row's degrees, as the full m and every band-local
    length do, no two of its terms share a cell.  ``np.add.at``
    adds the terms of a cell in the order given.  Up to _MIN_POINTS samples, when 8 does not
    divide m, or when D = m/8 has no prime factor of at least
    _SPLIT_MIN_FACTOR, one inverse FFT of length m runs along the rows.
    Otherwise the same transform is split in four steps (Bailey):
    with n = b' D + k and j = 8 a + b (a, k < D; b, b' < 8),

        samples[8 a + b] = sum_k e^{2 pi i a k / D} e^{2 pi i b k / m}
                           sum_b' e^{2 pi i b b' / 8} coeffs[b' D + k],

    that is a length-8 inverse FFT down the (8, D) view of the row, the
    twiddles e^{2 pi i b k / m} (b k < m, so no residue is taken), a
    length-D inverse FFT, and a transpose.  A prime D then costs a Bluestein
    transform of length D, not 8 D.  Near D = 4096, a D whose largest prime
    factor is at most 181 (4081 = 7 11 53, 4117 = 23 179) runs as fast or
    faster unsplit, while from 191 on the split wins (4097 = 17 241, 4079
    prime: about 0.6 of the unsplit time on complex values).

    float64 values (a real series) take the split's real route.  Their
    samples are conjugate-symmetric, samples[m - j] = conj(samples[j]), so
    only the conjugate F = conj(samples) is formed, for b = 0..4: a length-8
    real FFT, the twiddles e^{-2 pi i b k / m} and five forward length-D FFTs
    in place of eight.  Then samples[8 a + b] = conj(F[b, a]) for b <= 4, and,
    as m - (8 a + b) = 8 (D - 1 - a) + (8 - b), samples[8 a + b] = F[8 - b,
    D - 1 - a] for b >= 5.  At D = 4079 on blocks of four rows it takes
    about 0.7 of the complex split's time, 0.4 of the unsplit one's (medians
    of 150 interleaved calls on a shared 2-core Xeon VM: 18.5, 10.6 and 7.5
    ms).  A band-local length is 5-smooth, so it always takes the one
    length-m transform.  A row's samples depend on its own values only.
    Its callers pass it one batch's rows of ``_CircleTable.block_terms``'
    arrays and its rows to a reducer.
    """
    short = _POINTS_PER_DEGREE
    split = m > _MIN_POINTS and not m % short and _has_large_factor(m // short)
    real = split and scaled.dtype == np.float64
    coeffs = np.zeros((n_rows, m), dtype=np.float64 if real else np.complex128)
    np.add.at(coeffs, (rows, degrees % m), scaled)  # e^{2 pi i j n / m} depends on n mod m
    if not split:
        return np.fft.ifft(coeffs, axis=-1, norm="forward")
    d = m // short
    if real:
        cols = np.fft.rfft(coeffs.reshape(n_rows, short, d), axis=1)
    else:
        cols = np.fft.ifft(coeffs.reshape(n_rows, short, d), axis=1, norm="forward")
    del coeffs  # at most two block-sized arrays are alive at once
    step = np.exp((-2j if real else 2j) * np.pi / m * np.arange(d))
    twiddle = np.ones(d, dtype=np.complex128)
    for b in range(1, cols.shape[1]):
        twiddle *= step  # e^{2 pi i b k / m}, conjugated on the real route
        cols[:, b] *= twiddle
    if real:
        half = cols.shape[1]
        cols = np.fft.fft(cols, axis=-1)
        out = np.empty((n_rows, d, short), dtype=np.complex128)
        np.conjugate(cols.transpose(0, 2, 1), out=out[:, :, :half])
        out[:, :, half:] = cols[:, half - 2:0:-1, ::-1].transpose(0, 2, 1)
        return out.reshape(n_rows, m)
    out = np.fft.ifft(cols, axis=-1, norm="forward")
    del cols
    return out.transpose(0, 2, 1).reshape(n_rows, m)


def _quadrature_floats(samples: np.ndarray, p) -> list[tuple[float, float]]:
    """(fine, coarse) per row of samples: the trapezoid M_p on all m samples and on
    the even m/2, relative to the row's shift.

    |samples| / top is raised to the power p once, and the coarse mean reads
    its even columns.  Row sums, roots and top * are per row.
    """
    mags = np.abs(samples)
    top = mags.max(axis=1)
    mags /= top[:, None]  # keeps mags**p in [0, 1] however large p is
    p_f = float(p)
    mags **= p_f
    return [(t * float(fine ** (1.0 / p_f)), t * float(coarse ** (1.0 / p_f)))
            for t, fine, coarse in zip(top.tolist(), mags.mean(axis=1), mags[:, ::2].mean(axis=1))]


def _quadrature_result(shift: mpf, fine: float, coarse: float) -> MeanResult:
    """e^shift fine with the m-vs-m/2 discrepancy e^shift |fine - coarse|."""
    scale = mpmath.exp(shift)
    return MeanResult(mpf(fine) * scale, abs(mpf(fine - coarse)) * scale)


def _quadrature_means(shifts, samples: np.ndarray, p) -> list[MeanResult]:
    """Trapezoid value of M_p on each row of samples with its m-vs-m/2 discrepancy."""
    return [_quadrature_result(shift, fine, coarse)
            for shift, (fine, coarse) in zip(shifts, _quadrature_floats(samples, p))]


def _max_means(shifts, samples: np.ndarray, rows, degrees, scaled) -> list[MeanResult]:
    """Largest sample of each row sharpened by golden-section passes at its highest peaks.

    The candidates are each row's _REFINED_PEAKS highest cyclic local maxima
    of |samples| whose value plus climb exceeds the row's largest sample;
    climb = (2 pi / m) sum_n |n - n_top| |scaled_n| bounds how far |f| rises
    within 2 pi / m of a peak, so a nearly tied peak cannot hide the maximum.
    (A peak below the row's best refined value is refined too, and cannot
    move it.)  All candidates of the block run the 48 steps of one golden
    section over their two cells in lockstep, one array expression per step,
    each on its row's terms rotated to the peak's angle 2 pi j / m through
    the exact residue (j n) mod m: so e^{i n t} is only formed for |t| <=
    2 pi / m.  Each candidate sums its own band alone (``np.add.reduceat``).
    """
    n_rows, m = samples.shape
    mags = np.abs(samples)
    top = mags.max(axis=1)
    coarse_half = mags[:, ::2].max(axis=1)
    half_width = 2.0 * math.pi / m
    starts = np.searchsorted(rows, np.arange(n_rows))  # every row keeps its top term
    size = np.abs(scaled)
    hit = np.flatnonzero(size == np.maximum.reduceat(size, starts)[rows])
    n_top = degrees[hit[np.searchsorted(rows[hit], np.arange(n_rows))]]
    climb = half_width * np.add.reduceat(np.abs(degrees - n_top[rows]) * size, starts)
    # the cyclic local maxima that pass the candidate test, by row, highest
    # first, ties to the first column; the first _REFINED_PEAKS of each row
    cand, peaks = np.nonzero(mags + climb[:, None] > top[:, None])
    height = mags[cand, peaks]
    local = (height >= mags[cand, peaks - 1]) & (height >= mags[cand, (peaks + 1) % m])
    cand, peaks, height = cand[local], peaks[local], height[local]
    order = np.lexsort((-height, cand))
    cand, peaks = cand[order], peaks[order]
    keep = np.arange(len(cand)) - np.searchsorted(cand, cand) < _REFINED_PEAKS
    cand, peaks = cand[keep], peaks[keep]
    best = top.copy()
    if len(cand):
        lengths = np.diff(np.append(starts, len(rows)))[cand]
        first = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(cand)), lengths)
        band = np.arange(len(owner)) - (first - starts[cand])[owner]
        n = degrees[band]
        rotated = scaled[band] * np.exp(2j * np.pi * ((peaks[owner] * n) % m) / m)

        def value(t: np.ndarray) -> np.ndarray:
            return np.abs(np.add.reduceat(rotated * np.exp(1j * (t[owner] * n)), first))

        a, b = np.full(len(cand), -half_width), np.full(len(cand), half_width)
        x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        f1, f2 = value(x1), value(x2)
        for _ in range(48):
            right = f1 < f2  # the maximum lies in [x1, b]
            a = np.where(right, x1, a)
            b = np.where(right, b, x2)
            x = np.where(right, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
            f = value(x)
            x1, x2 = np.where(right, x2, x), np.where(right, x, x1)
            f1, f2 = np.where(right, f2, f), np.where(right, f, f1)
        np.maximum.at(best, cand, np.maximum(f1, f2))
    out = []
    for shift, v, t, c in zip(shifts, best.tolist(), top.tolist(), coarse_half.tolist()):
        scale = mpmath.exp(shift)
        out.append(MeanResult(mpf(v) * scale, (abs(mpf(v - t)) + abs(mpf(v - c))) * scale))
    return out


def _even_smooth_below(limit: int) -> np.ndarray:
    """The even 5-smooth numbers 2^a 3^b 5^c (a >= 1) below limit, ascending."""
    out = []
    two = 2
    while two < limit:
        three = two
        while three < limit:
            five = three
            while five < limit:
                out.append(five)
                five *= 5
            three *= 3
        two *= 2
    return np.array(sorted(out), dtype=np.int64)


def _band_points(starts: np.ndarray, degrees: np.ndarray, m: int) -> np.ndarray:
    """Each row's first sample count: the smallest even 5-smooth number of at least
    max(64, 8 (span + 1)), with span the largest minus the smallest degree of the
    row's terms degrees[starts[i]:starts[i + 1]]; m where that is not below m."""
    first = starts[:-1]
    span = np.maximum.reduceat(degrees, first) - np.minimum.reduceat(degrees, first)
    smooth = _even_smooth_below(m)
    at = np.searchsorted(smooth, np.maximum(_MIN_BAND_POINTS, _POINTS_PER_DEGREE * (span + 1)))
    return np.where(at < len(smooth), smooth[np.minimum(at, len(smooth) - 1)], m)


def _take_rows(terms, starts: np.ndarray, batch: np.ndarray):
    """The (rows, degrees, scaled) terms of the rows ``batch`` of a block, in their
    order and renumbered 0, 1, ... in batch order, as ``_circle_rows`` takes them."""
    _, degrees, scaled = terms
    first = starts[batch]
    lengths = starts[batch + 1] - first
    owner = np.repeat(np.arange(len(batch)), lengths)
    idx = np.arange(len(owner)) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    return owner, degrees[idx], scaled[idx]


def _band_local_means(shifts, terms, m: int, p):
    """(results, points): the trapezoid M_p at each row of a block of
    ``block_terms`` and the number of circle samples its value came from.

    A row first takes the ``_band_points`` of its own terms, m_W, and stands
    when its discrepancy is below _BAND_ACCEPT of its value; otherwise it tries
    2 m_W if that is below m, and then m, where it gives the bits of the
    full-length path.  Rows of one length run in batches of at most
    _BLOCK_ELEMENTS samples, one ``_circle_rows`` call and one reducer each; a
    row's length depends on its own terms only, so its result still does not
    depend on its block.
    """
    n_rows = len(shifts)
    rows, degrees, _ = terms
    starts = np.searchsorted(rows, np.arange(n_rows + 1))  # every row keeps its top term
    points = _band_points(starts, degrees, m)
    pending: dict[int, list[int]] = {}
    for i, length in enumerate(points.tolist()):
        pending.setdefault(length, []).append(i)
    results = [None] * n_rows
    while pending:
        length = min(pending)
        group = np.array(sorted(pending.pop(length)))
        per_batch = max(1, _BLOCK_ELEMENTS // length)
        for start in range(0, len(group), per_batch):
            batch = group[start:start + per_batch]
            samples = _circle_rows(len(batch), length, *_take_rows(terms, starts, batch))
            for i, (fine, coarse) in zip(batch.tolist(), _quadrature_floats(samples, p)):
                if length == m or abs(fine - coarse) < _BAND_ACCEPT * fine:
                    points[i] = length
                    results[i] = _quadrature_result(shifts[i], fine, coarse)
                else:
                    pending.setdefault(2 * length if 2 * length < m else m, []).append(i)
    return results, points


def means_on_grid(f: TruncatedSeries, radii, params: MeanParams) -> list[MeanResult]:
    """M_p(f, r) with its quadrature discrepancy at every radius of the grid.

    The coefficient table is built once per call and read at each radius;
    nothing is cached beyond the call.  The sampled routes run a block of
    radii at a time through the table's block terms.  When every row takes m,
    a block is as many radii as fill _BLOCK_ELEMENTS samples, through one
    ``_circle_rows`` transform and one reducer per route; band-local rows
    come as many radii as fill about _TABLE_ELEMENTS table entries, which
    ``_band_local_means`` runs in batches of rows of one length.  A radius'
    result does not depend on its block.  It takes no weight table, so it
    works at the caller's ambient precision.
    """
    radii = [mpf(r) for r in radii]
    for r in radii:
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
    constant = MeanResult(abs(f.coeff(0)), mpf(0))
    if f.degree() <= 0 or not any(radii):
        return [constant] * len(radii)
    if params.p == 2:
        table = _CircleTable(f, True)
        return [MeanResult(table.parseval(r), mpf(0)) if r else constant for r in radii]
    live = [i for i, r in enumerate(radii) if r]
    table = _CircleTable(f, False, [radii[i] for i in live])
    m = params.points_for(f)
    band_local = params.p != P_INF and m > _MIN_POINTS
    out = [constant] * len(radii)
    # a block of radii is one batch when every row takes m, and many batches otherwise;
    # blocks are sized by the series' coefficients, not by the table's reach set
    per_block = max(1, _TABLE_ELEMENTS // f.n_nonzero() if band_local else _BLOCK_ELEMENTS // m)
    for start in range(0, len(live), per_block):
        block = live[start:start + per_block]
        shifts, terms = table.block_terms([radii[i] for i in block])
        if band_local:
            results, _ = _band_local_means(shifts, terms, m, params.p)
        else:
            samples = _circle_rows(len(block), m, *terms)
            if params.p == P_INF:
                results = _max_means(shifts, samples, *terms)
            else:
                results = _quadrature_means(shifts, samples, params.p)
        for i, res in zip(block, results):
            out[i] = res
    return out


def m1_log_bounds(f: TruncatedSeries, radii) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): ln max_n |c_n| r^n <= ln M_1(f, r) <= 1/2 ln sum_n |c_n|^2 r^(2n), r > 0.

    The coefficient bound and Cauchy-Schwarz with Parseval, in float64 for a
    nonzero f, over blocks of about _BLOCK_ELEMENTS terms.  Both bound the
    trapezoid M_1 of ``means_on_grid`` up to its ~1e-10 relative rounding:
    each row's sample count, the full m or a band-local m_W > span, exceeds
    the span of the degrees it keeps, so the folded band is injective
    and the discrete Fourier and Parseval identities are exact.
    """
    items = list(f.items())
    log_abs = np.array([_float_ln(abs(c)) for _, c in items])
    degrees = np.array([n for n, _ in items], dtype=np.float64)
    ln_r = np.array([_float_ln(mpf(r)) for r in radii])
    lower, upper = np.empty(len(ln_r)), np.empty(len(ln_r))
    per_block = max(1, _BLOCK_ELEMENTS // len(items))
    for start in range(0, len(radii), per_block):
        block = slice(start, start + per_block)
        x = log_abs + ln_r[block, None] * degrees
        top = lower[block] = x.max(axis=1)
        upper[block] = top + 0.5 * np.log(np.exp(2.0 * (x - top[:, None])).sum(axis=1))
    return lower, upper


def hausdorff_young_on_grid(f: TruncatedSeries, radii, params: MeanParams) -> list:
    """l^q norm of the circle Fourier coefficients against M_p at each radius, 1 < p <= 2.

    F(t) = f(r e^{it}) has Fourier coefficients c_n r^n, so the inequality
    reads (sum |c_n r^n|^q)^{1/q} <= M_p(f, r); margin = rhs - lhs should only
    dip below zero by the quadrature tolerance.  M_p comes from ``means_on_grid``.
    """
    if params.p == P_INF or not 1 < params.p <= 2:
        raise ValueError(f"Hausdorff-Young needs 1 < p <= 2, got p={params.p}")
    radii = [mpf(r) for r in radii]
    if not all(r > 0 for r in radii):
        raise ValueError(f"r must be > 0, got {next(r for r in radii if not r > 0)}")
    q = params.q
    prec, rnd = mp.prec, round_nearest
    mags = [(n, mpc_abs(c._mpc_, prec, rnd)) for n, c in f.items()]
    # the terms (|c_n| r^n)^q, rounded as the mpf operators round them
    lhs = [mpmath.fsum(mp.make_mpf(mpf_pow(mpf_mul(a, mpf_pow_int(r._mpf_, n, prec, rnd), prec,
                                                   rnd), q._mpf_, prec, rnd))
                       for n, a in mags) ** (1 / q) if mags else mpf(0)
           for r in radii]
    return [HausdorffYoungResult(x, m.value, m.value - x)
            for x, m in zip(lhs, means_on_grid(f, radii, params))]
