"""Integral means M_p(f, r) on circles and the Hausdorff-Young comparison.

Routes by exponent:

* p = 2 goes through the Parseval closed form, summed at working precision.
  This is the anchor the quadrature route is tested against.
* p = infinity samples |f| on a uniform circle grid and sharpens the three
  highest local maxima of the samples with a golden-section pass each.
* other p use trapezoidal quadrature of |f|^p on the same grid.  For a smooth
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

``circle_max`` reads the same samples for the orbit verifier: the sampled
maximum of |f| on one circle, with no refine.

Every mean goes through ``means_on_grid``, which builds one table per
call and then evaluates each radius of the grid from it; ``mean_p`` is its
one-radius case.  Nothing outlives the call.  At each radius a float64 pass
over ln|c_n| + n ln r picks the terms within the 700-nat window plus a
1-nat margin, which dwarfs the ~1e-11 rounding of that pass.  The sampled
routes then form each candidate's exponent relative to the top term in
double-double arithmetic (``_CircleTable.terms``); only the shift is an mpf
operation.  Their samples agree with a working-precision evaluation of
every coefficient to within 1e-14 of the largest sample, where plain
float64 exponents miss by up to ~2e-12 on degree-4000 series.  The scaled
terms of a block of radii fill the rows of one array of about
_BLOCK_ELEMENTS = 2^17 complex values (2 MB, and as much again for the
transform's output), and one inverse FFT along the rows serves the block.
Parseval likewise drops terms more than (precision + 64) bits below the
top term.  The p = infinity refine evaluates only the terms that survive
the window, rotated to a peak's angle through the exact residue (j n)
mod m, so its phases stay accurate to float64 at any degree.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np
from mpmath import mp, mpf

from .series import TruncatedSeries

P_INF = mpmath.inf

_CONJUGACY_TOL = mpf("1e-12")
_UNDERFLOW_LOG = -700.0  # scaled log below which a float64 term is pure noise
_WINDOW_MARGIN = 1.0  # nats added to a float64 window; its rounding is ~1e-11
_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SPLIT = 2.0**27 + 1.0  # Veltkamp splitter: a float64 into two 26-bit halves
_BLOCK_ELEMENTS = 1 << 17  # complex values per batched inverse FFT (2 MB)
_REFINED_PEAKS = 3  # local maxima of the p = inf samples that get a refine


def conjugate_exponent(p):
    """q with 1/p + 1/q = 1, under the conventions q(1) = inf, q(inf) = 1."""
    if p == P_INF:
        return mpf(1)
    p = mpf(p)
    if p == 1:
        return P_INF
    return p / (p - 1)


class MeanParams:
    """Exponent pair (p, q) and the circle sample count for quadrature."""

    __slots__ = ("p", "q", "quad_points")

    def __init__(self, p, q=None, quad_points=None):
        p = P_INF if p == P_INF else mpf(p)
        if p != P_INF and not p >= 1:
            raise ValueError(f"p must lie in [1, inf], got {p}")
        self.p = p
        if q is None:
            self.q = conjugate_exponent(p)
        else:
            q = P_INF if q == P_INF else mpf(q)
            inv_p = mpf(0) if p == P_INF else 1 / p
            inv_q = mpf(0) if q == P_INF else 1 / q
            if abs(inv_p + inv_q - 1) > _CONJUGACY_TOL:
                raise ValueError(f"exponents not conjugate: p={p}, q={q}")
            self.q = q
        if quad_points is not None:
            quad_points = int(quad_points)
            if quad_points < 16:
                raise ValueError(f"quad_points must be >= 16, got {quad_points}")
        self.quad_points = quad_points

    def points_for(self, f: TruncatedSeries) -> int:
        """Effective sample count; at least eight points per coefficient degree."""
        d = max(f.degree(), 1)
        if self.quad_points is None:
            m = max(4096, 8 * d)
        else:
            m = self.quad_points
            if m < 8 * d:
                raise ValueError(
                    f"quad_points={m} too small for degree {d}: need >= {8 * d}"
                )
        return m + (m % 2)

    def __repr__(self) -> str:
        return f"MeanParams(p={self.p}, q={self.q}, quad_points={self.quad_points})"


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


class _CircleTable:
    """Per-coefficient data of one series, shared by every radius of a call.

    n lists the nonzero degrees as ints for mpf arithmetic and degrees as an
    int64 array; log_abs_f holds ln|c_n| rounded to float64, which selects
    candidate terms.  The Parseval route also keeps |c_n|^2; the sampling
    routes keep ln|c_n| at working precision, its float64 remainder
    log_abs_lo (so log_abs_f + log_abs_lo is a double-double) and the unit
    phase c_n/|c_n| in complex128.
    """

    __slots__ = ("n", "degrees", "log_abs_f", "abs2", "log_abs", "log_abs_lo", "phase")

    def __init__(self, f: TruncatedSeries, parseval: bool):
        items = list(f.items())
        mags = [abs(c) for _, c in items]
        self.n = [n for n, _ in items]
        self.degrees = np.array(self.n, dtype=np.int64)
        if parseval:
            self.log_abs_f = np.array([_float_ln(a) for a in mags])
            self.abs2 = [a**2 for a in mags]
        else:
            self.log_abs = [mpmath.ln(a) for a in mags]
            self.log_abs_f = np.array([float(v) for v in self.log_abs])
            self.log_abs_lo = np.array([float(v - h)
                                        for v, h in zip(self.log_abs, self.log_abs_f)])
            self.phase = np.array([complex(c / a) for (_, c), a in zip(items, mags)])

    def window(self, ln_r: float, width: float):
        """(indices, top): the terms within width nats of the largest |c_n| r^n, and that term."""
        approx = self.log_abs_f + self.degrees * ln_r
        top = int(np.argmax(approx))
        return np.flatnonzero(approx >= approx[top] - width), top

    def parseval(self, r: mpf) -> mpf:
        """M_2 = (sum |c_n|^2 r^(2n))^(1/2), without terms below the working precision."""
        width = (mp.prec + 64) * _LN2 / 2 + _WINDOW_MARGIN
        idx, _ = self.window(_float_ln(r), width)
        return mpmath.sqrt(mpmath.fsum(self.abs2[i] * r ** (2 * self.n[i]) for i in idx))

    def terms(self, r: mpf):
        """(shift, (degrees, scaled)): the terms c_n r^n e^{-shift} of the 700-nat window.

        shift = ln|c_top| + n_top ln r in mpf for the largest term of the
        float64 pass.  Each other exponent is (ln|c_n| - ln|c_top|) +
        (n - n_top) ln r, summed exactly by two-sum from the (hi, lo) logs and
        from ln r split into two 26-bit halves, whose products with an integer
        below 2^26 are exact, plus its float64 remainder; it is then within an
        ulp of the exact value.  A term the float64 pass misordered against
        c_top, within ~1e-11 nats, gets an exponent just above 0.
        """
        ln_r = mpmath.ln(r)
        l_hi = float(ln_r)
        l_lo = float(ln_r - l_hi)
        c = _SPLIT * l_hi
        l_1 = c - (c - l_hi)
        l_2 = l_hi - l_1
        idx, top = self.window(l_hi, _WINDOW_MARGIN - _UNDERFLOW_LOG)
        k = (self.degrees[idx] - self.degrees[top]).astype(np.float64)
        s, e_a = _two_sum(self.log_abs_f[idx], -self.log_abs_f[top])
        s, e_1 = _two_sum(s, k * l_1)
        s, e_2 = _two_sum(s, k * l_2)
        rel = s + (e_a + e_1 + e_2 + (self.log_abs_lo[idx] - self.log_abs_lo[top]) + k * l_lo)
        shift = self.log_abs[top] + self.n[top] * ln_r
        keep = rel >= _UNDERFLOW_LOG
        sel = idx[keep]
        return shift, (self.degrees[sel], np.exp(rel[keep]) * self.phase[sel])

    def scaled_circle(self, r: mpf, m: int):
        """(shift, samples, band) with samples[j] = f(r e^{2 pi i j / m}) e^{-shift}.

        shift and band = (degrees, scaled coefficients) come from ``terms``;
        band lists the surviving terms, the only ones the p = inf refine
        evaluates.  samples are float64 complex and agree with evaluating
        every coefficient at working precision to within 1e-14 of the
        largest sample.  This is the one-radius case of the row batches of
        ``means_on_grid``.
        """
        shift, band = self.terms(r)
        return shift, _circle_rows([band], m)[0], band


def _circle_rows(bands, m: int) -> np.ndarray:
    """samples[i, j] = sum_n scaled_n e^{2 pi i j n / m} for the i-th (degrees, scaled).

    Degrees are folded mod m, so any m >= 1 is sampled exactly; for m above
    the degree the fold is a plain placement.  One inverse FFT along the rows.
    """
    coeffs = np.zeros((len(bands), m), dtype=np.complex128)
    for row, (degrees, scaled) in zip(coeffs, bands):
        np.add.at(row, degrees % m, scaled)  # e^{2 pi i j n / m} depends on n mod m
    return np.fft.ifft(coeffs, axis=-1, norm="forward")


def _refine_max(degrees: np.ndarray, coeffs: np.ndarray, half_width: float) -> float:
    """Golden-section maximization of |sum_n coeffs_n e^{i n t}| over |t| <= half_width."""

    def value(t: float) -> float:
        return abs(np.dot(coeffs, np.exp(1j * t * degrees)))

    a, b = -half_width, half_width
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = value(x1)
    f2 = value(x2)
    for _ in range(48):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = value(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = value(x1)
    return max(f1, f2)


def _quadrature_mean(shift: mpf, samples: np.ndarray, p) -> MeanResult:
    """Trapezoid value of M_p on the samples with the m-vs-m/2 discrepancy."""
    mags = np.abs(samples)
    top = float(np.max(mags))
    mags /= top  # keeps mags**p in [0, 1] however large p is
    p_f = float(p)
    fine = top * float(np.mean(mags**p_f) ** (1.0 / p_f))
    coarse = top * float(np.mean(mags[::2] ** p_f) ** (1.0 / p_f))
    scale = mpmath.exp(shift)
    return MeanResult(mpf(fine) * scale, abs(mpf(fine - coarse)) * scale)


def _max_mean(shift: mpf, samples: np.ndarray, band) -> MeanResult:
    """Largest sample sharpened by a golden-section pass at each of the highest peaks.

    The _REFINED_PEAKS highest cyclic local maxima of |samples| are refined,
    highest first, over their two cells, so a nearly tied peak cannot hide
    the global maximum.  A peak is skipped when |f|, which moves at most
    sum_n |n - n_top| |scaled_n| per radian, cannot pass the best value
    within 2 pi / m of it.  The band's terms are rotated to the peak's angle
    2 pi j / m through the exact residue (j n) mod m, so the refine only
    forms e^{i n t} for |t| <= 2 pi / m and its phases keep full float64
    accuracy at any degree.
    """
    m = len(samples)
    mags = np.abs(samples)
    top = float(np.max(mags))
    coarse_half = float(np.max(mags[::2]))
    peaks = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)))
    if len(peaks) > _REFINED_PEAKS:
        peaks = peaks[np.argpartition(mags[peaks], -_REFINED_PEAKS)[-_REFINED_PEAKS:]]
    peaks = peaks[np.argsort(-mags[peaks], kind="stable")]
    degrees, scaled = band
    half_width = 2.0 * math.pi / m
    size = np.abs(scaled)
    climb = half_width * float(np.dot(np.abs(degrees - degrees[np.argmax(size)]), size))
    best = top
    for j in peaks:
        if mags[j] + climb > best:
            rotated = scaled * np.exp(2j * np.pi * ((int(j) * degrees) % m) / m)
            best = max(best, _refine_max(degrees, rotated, half_width))
    scale = mpmath.exp(shift)
    err = (abs(mpf(best - top)) + abs(mpf(best - coarse_half))) * scale
    return MeanResult(mpf(best) * scale, err)


def means_on_grid(f: TruncatedSeries, radii, params: MeanParams) -> list[MeanResult]:
    """M_p(f, r) with its quadrature discrepancy at every radius of the grid.

    The coefficient table is built once per call and read at each radius;
    nothing is cached beyond the call.  The sampled routes run one inverse
    FFT per block of radii, about _BLOCK_ELEMENTS samples per block; a
    row's samples do not depend on the block it shares.
    """
    radii = [mpf(r) for r in radii]
    for r in radii:
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
    constant = MeanResult(abs(f.coeff(0)), mpf(0))
    if f.degree() <= 0 or not any(radii):
        return [constant] * len(radii)
    parseval = params.p == 2
    table = _CircleTable(f, parseval)
    if parseval:
        return [MeanResult(table.parseval(r), mpf(0)) if r else constant for r in radii]
    m = params.points_for(f)
    out = [constant] * len(radii)
    live = [i for i, r in enumerate(radii) if r]
    per_block = max(1, _BLOCK_ELEMENTS // m)
    for start in range(0, len(live), per_block):
        block = live[start:start + per_block]
        terms = [table.terms(radii[i]) for i in block]
        samples = _circle_rows([band for _, band in terms], m)
        for i, (shift, band), row in zip(block, terms, samples):
            if params.p == P_INF:
                out[i] = _max_mean(shift, row, band)
            else:
                out[i] = _quadrature_mean(shift, row, params.p)
    return out


def mean_p(f: TruncatedSeries, r, params: MeanParams) -> MeanResult:
    """M_p(f, r) together with a quadrature discrepancy estimate."""
    return means_on_grid(f, [r], params)[0]


def circle_max(f: TruncatedSeries, r, m: int) -> mpf:
    """max_j |f(r e^{2 pi i j / m})| over m circle samples, with no refine.

    The samples come from the same scaled float64 FFT as the sampled means,
    with degrees folded mod m, so m may lie below the degree.  The result is
    e^shift times the float64 sampled maximum.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = mpf(r)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if f.is_zero():
        return mpf(0)
    if r == 0:
        return abs(f.coeff(0))
    shift, samples, _ = _CircleTable(f, parseval=False).scaled_circle(r, m)
    return mpmath.exp(shift) * float(np.max(np.abs(samples)))


def hausdorff_young_check(f: TruncatedSeries, r, params: MeanParams) -> HausdorffYoungResult:
    """l^q norm of the circle Fourier coefficients against M_p, 1 < p <= 2.

    F(t) = f(r e^{it}) has Fourier coefficients c_n r^n, so the inequality
    reads (sum |c_n r^n|^q)^{1/q} <= M_p(f, r); margin = rhs - lhs should only
    dip below zero by the quadrature tolerance.
    """
    if params.p == P_INF or not 1 < params.p <= 2:
        raise ValueError(f"Hausdorff-Young needs 1 < p <= 2, got p={params.p}")
    r = mpf(r)
    if not r > 0:
        raise ValueError(f"r must be > 0, got {r}")
    q = params.q
    terms = [(abs(c) * r**n) ** q for n, c in f.items()]
    lhs = mpmath.fsum(terms) ** (1 / q) if terms else mpf(0)
    rhs = mean_p(f, r, params).value
    return HausdorffYoungResult(lhs, rhs, rhs - lhs)
