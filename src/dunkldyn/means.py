"""Integral means M_p(f, r) on circles and the Hausdorff-Young comparison.

Routes by exponent:

* p = 2 goes through the Parseval closed form, summed at working precision.
  This is the anchor the quadrature route is tested against.
* p = infinity samples |f| on a uniform circle grid and sharpens the best
  sample with a golden-section pass around it.
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
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _scaled_circle(f: TruncatedSeries, r, m: int):
    """(shift, samples) with samples[j] = f(r e^{2 pi i j / m}) * e^{-shift}.

    shift is an exact mpf; samples are float64 complex with relative accuracy
    near machine epsilon for the dominant terms.
    """
    ln_r = mpmath.ln(r)
    logs = []
    for n, c in f.items():
        logs.append((n, c, mpmath.ln(abs(c)) + n * ln_r))
    shift = max(lv for _, _, lv in logs)
    coeffs = np.zeros(m, dtype=np.complex128)
    for n, c, lv in logs:
        rel = float(lv - shift)
        if rel < _UNDERFLOW_LOG:
            continue
        phase = complex(c / abs(c))
        coeffs[n] = math.exp(rel) * phase
    samples = np.fft.ifft(coeffs) * m
    return shift, samples


def _poly_abs_at_angle(coeffs: np.ndarray, theta: float) -> float:
    u = complex(math.cos(theta), math.sin(theta))
    powers = u ** np.arange(len(coeffs))
    return abs(np.dot(coeffs, powers))


def _refine_max(coeffs: np.ndarray, theta0: float, half_width: float) -> float:
    """Golden-section maximization of |f| over [theta0 - hw, theta0 + hw]."""
    a = theta0 - half_width
    b = theta0 + half_width
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _poly_abs_at_angle(coeffs, x1)
    f2 = _poly_abs_at_angle(coeffs, x2)
    for _ in range(48):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _poly_abs_at_angle(coeffs, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _poly_abs_at_angle(coeffs, x1)
    return max(f1, f2)


def _parseval_m2(f: TruncatedSeries, r) -> mpf:
    terms = [abs(c) ** 2 * mpf(r) ** (2 * n) for n, c in f.items()]
    return mpmath.sqrt(mpmath.fsum(terms))


def _quadrature_mean(f: TruncatedSeries, r, p, m: int) -> MeanResult:
    """Trapezoid value of M_p on m points with the m-vs-m/2 discrepancy."""
    shift, samples = _scaled_circle(f, r, m)
    mags = np.abs(samples)
    top = float(np.max(mags))
    mags /= top  # keeps mags**p in [0, 1] however large p is
    p_f = float(p)
    fine = top * float(np.mean(mags**p_f) ** (1.0 / p_f))
    coarse = top * float(np.mean(mags[::2] ** p_f) ** (1.0 / p_f))
    scale = mpmath.exp(shift)
    return MeanResult(mpf(fine) * scale, abs(mpf(fine - coarse)) * scale)


def _max_mean(f: TruncatedSeries, r, m: int) -> MeanResult:
    shift, samples = _scaled_circle(f, r, m)
    mags = np.abs(samples)
    j = int(np.argmax(mags))
    coarse_half = float(np.max(mags[::2]))
    deg = f.degree()
    coeffs = np.zeros(deg + 1, dtype=np.complex128)
    ln_r = mpmath.ln(r)
    for n, c in f.items():
        rel = float(mpmath.ln(abs(c)) + n * ln_r - shift)
        if rel >= _UNDERFLOW_LOG:
            coeffs[n] = math.exp(rel) * complex(c / abs(c))
    refined = _refine_max(coeffs, 2.0 * math.pi * j / m, 2.0 * math.pi / m)
    best = max(refined, float(mags[j]))
    scale = mpmath.exp(shift)
    err = (abs(mpf(best - float(mags[j]))) + abs(mpf(best - coarse_half))) * scale
    return MeanResult(mpf(best) * scale, err)


def mean_p(f: TruncatedSeries, r, params: MeanParams) -> MeanResult:
    """M_p(f, r) together with a quadrature discrepancy estimate."""
    r = mpf(r)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if f.degree() <= 0 or r == 0:
        return MeanResult(abs(f.coeff(0)), mpf(0))
    if params.p == 2:
        return MeanResult(_parseval_m2(f, r), mpf(0))
    m = params.points_for(f)
    if params.p == P_INF:
        return _max_mean(f, r, m)
    return _quadrature_mean(f, r, params.p, m)


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
