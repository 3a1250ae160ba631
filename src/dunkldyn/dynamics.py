"""Orbit diagnostics at the origin and the growth-obstruction checker.

The orbit of f under the operator, evaluated at 0, is v_n = c_n d_n: applying
the operator n times brings coefficient n down to the constant term with the
weight ratio d_n/d_0.  That identity makes orbit values computable from the
weight table without ever forming the iterates.

The obstruction checker measures C_star = sup_r M_1(f, r) r^{alpha+1}/e^r and
tests the unconditional chain |v_n| <= C_star d_n e^x / x^x at x = n+alpha+1:
the Fourier coefficient bound |c_n| r^n <= M_1(f, r) optimized at r = x gives
exactly this, so the inequality must hold for every f once the radius grid
contains the optimizing points.  For a function whose growth keeps filling
the envelope as r grows, the windowed C_star over an extended grid keeps
increasing, which is the finite-horizon shadow of the fact that no single
finite C can work.

M_1 is sampled only where the maximum can lie: a radius whose upper bound on
ln M_1 (``m1_log_bounds``) plus (alpha+1) ln r - r is _PRUNE_MARGIN below its
window's best lower bound is skipped.  Rows do not depend on their block, so
C_star and its first maximizing radius match the exhaustive sweep bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import mp, mpf

from .dunkl import DunklWeights, _at_table_precision, _require_table, apply_dunkl_direct
from .growth import lemma1_ratio
from .means import MeanParams, m1_log_bounds, means_on_grid
from .series import TruncatedSeries

_PRUNE_MARGIN = 1e-6  # nats; the bounds' float64 rounding is ~1e-11 nats and M_1's ~1e-10


@dataclass(frozen=True)
class OrbitReport:
    values: tuple  # mpf v_n, n = 0..N
    sup_index: int  # smallest n attaining max |v_n|
    bounded: bool  # no new running supremum in the last quarter of the horizon

    def orbit_sup(self) -> mpf:
        return abs(self.values[self.sup_index])


@_at_table_precision
def orbit_at_zero(f: TruncatedSeries, w: DunklWeights, N: int) -> OrbitReport:
    """v_n for n = 0..N via the coefficient identity v_n = c_n d_n.

    The table must reach d_N.  The first values (n <= 64) are recomputed
    through the operator route: the part of f up to degree 64 is stepped
    with ``apply_dunkl_direct``, whose factors n and n + 2 alpha + 1 never
    touch the d_n table, and the constant coefficient is read after each
    step.  A mismatch beyond rounding means the weight table and the
    operator disagree and raises RuntimeError.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > f.trunc_degree:
        raise ValueError(f"N={N} exceeds trunc_degree {f.trunc_degree}")
    _require_table(w, N)
    # complex coefficients are reported by modulus; d_n is read only where c_n != 0
    values = [mpf(0)] * (N + 1)
    for n, c in f.items():
        if n > N:
            break
        values[n] = (mpmath.re(c) if mpmath.im(c) == 0 else abs(c)) * w.weight(n)

    tol = mpf(2) ** (32 - mp.prec)
    top = min(N, 64)
    iterate = TruncatedSeries({n: c for n, c in f.items() if n <= top}, f.trunc_degree)
    for n in range(top + 1):
        if n:
            iterate = apply_dunkl_direct(iterate, w, 1)
        direct = iterate.coeff(0)
        expected = abs(values[n])
        if expected == 0:
            ok = direct == 0 or abs(direct) <= tol
        else:
            ok = abs(abs(direct) - expected) <= expected * tol
        if not ok:
            raise RuntimeError(
                f"orbit cross-check failed at n={n}: coefficient identity "
                f"{values[n]} vs operator route {direct}"
            )

    # a strict increase smaller than the arithmetic noise is a tie, not a
    # new supremum; without the guard a constant orbit's sup index wanders.
    # The guard is ln|v| > ln(running) + 2^(20-prec).
    tie = mpmath.exp(mpf(2) ** (20 - mp.prec))
    sup_index = 0
    running = abs(values[0])
    last_new_sup = 0
    for n in range(1, N + 1):
        v = abs(values[n])
        if v > running * tie:
            running = v
            sup_index = n
            last_new_sup = n
    bounded = last_new_sup <= (3 * N) // 4
    return OrbitReport(tuple(values), sup_index, bounded)


@dataclass(frozen=True)
class Thm3bReport:
    c_star: mpf
    orbit_sup: mpf
    consistent: bool
    n_checked: int
    r_peak: mpf  # radius where C_star was attained


def _radius_key(r) -> tuple:
    """Sort key of an mpf radius: rounding to float64 is monotone, so the
    exact mpf comparison runs only on float ties and the order is sorted()'s."""
    return float(r), r


def _augmented_radii(r_grid, alpha, N: int) -> list:
    """Sorted grid plus every optimizing radius n + alpha + 1, n <= N."""
    radii = sorted({mpf(r) for r in r_grid} | {n + alpha + 1 for n in range(N + 1)},
                   key=_radius_key)
    if not radii or radii[0] <= 0:
        raise ValueError("radius grid must be positive")
    return radii


def _window_peaks(f: TruncatedSeries, alpha, windows) -> list:
    """(C, r) per window of sorted radii: the first maximum of M_1(f, r) r^(alpha+1) / e^r."""
    kept = windows  # a constant series costs means_on_grid no sampling
    if f.degree() > 0:
        radii = sorted(set().union(*windows), key=_radius_key)
        lower, upper = m1_log_bounds(f, radii)
        ln_r = np.log([float(r) for r in radii])
        shift = float(alpha + 1) * ln_r - np.array([float(r) for r in radii])
        # a few ulps of each sum's largest summand
        err = 1e-15 * (np.abs(lower) + f.degree() * np.abs(ln_r) + np.abs(shift))
        bounds = dict(zip(radii, zip(lower + shift - err, upper + shift + err)))
        kept = []
        for window in windows:
            best = max(bounds[r][0] for r in window) - _PRUNE_MARGIN
            kept.append([r for r in window if bounds[r][1] >= best])
    sweep = sorted(set().union(*kept), key=_radius_key)
    results = means_on_grid(f, sweep, MeanParams(1))
    terms = {r: res.value * r ** (alpha + 1) / mpmath.exp(r) for r, res in zip(sweep, results)}
    return [(terms[r], r) for r in (max(rs, key=terms.__getitem__) for rs in kept)]


@_at_table_precision
def thm3b_bound_check(
    f: TruncatedSeries, w: DunklWeights, r_grid, N: int
) -> Thm3bReport:
    """C_star over the grid plus the per-n unconditional inequality.

    The given grid is augmented with every optimizing radius n + alpha + 1
    for n <= N, so C_star >= |c_n| x^x / e^x holds by the coefficient bound
    and consistency |v_n| <= C_star * d_n e^x / x^x for all n <= N is a
    theorem; reporting it as a boolean keeps the implementation falsifiable.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > f.trunc_degree:
        raise ValueError(f"N={N} exceeds trunc_degree {f.trunc_degree}")
    [(c_star, r_peak)] = _window_peaks(f, w.alpha, [_augmented_radii(r_grid, w.alpha, N)])
    orbit = orbit_at_zero(f, w, N)
    # ln|v_n| <= ln C_star + ln lemma1_ratio + 2^(40-prec)
    margin = mpmath.exp(mpf(2) ** (40 - mp.prec))
    consistent = all(abs(v) <= c_star * lemma1_ratio(n, w) * margin
                     for n, v in enumerate(orbit.values) if v != 0)
    return Thm3bReport(c_star, orbit.orbit_sup(), consistent, N, r_peak)


@_at_table_precision
def windowed_c_star(
    f: TruncatedSeries, w: DunklWeights, r_grid, r_maxes
) -> tuple:
    """C_star measured on the grid capped at each r_max, horizon matched.

    Each window uses the sub-grid r <= r_max and the orbit horizon
    N = floor(r_max - alpha - 1), so the augmented optimizing radii stay
    inside the window and the values are comparable across windows.  One M_1
    sweep serves every window, and each window's maximum equals
    thm3b_bound_check(...).c_star for that window; the operator cross-check
    of orbit_at_zero runs once, at the largest horizon.  For a function that
    keeps filling its growth envelope the sequence must strictly increase; a
    plateau certifies that the horizon saw the whole function.
    """
    windows = []
    N_max = 0
    for r_max in r_maxes:
        r_max = mpf(r_max)
        sub = [r for r in r_grid if mpf(r) <= r_max]
        if not sub:
            raise ValueError(f"no grid points at or below r_max={r_max}")
        N = max(0, int(mpmath.floor(r_max - w.alpha - 1)))
        N = min(N, f.trunc_degree)
        N_max = max(N_max, N)
        windows.append(_augmented_radii(sub, w.alpha, N))
    peaks = _window_peaks(f, w.alpha, windows)
    orbit_at_zero(f, w, N_max)  # operator cross-check; raises on a mismatch
    return tuple(c for c, _ in peaks)
