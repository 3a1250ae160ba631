"""Dunkl weights d_n(alpha) and the induced operator actions on series.

The operator acts on entire functions as Lf(z) = f'(z) + (2a+1)(f(z)-f(-z))/(2z)
with parameter a > -1/2.  On coefficients it is the weighted backward shift
with ratio weights

    a_n = d_n/d_{n-1} = n            (n even)
          n + 2 alpha + 1            (n odd)

so L^k z^n = (d_n / d_{n-k}) z^{n-k}, with d_n = 0 understood for n < 0: powers
below the step are annihilated outright (strictly n > k survives to positive
degree; n == k maps to the constant d_n).

Two independent routes to the action are kept deliberately: ``apply_dunkl``
goes through the d_n table, ``apply_dunkl_direct`` recomputes each coefficient
from the defining formula without touching the table.
"""

from __future__ import annotations

import functools
import inspect
import math

import mpmath
import numpy as np
from mpmath import mp, mpf, mpc
from mpmath.libmp import (fone, from_int, mpc_mul_mpf, mpf_add, mpf_exp, mpf_log, mpf_shift,
                          mpf_sub, round_nearest)

from .series import TruncatedSeries

ALPHA_BOUNDARY_GAP = 1e-12


def _check_alpha(alpha) -> mpf:
    alpha = mpf(alpha)
    if not alpha > mpf(-0.5) + mpf(ALPHA_BOUNDARY_GAP):
        raise ValueError(
            f"alpha must exceed -1/2 + {ALPHA_BOUNDARY_GAP} (got {mpmath.nstr(alpha, 17)})"
        )
    return alpha


def _at_table_precision(fn):
    """Run fn under mp.workprec(w.precision_bits), w being its weight table argument or self.

    The context is skipped when the precision already matches, as it does
    for every call the CLI and the builders make.
    """
    at = next(i for i, name in enumerate(inspect.signature(fn).parameters) if name in ("w", "self"))

    @functools.wraps(fn)
    def call(*args, **kwargs):
        bits = (args[at] if len(args) > at else kwargs["w"]).precision_bits
        if bits == mp.prec:
            return fn(*args, **kwargs)
        with mp.workprec(bits):
            return fn(*args, **kwargs)

    return call


def _gamma_form(alpha: mpf, n: int) -> mpf:
    """``DunklWeights.gamma_form_log_weight`` at the ambient precision."""
    return (n * mpmath.ln(mpf(2)) + mpmath.loggamma(mpf(n // 2) + 1)
            + mpmath.loggamma(mpf((n + 1) // 2) + alpha + 1) - mpmath.loggamma(alpha + 1))


class DunklWeights:
    """Table of ln d_n(alpha) for n = 0..n_max, built by the ratio recurrence.

    Entries fill on first read, in index order up to the index read, at the
    precision ambient when the table was made (``precision_bits``): each equals
    the eager recurrence's value bit for bit, whatever the precision at the
    read.  One ln is taken per distinct ratio; at integer alpha, a_n for odd n
    is a_(n+2alpha+1), so about half as many logarithms are taken.  The
    logarithms are memoised by value (``_log``), which ``growth.lemma1_ratio``
    shares: at integer alpha its x = n + alpha + 1 is often a ratio already met.

    The table fixes the precision of the work done with it: its methods and
    every public function that takes it as ``w`` run at ``w.precision_bits``,
    whatever the caller's ambient precision, and leave that precision as found.

    Three routes give ln d_n, each with its own role:

    * the mpf ratio recurrence (``log_weight``) gives every value the package
      writes or computes with at working precision;
    * the mpf closed Gamma form (``gamma_form_log_weight``) is its independent
      oracle, within a few ulps, and starts Lemma 3's walks from a peak;
    * the float64 closed Gamma form (``float_log_weights``) is the input of
      the float64 kernels, the builders' weighted-norm kernel above all.  It
      never touches the mpf table, so a builder fills that table only as far
      as its mpf work reads it.
    """

    __slots__ = ("alpha", "n_max", "_log_d", "_ln", "_odd_shift", "precision_bits")

    def __init__(self, alpha, n_max: int):
        self.alpha = _check_alpha(alpha)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = int(n_max)
        self.precision_bits = mp.prec
        self._odd_shift = mpf_add(mpf_shift(self.alpha._mpf_, 1), fone, mp.prec, round_nearest)
        self._log_d = [mpf(0)]  # d_0 = 1; later entries fill on first read
        self._ln = {}  # ln a for each raw tuple a met so far (``_log``)

    def _raw_ratio(self, n: int) -> tuple:
        """a_n = n (n even), n + 2 alpha + 1 (n odd), at the table's precision."""
        a = from_int(n, self.precision_bits, round_nearest)
        return a if n % 2 == 0 else mpf_add(a, self._odd_shift, self.precision_bits, round_nearest)

    def _log(self, a: tuple) -> tuple:
        """ln a for a raw tuple a, at the table's precision; one ``mpf_log`` per distinct a."""
        ln_a = self._ln.get(a)
        if ln_a is None:
            ln_a = self._ln[a] = mpf_log(a, self.precision_bits, round_nearest)
        return ln_a

    def _fill(self, n: int) -> None:
        """Extend ln d_k through k = n: ln d_k = ln d_(k-1) + ln a_k."""
        prec, log_d = self.precision_bits, self._log_d
        acc = log_d[-1]._mpf_
        for k in range(len(log_d), n + 1):
            acc = mpf_add(acc, self._log(self._raw_ratio(k)), prec, round_nearest)
            log_d.append(mp.make_mpf(acc))

    def log_weight(self, n: int) -> mpf:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"weight index {n} outside [0, {self.n_max}]")
        if n >= len(self._log_d):
            self._fill(n)
        return self._log_d[n]

    def weight(self, n: int) -> mpf:
        """d_n = exp(ln d_n) at the table's precision; identically zero for n < 0."""
        if n < 0:
            return mpf(0)
        return mp.make_mpf(mpf_exp(self.log_weight(n)._mpf_, self.precision_bits, round_nearest))

    @_at_table_precision
    def gamma_form_log_weight(self, n: int) -> mpf:
        """Closed form ln d_n = n ln2 + ln G(floor(n/2)+1) + ln G(floor((n+1)/2)+alpha+1) - ln G(alpha+1)."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"weight index {n} outside [0, {self.n_max}]")
        return _gamma_form(self.alpha, n)

    def float_log_weights(self, n: int) -> np.ndarray:
        """ln d_k for k = 0..n as float64, from the closed Gamma form.

        k ln 2 + lgamma(floor(k/2)+1) + lgamma(floor((k+1)/2)+alpha+1) - lgamma(alpha+1),
        with one ``math.lgamma`` per half-index gathered by index; entry 0 is
        exactly 0.  It does not read the mpf table and does not depend on
        mp.prec.  Against float(log_weight(k)) it is within 3.2 units of
        2^-52 max(1, |ln d_k|): 7.3e-12 absolute up to k = 4096, 2.9e-11 up
        to 16384.
        """
        if not 0 <= n <= self.n_max:
            raise IndexError(f"weight index {n} outside [0, {self.n_max}]")
        alpha = float(self.alpha)
        lg_alpha = math.lgamma(alpha + 1)
        even = np.array([math.lgamma(j + 1) for j in range(n // 2 + 1)])
        odd = np.array([math.lgamma(j + alpha + 1) - lg_alpha for j in range((n + 1) // 2 + 1)])
        k = np.arange(n + 1)
        return k * math.log(2.0) + even[k // 2] + odd[(k + 1) // 2]

    def __repr__(self) -> str:
        return f"DunklWeights(alpha={mpmath.nstr(self.alpha, 12)}, n_max={self.n_max})"


def _require_table(w: DunklWeights, top: int) -> None:
    """The table must reach d_top."""
    if top > w.n_max:
        raise ValueError(f"weight table too short: need d_{top}, table ends at {w.n_max}")


def _shift(f: TruncatedSeries, w: DunklWeights, offset: int) -> TruncatedSeries:
    """c_i d_i / d_j at degree j = i + offset, dropping j < 0: the loop of ``apply_dunkl``
    (offset -k) and ``right_inverse`` (+n), rounded as the mpf and mpc operators round it."""
    prec, log_weight = w.precision_bits, w.log_weight
    table: dict[int, mpc] = {}
    for i, c in f.items():
        j = i + offset
        if j < 0:
            continue
        factor = mpf_exp(mpf_sub(log_weight(i)._mpf_, log_weight(j)._mpf_, prec, round_nearest),
                         prec, round_nearest)
        table[j] = mp.make_mpc(mpc_mul_mpf(c._mpc_, factor, prec, round_nearest))
    return TruncatedSeries(table, f.trunc_degree)


@_at_table_precision
def apply_dunkl(f: TruncatedSeries, w: DunklWeights, k: int = 1) -> TruncatedSeries:
    """L^k f via the weight table: c_{n+k} d_{n+k}/d_n lands at degree n; powers below k vanish."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return f
    _require_table(w, f.degree())
    return _shift(f, w, -k)


@_at_table_precision
def apply_dunkl_direct(f: TruncatedSeries, w: DunklWeights, k: int = 1) -> TruncatedSeries:
    """L^k f from the defining coefficient formula, independent of the d_n table.

    One step sends c to c' with c'_n = (n+1) c_{n+1} + (2 alpha + 1) c_{n+1}
    when n+1 is odd; iterating k times gives the oracle for L^k.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    two_alpha_plus_1 = 2 * w.alpha + 1
    out = f
    for _ in range(k):
        table: dict[int, mpc] = {}
        for i, c in out.items():
            if i < 1:
                continue
            factor = mpf(i) if i % 2 == 0 else mpf(i) + two_alpha_plus_1
            table[i - 1] = c * factor
        out = TruncatedSeries(table, f.trunc_degree)
    return out


@_at_table_precision
def right_inverse(f: TruncatedSeries, w: DunklWeights, n: int = 1) -> TruncatedSeries:
    """S^n f with S z^k = (d_k / d_{k+1}) z^{k+1}; L^n S^n = identity.

    Raises if the shifted support would spill past the truncation order.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return f
    d = f.degree()
    if d + n > f.trunc_degree:
        raise ValueError(
            f"right inverse overflow: degree {d} + shift {n} exceeds trunc_degree {f.trunc_degree}"
        )
    _require_table(w, d + n if d >= 0 else 0)
    return _shift(f, w, n)
