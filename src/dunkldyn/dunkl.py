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
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, ln2_fixed, mpc_mul_mpf, mpf_add,
                          mpf_exp, mpf_log, mpf_shift, mpf_sub, round_nearest)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, log_taylor_cached
from mpmath.libmp.libmpf import lshift

from .numeric import mirrors_mpmath
from .series import TruncatedSeries

ALPHA_BOUNDARY_GAP = 1e-12
_LOG_LN2_ONLY_MAG = 10000  # above this magnitude mpf_log may take ln a as mag * ln 2


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


def _cut_to_64_bits(t: tuple) -> tuple:
    """A raw tuple whose mantissa has more than 1023 bits, cut to 64 bits with a sticky bit.

    The cut bits are or-ed into the last kept bit, 11 places below the bit
    that decides rounding to 53 bits, so rounding the cut mantissa half to
    even gives what rounding the full one gives.  Narrower tuples come back
    as they are.
    """
    sign, man, exp, bc = t
    if bc <= 1023:
        return t
    drop = bc - 64
    return sign, man >> drop | (man & ((1 << drop) - 1) != 0), exp + drop, 64


class DunklWeights:
    """Table of ln d_n(alpha) for n = 0..n_max, built by the ratio recurrence.

    Entries fill on first read, in index order up to the index read, at the
    precision ambient when the table was made (``precision_bits``): each equals
    the eager recurrence's value bit for bit, whatever the precision at the
    read.  The logarithms are memoised by value (``_log``), and each is formed
    from one Taylor sum per odd mantissa (``_ln_new``): ratios o 2^e that share
    o share the sum, so at integer alpha, whose ratios are all even, about a
    quarter as many sums are taken as there are ratios.  When 2 alpha + 1 is an
    integer, the fill keys the memo by the Python int a_n, so it forms no
    tuple for a ratio it has met.  ``growth.lemma1_ratio`` shares the memo:
    at integer alpha its x = n + alpha + 1 is often a ratio already met.

    Both routes share one accumulation loop (``_fill``): each ln d_k is the
    exact integer sum of the two mantissas, rounded once half to even, the
    value ``mpf_add`` returns.  The table holds normalised raw tuples (odd
    mantissa); ``log_weight`` wraps one in an mpf when it is read, the loops
    that work on tuples read them as they are (``_raw_log_weight``), and
    ``frequency_report`` takes their float64 values (``_float_view``).

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

    __slots__ = ("alpha", "n_max", "_log_d", "_ln", "_taylor", "_odd_shift", "_int_shift",
                 "_int_bound", "precision_bits")

    def __init__(self, alpha, n_max: int):
        self.alpha = _check_alpha(alpha)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = int(n_max)
        self.precision_bits = mp.prec
        self._odd_shift = mpf_add(mpf_shift(self.alpha._mpf_, 1), fone, mp.prec, round_nearest)
        _, man, exp, _ = self._odd_shift
        self._int_shift = man << exp if exp >= 0 else None  # 2 alpha + 1 when it is an integer
        self._int_bound = 1 << mp.prec  # integers below it are exact at the table's precision
        self._log_d = [fzero]  # raw tuples; d_0 = 1, later entries fill on first read
        self._ln = {}  # ln a per value met: the int for an integer below 2^prec, else the tuple
        self._taylor = {}  # mpf_log's fixed-point Taylor sum per odd mantissa (``_ln_new``)

    def _raw_ratio(self, n: int) -> tuple:
        """a_n = n (n even), n + 2 alpha + 1 (n odd), at the table's precision."""
        a = from_int(n, self.precision_bits, round_nearest)
        return a if n % 2 == 0 else mpf_add(a, self._odd_shift, self.precision_bits, round_nearest)

    def _ln_new(self, a: tuple) -> tuple:
        """ln a for a raw tuple a, at the table's precision, equal to ``mpf_log``'s bit for bit.

        For a = o 2^e with o odd of b bits, 2 < a < 2^10000 and wp = prec + 20
        at most LOG_TAYLOR_PREC, mpmath 1.3's ``libelefun.mpf_log`` returns
        ``from_man_exp(log_taylor_cached(lshift(o, wp - b), wp) + (e + b)
        ln2_fixed(wp), -wp, prec)``.  The Taylor sum depends on o alone, so it
        is taken once per odd mantissa and the same integer is rounded here.
        Every other a (1, powers of two, 1 < a < 2, and wp above
        LOG_TAYLOR_PREC), and every a under an mpmath other than
        ``numeric.MIRRORED_MPMATH``, goes to ``mpf_log`` itself.
        """
        sign, man, exp, bc = a
        prec = self.precision_bits
        wp, mag = prec + 20, exp + bc
        if (sign or man <= 1 or not 2 <= mag <= _LOG_LN2_ONLY_MAG or wp > LOG_TAYLOR_PREC
                or not mirrors_mpmath()):
            return mpf_log(a, prec, round_nearest)
        taylor = self._taylor.get(man)
        if taylor is None:
            taylor = self._taylor[man] = log_taylor_cached(lshift(man, wp - bc), wp)
        return from_man_exp(taylor + mag * ln2_fixed(wp), -wp, prec, round_nearest)

    def _log_int(self, m: int) -> tuple:
        """ln m for an int 0 < m < 2^prec, memoised under m."""
        ln_m = self._ln.get(m)
        if ln_m is None:
            zeros = (m & -m).bit_length() - 1
            ln_m = self._ln[m] = self._ln_new((0, m >> zeros, zeros, m.bit_length() - zeros))
        return ln_m

    def _log(self, a: tuple) -> tuple:
        """ln a for a raw tuple a, at the table's precision, memoised by value; an
        integer below 2^prec is keyed by its int, as the fill keys its ratios."""
        sign, man, exp, bc = a
        if man and not sign and exp >= 0 and exp + bc <= self.precision_bits:
            return self._log_int(man << exp)
        ln_a = self._ln.get(a)
        if ln_a is None:
            ln_a = self._ln[a] = self._ln_new(a)
        return ln_a

    def _fill(self, n: int) -> None:
        """Extend ln d_k through k = n: ln d_k = ln d_(k-1) + ln a_k, rounded once to nearest even.

        With 2 alpha + 1 an integer s and n + s < 2^prec, every a_k is the int
        k or k + s exactly, and is looked up as that int; other ratios go
        through ``_raw_ratio`` and ``_log``.  Both operands are positive (a_1 =
        2 alpha + 2 > 1 and a_k >= 2 after it), so the sum is the two mantissas
        added exactly at the lower exponent and rounded half to even at prec:
        the value ``mpf_add`` returns, whose far-offset shortcut only stands in
        a sticky bit for the smaller operand.
        """
        prec, log_d, ln, shift = self.precision_bits, self._log_d, self._ln, self._int_shift
        int_keys = shift is not None and n + shift < self._int_bound
        _, man, exp, _ = log_d[-1]
        for k in range(len(log_d), n + 1):
            if int_keys:
                a = k + shift if k & 1 else k
                _, t_man, t_exp, _ = ln.get(a) or self._log_int(a)
            else:
                _, t_man, t_exp, _ = self._log(self._raw_ratio(k))
            if t_exp < exp:
                man, exp = (man << (exp - t_exp)) + t_man, t_exp
            else:
                man += t_man << (t_exp - exp)
            drop = man.bit_length() - prec
            if drop > 0:
                kept = man >> (drop - 1)  # the kept bits and the first dropped one
                if kept & 1 and (kept & 2 or man & ((1 << (drop - 1)) - 1)):
                    man = (kept >> 1) + 1
                else:
                    man = kept >> 1
                exp += drop
            if not man & 1:
                zeros = (man & -man).bit_length() - 1
                man, exp = man >> zeros, exp + zeros
            log_d.append((0, man, exp, man.bit_length()))

    def _raw_log_weight(self, n: int) -> tuple:
        """ln d_n as the table's raw normalised tuple, for loops that work on tuples."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"weight index {n} outside [0, {self.n_max}]")
        if n >= len(self._log_d):
            self._fill(n)
        return self._log_d[n]

    def _float_view(self, n: int) -> np.ndarray:
        """float(log_weight(k)) for k = 0..n, from one fill and no mpf.

        ``mpf.__float__`` is ``to_float(t, rnd=round_nearest)``: the mantissa
        rounded half to even to 53 bits, then ``math.ldexp``.  ``math.ldexp``
        converts an int mantissa with CPython's int to float conversion, which
        rounds half to even as well, so ``math.ldexp(man, exp)`` is the same
        value wherever the scaling is exact.  It is exact here: every entry is
        0 or at least ln(1 + 2e-12), far above float64's subnormal range, and
        at most a few times 10^5.  Above 1023 bits, where that conversion would
        overflow, ``_cut_to_64_bits`` shortens the mantissa first.
        """
        self._raw_log_weight(n)
        entries = self._log_d[:n + 1]
        if self.precision_bits > 1023:
            entries = map(_cut_to_64_bits, entries)
        ldexp = math.ldexp
        return np.array([ldexp(man, exp) for _, man, exp, _ in entries])

    def log_weight(self, n: int) -> mpf:
        return mp.make_mpf(self._raw_log_weight(n))

    def weight(self, n: int) -> mpf:
        """d_n = exp(ln d_n) at the table's precision; identically zero for n < 0."""
        if n < 0:
            return mpf(0)
        return mp.make_mpf(mpf_exp(self._raw_log_weight(n), self.precision_bits, round_nearest))

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
        exactly 0.  At an integer alpha below n/2, j + alpha + 1 is the exact
        float64 of an even half-index's argument, so the odd half is the even
        table read alpha places on and each lgamma is taken once.  It does not
        read the mpf table and does not depend on mp.prec.  Against
        float(log_weight(k)) it is within 3.2 units of 2^-52 max(1, |ln d_k|):
        7.3e-12 absolute up to k = 4096, 2.9e-11 up to 16384.
        """
        if not 0 <= n <= self.n_max:
            raise IndexError(f"weight index {n} outside [0, {self.n_max}]")
        alpha, half, odd_half = float(self.alpha), n // 2 + 1, (n + 1) // 2 + 1
        if alpha.is_integer() and alpha < half:
            shift = int(alpha)
            lg = np.array([math.lgamma(j + 1) for j in range(max(half, odd_half + shift))])
            even, odd = lg[:half], lg[shift:shift + odd_half] - lg[shift]
        else:
            lg_alpha = math.lgamma(alpha + 1)
            even = np.array([math.lgamma(j + 1) for j in range(half)])
            odd = np.array([math.lgamma(j + alpha + 1) - lg_alpha for j in range(odd_half)])
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
    prec, log_weight = w.precision_bits, w._raw_log_weight
    table: dict[int, mpc] = {}
    for i, c in f.items():
        j = i + offset
        if j < 0:
            continue
        factor = mpf_exp(mpf_sub(log_weight(i), log_weight(j), prec, round_nearest),
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
    when n+1 is odd; iterating k times gives the oracle for L^k.  It runs on
    raw tuples, rounded as the mpf and mpc operators round c * (mpf(i) + (2
    alpha + 1)), and forms each factor once for all k steps.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return f
    prec, rnd = mp.prec, round_nearest
    two_alpha_plus_1 = (2 * w.alpha + 1)._mpf_
    factors: dict[int, tuple] = {}
    table = {i: c._mpc_ for i, c in f.items()}
    for _ in range(k):
        step = {}
        for i, c in table.items():
            if i < 1:
                continue
            factor = factors.get(i)
            if factor is None:
                factor = from_int(i, prec, rnd)
                if i % 2:
                    factor = mpf_add(factor, two_alpha_plus_1, prec, rnd)
                factors[i] = factor
            step[i - 1] = mpc_mul_mpf(c, factor, prec, rnd)
        table = step
    return TruncatedSeries({i: mp.make_mpc(c) for i, c in table.items()}, f.trunc_degree)


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
