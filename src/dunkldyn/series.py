"""Truncated power series with complex coefficients at ambient precision.

A series is an immutable coefficient table c_0..c_N (N = trunc_degree) standing
in for an entire function's Taylor expansion at 0.  Only linear structure is
provided (add/scale/evaluate); series products are out of scope.

File format ``dunklseries v1``::

    dunklseries v1
    alpha=<decimal>
    precision_bits=<int>
    n_coeffs=<int>
    <n> <re-decimal> <im-decimal>     (n_coeffs lines, n strictly increasing)

Coefficient lines are sparse (zeros omitted), except that the final line always
carries n = trunc_degree so the truncation order survives the round trip.
Decimals are written with enough digits to reparse to the exact binary value.
Readers skip blank lines.

The reader gives each decimal the tuple that mpmath's ``from_str`` gives at
the header's ``precision_bits``, bit for bit, but mostly without calling it:
``_decimal_reader`` multiplies a decimal man 10^-k out in integers against a
fixed-point 5^-k and rounds it there when that value is provably farther
than about 2^-(bits+5) relative from every rounding midpoint.  Text outside
its ASCII grammar, a decimal whose exponent net of its fraction digits is not
negative, and a decimal that close to a midpoint go to ``from_str``.
``read_text`` and ``read_header`` read this format and ``construct``'s
``dunklplan v1`` alike.
"""

from __future__ import annotations

import re
from typing import Iterator

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_str, fzero, round_nearest

from .numeric import to_decimal

DEFAULT_TRUNC_DEGREE = 4096
_ZERO = mpc(0)  # every missing coefficient; mpc values are immutable
# [-]digits[.digits][e[-]digits] in ASCII digits; the caps keep int() within its digit limit
_DECIMAL = re.compile(r"(-?)([0-9]{1,1000})(?:\.([0-9]{1,1000}))?(?:e(-?[0-9]{1,1000}))?")
_GUARD_BITS = 64  # bits of the reader's fixed-point 5^-k beyond the header's precision


class TruncatedSeries:
    """Coefficients c_0..c_N; immutable; all arithmetic at ambient precision."""

    __slots__ = ("_coeffs", "_trunc_degree")

    def __init__(self, coeffs: dict[int, mpc], trunc_degree: int = DEFAULT_TRUNC_DEGREE):
        if trunc_degree < 0:
            raise ValueError(f"trunc_degree must be >= 0, got {trunc_degree}")
        table: dict[int, mpc] = {}
        prec = mp.prec
        for n, c in coeffs.items():
            n = int(n)
            if n < 0 or n > trunc_degree:
                raise ValueError(f"coefficient index {n} outside [0, {trunc_degree}]")
            # mpc(c) rounds to the working precision: a no-op on an mpc that fits,
            # and on a finite nonzero mpf that fits it gives (c, 0), formed here directly
            if type(c) is mpf and c._mpf_[1] and c._mpf_[3] <= prec:
                table[n] = mp.make_mpc((c._mpf_, fzero))
                continue
            if type(c) is not mpc or max(c._mpc_[0][3], c._mpc_[1][3]) > prec:
                c = mpc(c)
            if c:
                table[n] = c
        self._coeffs = table
        self._trunc_degree = int(trunc_degree)

    @property
    def trunc_degree(self) -> int:
        return self._trunc_degree

    def coeff(self, n: int) -> mpc:
        return self._coeffs.get(n, _ZERO)

    def items(self) -> Iterator[tuple[int, mpc]]:
        """Nonzero (n, c_n) pairs in increasing n."""
        return iter(sorted(self._coeffs.items()))

    def n_nonzero(self) -> int:
        return len(self._coeffs)

    def degree(self) -> int:
        """Largest n with c_n != 0, or -1 for the zero series."""
        return max(self._coeffs) if self._coeffs else -1

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.trunc_degree != self.trunc_degree:
            raise ValueError(
                f"trunc_degree mismatch: {self.trunc_degree} vs {other.trunc_degree}"
            )
        table = dict(self._coeffs)
        for n, c in other._coeffs.items():
            table[n] = table.get(n, mpc(0)) + c
        return TruncatedSeries(table, self.trunc_degree)

    def scale(self, c) -> "TruncatedSeries":
        c = mpc(c)
        return TruncatedSeries({n: v * c for n, v in self._coeffs.items()}, self.trunc_degree)

    def evaluate(self, z) -> mpc:
        """Horner evaluation over the dense range 0..degree."""
        z = mpc(z)
        d = self.degree()
        if d < 0:
            return mpc(0)
        acc = mpc(0)
        for n in range(d, -1, -1):
            acc = acc * z
            c = self._coeffs.get(n)
            if c is not None:
                acc += c
        return acc

    def evaluate_circle(self, r, m: int) -> list[mpc]:
        """Values f(r e^(2 pi i j / m)) for j = 0..m-1.

        Computed per nonzero coefficient with an incremental rotation, so the
        cost is (number of nonzero coefficients) x m regardless of degree.
        This is the working-precision reference that the tests hold the
        float64 circle kernel (``means._circle_rows``) against.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        r = mpf(r)
        vals = [mpc(0)] * m
        if not self._coeffs:
            return vals
        omega = mpmath.exp(2j * mp.pi / m)
        for n, c in self._coeffs.items():
            cur = c * r**n
            step = omega**n
            for j in range(m):
                vals[j] += cur
                cur *= step
        return vals

    def sup_on_disk(self, r, m: int) -> mpf:
        """max_j |f(r e^(2 pi i j/m))| over m circle samples, at working precision.

        The working-precision oracle of ``means._circle_rows``, the float64
        kernel behind ``means_on_grid`` and ``construct.frequency_report``.

        Coefficients whose contribution |c_n| r^n sits more than prec+48 bits
        below the largest are skipped; with m > degree the sampled maximum
        dominates max_n |c_n| r^n, so the skipped mass is far below the
        returned value's rounding error.
        """
        r = mpf(r)
        if not self._coeffs or r < 0:
            return mpf(0)
        if r == 0:
            return abs(self.coeff(0))
        logs = {n: mpmath.ln(abs(c)) + n * mpmath.ln(r) for n, c in self._coeffs.items()}
        top = max(logs.values())
        cut = top - (mp.prec + 48) * mpmath.ln(2)
        kept = {n: self._coeffs[n] for n, lv in logs.items() if lv >= cut}
        pruned = TruncatedSeries(kept, self.trunc_degree) if len(kept) < len(logs) else self
        return max(abs(v) for v in pruned.evaluate_circle(r, m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self._trunc_degree == other._trunc_degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self._trunc_degree, tuple(sorted((n, str(c)) for n, c in self._coeffs.items()))))

    def __repr__(self) -> str:
        d = self.degree()
        return f"TruncatedSeries(degree={d}, nonzero={len(self._coeffs)}, trunc={self._trunc_degree})"


def exp_truncation(n_terms: int, trunc_degree: int = DEFAULT_TRUNC_DEGREE) -> TruncatedSeries:
    """Truncation of e^z to degree n_terms (handy test subject)."""
    table = {}
    c = mpf(1)
    for n in range(n_terms + 1):
        table[n] = mpc(c)
        c = c / (n + 1)
    return TruncatedSeries(table, trunc_degree)


def write_series(f: TruncatedSeries, path: str, alpha, precision_bits: int | None = None) -> None:
    if precision_bits is None:
        precision_bits = mp.prec
    lines = ["dunklseries v1"]
    lines.append(f"alpha={to_decimal(mpf(alpha))}")
    lines.append(f"precision_bits={precision_bits}")
    rows = []
    for n, c in f.items():
        if n == f.trunc_degree:
            continue
        rows.append(f"{n} {to_decimal(c.real)} {to_decimal(c.imag)}")
    top = f.coeff(f.trunc_degree)
    rows.append(f"{f.trunc_degree} {to_decimal(top.real)} {to_decimal(top.imag)}")
    lines.append(f"n_coeffs={len(rows)}")
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path, magic: str, parse):
    """parse(lines) on the non-blank lines of a text file whose first line is ``magic``.

    The lines after ``magic`` are passed as a list to consume from the front.
    A malformed or truncated file raises ValueError("<path>: ...").
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    try:
        if not lines or lines.pop(0).strip() != magic:
            raise ValueError(f"not a {magic} file")
        return parse(lines)
    except IndexError:
        raise ValueError(f"{path}: file or line ends early") from None
    except ZeroDivisionError:  # a number written as n/0
        raise ValueError(f"{path}: a number has denominator 0") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def read_header(lines: list, keys) -> dict:
    """Pop one ``key=value`` line per key, in order, off the front of lines.

    Both file formats read their header here, so this is where a
    ``precision_bits`` value is checked to be an integer >= 8.
    """
    out = {}
    for key in keys:
        line = lines.pop(0)
        name, _, value = line.partition("=")
        if name != key:
            raise ValueError(f"expected {key}=..., got {line!r}")
        if key == "precision_bits" and int(value) < 8:
            raise ValueError(f"precision_bits must be >= 8, got {int(value)}")
        out[key] = value
    return out


def read_series(path: str) -> tuple[TruncatedSeries, mpf, int]:
    """Read a ``dunklseries v1`` file; returns (series, alpha, precision_bits).

    Decimals are parsed at the precision recorded in the header so values
    round-trip exactly; the returned objects keep that precision.  A malformed
    file raises ValueError("<path>: ...").
    """
    return read_text(path, "dunklseries v1", _parse_series)


def _decimal_reader(bits: int):
    """A function text -> from_str(text, bits, round_nearest), bit for bit, for one read.

    A text in the ``_DECIMAL`` grammar is D = man 10^-k = man 5^-k 2^-k; zero,
    however spelt, is ``fzero``.  For 0 < k < 2^(_GUARD_BITS - 9) and W = bits
    + _GUARD_BITS, 5^-k is taken as P, the product over the set bits j of k of
    W-bit truncations of 5^(-2^j), each the square of the one before and built
    once per read, truncated to W bits after each factor.  Truncation lowers a
    value by less than 2^(1-W) relative and squaring doubles an error, so
    5^-k (1 - 2k 2^(1-W)) < P <= 5^-k.  With Y = man P of L bits and s = L -
    bits, D then lies less than k 2^(L+3-W) <= 2^(s-6) units above Y.

    ``from_str`` rounds D correctly when its own exponent is at most 400 in
    magnitude.  Beyond that it returns RN_bits(D (1 + delta)) with
    -2^-(bits+7) < delta <= 0: ``from_int`` truncates man at bits + 10 (by less
    than 2^-(bits+9) relative), ``mpf_div`` truncates 1 / 10^n at bits + 10
    (2^-(bits+9)) from ``mpf_pow_int``'s 10^n rounded up at bits + 15
    (2^-(bits+14), its inner steps adding under 2^-(bits+40)), and the last
    ``mpf_mul`` rounds to nearest.  Its argument is thus less than 2^(s-6)
    units below D.

    So D and from_str's argument lie within 2^(s-6) units of Y.  When Y's s low
    bits differ from 2^(s-1) by more than 2^(s-5), no midpoint of the bits-bit
    grid lies that near (across a power of two the nearest midpoint is 2^(s-2)
    or 2^s away), and Y rounded to nearest is from_str's tuple, also at a
    binade edge.  Every other decimal, text outside the grammar and k <= 0 go
    to ``from_str``.
    """
    width = bits + _GUARD_BITS
    squares = [((1 << (width + 2)) // 5, -(width + 2))]  # (man, exp) of 5^(-2^j), man W bits

    def read(text: str):
        match = _DECIMAL.fullmatch(text)
        if match is None:
            return from_str(text, bits, round_nearest)
        sign, whole, frac, exp = match.groups()
        man = int(whole + (frac or ""))
        if not man:
            return fzero  # from_str's tuple for every spelling of zero
        k = len(frac or "") - int(exp or 0)
        if k <= 0 or k >> (_GUARD_BITS - 9):
            return from_str(text, bits, round_nearest)
        while k >> len(squares):
            sq_man, sq_exp = squares[-1]
            sq_man *= sq_man
            drop = sq_man.bit_length() - width
            squares.append((sq_man >> drop, 2 * sq_exp + drop))
        p_man, p_exp = 1, -k
        for (sq_man, sq_exp), bit in zip(squares, bin(k)[:1:-1]):  # bits of k, lowest first
            if bit == "1":
                p_man *= sq_man
                drop = p_man.bit_length() - width
                p_man >>= drop
                p_exp += sq_exp + drop
        y = man * p_man
        drop = y.bit_length() - bits
        tail = y & ((1 << drop) - 1)
        if abs(2 * tail - (1 << drop)) <= 1 << (drop - 4):
            return from_str(text, bits, round_nearest)  # within 2^(s-5) of a midpoint
        # RN_bits(y), normalised as mpmath keeps a tuple: odd mantissa and its bit count
        y = (y >> drop) + (2 * tail > 1 << drop)
        zeros = (y & -y).bit_length() - 1
        y >>= zeros
        return (1 if sign else 0, y, p_exp + drop + zeros, y.bit_length())

    return read


def _parse_series(lines: list) -> tuple[TruncatedSeries, mpf, int]:
    head = read_header(lines, ("alpha", "precision_bits", "n_coeffs"))
    bits = int(head["precision_bits"])
    n_coeffs = int(head["n_coeffs"])
    if len(lines) != n_coeffs:
        raise ValueError(f"n_coeffs={n_coeffs} but {len(lines)} coefficient lines")
    read = _decimal_reader(bits)
    with mp.workprec(bits):
        alpha = mpf(head["alpha"])
        table: dict[int, mpc] = {}
        last_n = -1
        for line in lines:
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"bad coefficient line {line!r}")
            n = int(parts[0])
            if n <= last_n:
                raise ValueError("coefficient indices must increase")
            last_n = n
            # what mpc(mpf(re), mpf(im)) rounds to at these bits, without its conversions
            table[n] = mp.make_mpc((read(parts[1]), read(parts[2])))
        series = TruncatedSeries(table, trunc_degree=last_n)
    return series, alpha, bits
