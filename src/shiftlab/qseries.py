"""Exact truncated q-series with rational base exponent and rational-grid steps.

A series is ``q^base * sum_n coeffs[n] q^(n/grid)`` with integer coefficients,
known exactly for all exponents up to ``cutoff`` (inclusive).  Binary
operations truncate to the smallest compatible cutoff; nothing is ever
extrapolated past what both operands determine.

Multiplication packs coefficient arrays into big integers (Kronecker
substitution) so that products at grid order several thousand complete in
milliseconds without any approximate arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

DEFAULT_GRID_CAP = 10**4

_SCHOOLBOOK_CUTOFF = 64  # below this length, schoolbook convolution wins


class GridBoundError(RuntimeError):
    """Raised when an operation would need an exponent grid past the cap."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# integer convolution
# ---------------------------------------------------------------------------

def _pack(xs: list[int], sb: int) -> int:
    buf = bytearray(len(xs) * sb)
    for i, v in enumerate(xs):
        if v:
            buf[i * sb:(i + 1) * sb] = v.to_bytes(sb, "little")
    return int.from_bytes(buf, "little")


def _unpack(n: int, sb: int, count: int) -> list[int]:
    data = n.to_bytes(count * sb, "little")
    return [int.from_bytes(data[i * sb:(i + 1) * sb], "little") for i in range(count)]


def convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """First ``n_out`` coefficients of the product of two integer polynomials."""
    if not a or not b or n_out <= 0:
        return [0] * max(n_out, 0)
    if min(len(a), len(b)) < _SCHOOLBOOK_CUTOFF:
        out = [0] * n_out
        for i, ai in enumerate(a):
            if ai == 0 or i >= n_out:
                continue
            for j, bj in enumerate(b):
                if i + j >= n_out:
                    break
                if bj:
                    out[i + j] += ai * bj
        return out
    max_a = max(abs(x) for x in a)
    max_b = max(abs(x) for x in b)
    if max_a == 0 or max_b == 0:
        return [0] * n_out
    bound = max_a * max_b * min(len(a), len(b))
    sb = (bound.bit_length() + 8) // 8 + 1
    ap = [x if x > 0 else 0 for x in a]
    an = [-x if x < 0 else 0 for x in a]
    bp = [x if x > 0 else 0 for x in b]
    bn = [-x if x < 0 else 0 for x in b]
    total = len(a) + len(b) - 1
    pos = _pack(ap, sb) * _pack(bp, sb) + _pack(an, sb) * _pack(bn, sb)
    neg = _pack(ap, sb) * _pack(bn, sb) + _pack(an, sb) * _pack(bp, sb)
    cp = _unpack(pos, sb, total)
    cn = _unpack(neg, sb, total)
    return [p - q for p, q in zip(cp[:n_out], cn[:n_out])] + [0] * (n_out - total)


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

class QSeries(NamedTuple):
    base: Fraction
    grid: int
    coeffs: tuple[int, ...]
    cutoff: Fraction

    # construction --------------------------------------------------------

    @staticmethod
    def make(base, grid: int, coeffs, cutoff=None) -> "QSeries":
        """Normalize: strip zero margins into base/cutoff, reduce the grid."""
        base = _as_fraction(base)
        coeffs = list(coeffs)
        if cutoff is None:
            cutoff = base + Fraction(len(coeffs) - 1, grid)
        cutoff = _as_fraction(cutoff)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return QSeries(Fraction(0), 1, (), cutoff)
        base += Fraction(lo, grid)
        coeffs = coeffs[lo:hi]
        g = 0
        for i, c in enumerate(coeffs):
            if c:
                g = gcd(g, i)
        if g == 0:
            return QSeries(base, 1, (coeffs[0],), cutoff)
        shrink = gcd(grid, g)
        if shrink > 1:
            coeffs = [coeffs[i] for i in range(0, len(coeffs), shrink)]
            grid //= shrink
        return QSeries(base, grid, tuple(coeffs), cutoff)

    @staticmethod
    def zero(cutoff) -> "QSeries":
        return QSeries(Fraction(0), 1, (), _as_fraction(cutoff))

    # queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def eff_base(self) -> Fraction:
        """Leading exponent, or the cutoff for the zero series."""
        return self.base if self.coeffs else self.cutoff

    def coeff(self, exponent) -> int:
        e = _as_fraction(exponent)
        if e > self.cutoff:
            raise ValueError(f"exponent {e} is beyond the truncation {self.cutoff}")
        pos = (e - self.base) * self.grid
        if pos.denominator != 1 or pos < 0 or pos >= len(self.coeffs):
            return 0
        return self.coeffs[int(pos)]

    # arithmetic --------------------------------------------------------------

    def add(self, other: "QSeries") -> "QSeries":
        cutoff = min(self.cutoff, other.cutoff)
        if self.is_zero and other.is_zero:
            return QSeries.zero(cutoff)
        if self.is_zero:
            return other.truncate(cutoff)
        if other.is_zero:
            return self.truncate(cutoff)
        d = lcm(self.grid, other.grid, (self.base - other.base).denominator)
        if d > DEFAULT_GRID_CAP:
            raise GridBoundError(f"required exponent grid {d} exceeds cap {DEFAULT_GRID_CAP}")
        base = min(self.base, other.base)
        n = (cutoff - base) * d
        if n < 0:
            return QSeries.zero(cutoff)
        out = [0] * (int(n) + 1)
        for s in (self, other):
            off = (s.base - base) * d
            step = d // s.grid
            o = int(off)
            for i, c in enumerate(s.coeffs):
                k = o + i * step
                if k >= len(out):
                    break
                out[k] += c
        return QSeries.make(base, d, out, cutoff)

    def __add__(self, other):
        return self.add(other)

    def __neg__(self):
        return QSeries(self.base, self.grid, tuple(-c for c in self.coeffs),
                       self.cutoff)

    def __sub__(self, other):
        return self.add(-other)

    def mul(self, other: "QSeries") -> "QSeries":
        cutoff = min(self.cutoff + other.eff_base, other.cutoff + self.eff_base)
        if self.is_zero or other.is_zero:
            return QSeries.zero(cutoff)
        d = lcm(self.grid, other.grid)
        if d > DEFAULT_GRID_CAP:
            raise GridBoundError(f"required exponent grid {d} exceeds cap {DEFAULT_GRID_CAP}")
        base = self.base + other.base
        n = (cutoff - base) * d
        if n < 0:
            return QSeries.zero(cutoff)
        sa = d // self.grid
        sb = d // other.grid
        a = _spread(self.coeffs, sa)
        b = _spread(other.coeffs, sb)
        out = convolve(a, b, int(n) + 1)
        return QSeries.make(base, d, out, cutoff)

    def __mul__(self, other):
        return self.mul(other)

    def __rmul__(self, other):
        # tuple's would repeat the fields
        return NotImplemented

    def qshift(self, delta) -> "QSeries":
        delta = _as_fraction(delta)
        return QSeries(self.base + delta, self.grid, self.coeffs,
                       self.cutoff + delta)

    def truncate(self, new_cutoff) -> "QSeries":
        new_cutoff = _as_fraction(new_cutoff)
        if new_cutoff >= self.cutoff:
            return self
        n = (new_cutoff - self.base) * self.grid
        if self.is_zero or n < 0:
            return QSeries.zero(new_cutoff)
        keep = int(n) + 1
        return QSeries.make(self.base, self.grid, self.coeffs[:keep], new_cutoff)

    # comparison / io ----------------------------------------------------------

    def same_series(self, other: "QSeries") -> bool:
        """Termwise equality up to the smaller cutoff."""
        cut = min(self.cutoff, other.cutoff)
        return self.truncate(cut) == other.truncate(cut)

    def to_json_dict(self) -> dict:
        return {
            "base": f"{self.base.numerator}/{self.base.denominator}",
            "grid": self.grid,
            "coeffs": [str(c) for c in self.coeffs],
            "cutoff": f"{self.cutoff.numerator}/{self.cutoff.denominator}",
        }


def _spread(coeffs: tuple[int, ...], step: int) -> list[int]:
    if step == 1:
        return list(coeffs)
    out = [0] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        out[i * step] = c
    return out


# ---------------------------------------------------------------------------
# Euler products: inverse eta powers and free-fermion characters
# ---------------------------------------------------------------------------

def check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


def eta_inv_pow(r: int, order: int) -> QSeries:
    """q^(-r/24) * sum of r-colored partition numbers; 1/eta(q)^r truncated."""
    if r < 1:
        raise ValueError("eta power must be positive")
    return _eta_inv_fermion(r, None, order)


class FermionKind(enum.Enum):
    NS_CH = "ch"
    NS_SCH = "sch"
    R_TWISTED = "ramond"


@lru_cache(maxsize=None)
def fermion_char(kind: FermionKind, order: int) -> QSeries:
    """Free-fermion characters: NS character, NS supercharacter, parity-twisted.

    All are returned to depth ``order`` in integer q-units above their base:

    * ``NS_CH``     q^(-1/48) prod (1 + q^(n-1/2))
    * ``NS_SCH``    q^(-1/48) prod (1 - q^(n-1/2))
    * ``R_TWISTED`` 2 q^(1/24) prod (1 + q^n)
    """
    return _eta_inv_fermion(0, kind, order)


@lru_cache(maxsize=None)
def _eta_inv_fermion(r: int, kind: FermionKind | None, order: int) -> QSeries:
    """eta(q)^-r times fermion_char(kind, order) (times 1 for None), to depth
    ``order``.  In units x = q^(1/grid) the product is lead * prod_k (1 -
    x^k)^-c_k: eta^-r puts r on every multiple of grid, the NS fermion +-1 on
    odd k (and, as 1 + x^k = (1 - x^2k)/(1 - x^k), -1 on 2k for the
    character), the Ramond one +1 on odd k.  Its logarithmic derivative gives
    n f_n = sum_{m<=n} b_m f_(n-m) with b_m = sum_{d|m} d c_d."""
    check_order(order)
    if kind is None:
        base, grid, lead, odd = Fraction(0), 1, 1, 0
    elif kind is FermionKind.R_TWISTED:
        base, grid, lead, odd = Fraction(1, 24), 1, 2, 1
    else:
        base, grid, lead, odd = Fraction(-1, 48), 2, 1, -1 if kind is FermionKind.NS_SCH else 1
    n = grid * order + 1
    b = [0] * n
    for d in range(1, n):
        c = r * (d % grid == 0) + odd * (d % 2) - (kind is FermionKind.NS_CH and d % 4 == 2)
        if c:
            for m in range(d, n, d):
                b[m] += d * c
    coeffs, b = [lead], b[1:]
    for k in range(1, n):
        f, rest = divmod(sum(map(mul, b, reversed(coeffs))), k)
        if rest:
            raise AssertionError(f"Euler-product recurrence left a remainder at x^{k}")
        coeffs.append(f)
    base -= Fraction(r, 24)
    return QSeries.make(base, grid, coeffs, base + order)
