"""Truncated exact q-series: ring laws, eta powers, fermion products."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    euler_tail_in_place,
    eta_inv_pow_reference,
    eta_pow_reference,
    fermion_char_reference,
    from_json_dict,
    resample,
    scale,
)

from shiftlab.qseries import (
    FermionKind,
    GridBoundError,
    QSeries,
    _eta_inv_fermion,
    convolve,
    eta_inv_pow,
    fermion_char,
)


# -- independent oracles -----------------------------------------------------

def partitions_with_parts_ge(n: int, least: int) -> int:
    """Brute-force count of partitions of n into parts >= least."""
    if n == 0:
        return 1
    if least > n:
        return 0
    return sum(partitions_with_parts_ge(n - k, k) for k in range(least, n + 1))


def colored_partitions(n: int, colors: int) -> int:
    """Partitions of n with parts in `colors` colors, by direct DP over
    (part size, color) with bounded multiplicity handled implicitly."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for _ in range(colors):
            for k in range(part, n + 1):
                table[k] += table[k - part]
    return table[n]


def distinct_parts_product(n2: int, offsets, sign: int) -> list[int]:
    """Coefficients of prod (1 + sign q^(k/2)) on the half-integer grid."""
    out = [0] * (n2 + 1)
    out[0] = 1
    for k in offsets:
        if k > n2:
            break
        for i in range(n2, k - 1, -1):
            out[i] += sign * out[i - k]
    return out


# -- basic structure ---------------------------------------------------------

def test_normalization():
    s = QSeries.make(Fraction(1, 2), 4, [0, 0, 3, 0, 5, 0, 0])
    assert s.base == Fraction(1, 2) + Fraction(2, 4)
    assert s.coeffs == (3, 5)
    assert s.grid == 2
    assert s.cutoff == Fraction(1, 2) + Fraction(6, 4)
    assert (s.coeff(1), s.coeff(Fraction(3, 2))) == (3, 5)
    z = QSeries.make(0, 1, [0, 0, 0])
    assert z.is_zero and z.cutoff == 2


def test_single_term_reduces_grid():
    s = QSeries.make(Fraction(1, 8), 48, [7])
    assert s.grid == 1 and s.coeffs == (7,)


def test_coeff_lookup():
    s = QSeries.make(Fraction(-1, 24), 1, [1, 1, 2, 3])
    assert s.coeff(Fraction(-1, 24)) == 1
    assert s.coeff(Fraction(47, 24)) == 2
    assert s.coeff(Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        s.coeff(100)


def test_partition_euler_inverse():
    # prod (1 - q^n) * sum p(n) q^n = 1 to order 200
    inv = eta_inv_pow(1, 200)
    eta = eta_pow_reference(1, 200)
    product = inv.mul(eta)
    assert product.coeffs == (1,)
    assert product.base == 0
    assert product.cutoff == 200


def test_parts_ge_two_series():
    # (1 - q) * sum p(n) q^n counts partitions into parts >= 2
    one_minus_q = QSeries.make(0, 1, [1, -1], cutoff=60)
    series = one_minus_q.mul(eta_inv_pow(1, 60).qshift(Fraction(1, 24)))
    for n in range(0, 30):
        assert series.coeff(n) == partitions_with_parts_ge(n, 2)
    assert [series.coeff(n) for n in range(7)] == [1, 0, 1, 1, 2, 2, 4]


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_colored_partitions(r):
    s = eta_inv_pow(r, 25)
    assert s.base == Fraction(-r, 24)
    for n in range(0, 18):
        assert s.coeffs[n] == colored_partitions(n, r)


def test_eta_inv_examples():
    assert eta_inv_pow(1, 6).coeffs == (1, 1, 2, 3, 5, 7, 11)
    assert eta_inv_pow(2, 4).coeffs == (1, 2, 5, 10, 20)


def test_fermion_characters():
    ch = fermion_char(FermionKind.NS_CH, 12)
    assert ch.base == Fraction(-1, 48)
    want = distinct_parts_product(24, range(1, 25, 2), +1)
    assert list(ch.coeffs) == want[:len(ch.coeffs)]
    assert ch.coeff(Fraction(-1, 48) + Fraction(1, 2)) == 1
    sch = fermion_char(FermionKind.NS_SCH, 12)
    assert sch.coeff(Fraction(-1, 48) + Fraction(1, 2)) == -1
    tw = fermion_char(FermionKind.R_TWISTED, 12)
    assert tw.base == Fraction(1, 24)
    assert tw.coeffs[:4] == (2, 2, 2, 4)  # 2 * prod (1 + q^n)


@pytest.mark.parametrize("r,order", [*product(range(1, 9), (0, 1, 2, 7, 30, 61)), (1, 200)])
def test_euler_products_match_reference(r, order):
    # the in-place Euler products against the pentagonal recurrences, the
    # square-and-multiply powers over convolve and the binomial products
    inv = eta_inv_pow(r, order)
    assert inv == eta_inv_pow_reference(r, order)
    assert _eta_inv_fermion(r, None, order) == inv
    for kind in FermionKind:
        ferm = fermion_char(kind, order)
        assert ferm == fermion_char_reference(kind, order)
        tail = _eta_inv_fermion(r, kind, order)
        assert tail == eta_inv_pow_reference(r, order).mul(fermion_char_reference(kind, order))
        assert tail == inv.mul(ferm)


@pytest.mark.parametrize("kind", [None, *FermionKind], ids=str)
def test_divisor_sum_tails_match_in_place_products(kind):
    # the divisor-sum recurrence against the products multiplied and divided
    # factor by factor in place: base, grid, every coefficient and the cutoff
    for r, order in product(range(9), (*range(13), 40, 97)):
        got, want = _eta_inv_fermion(r, kind, order), euler_tail_in_place(r, kind, order)
        assert (got.base, got.grid, got.coeffs, got.cutoff) == \
            (want.base, want.grid, want.coeffs, want.cutoff), (r, order)


def test_fermion_eta_quotient_identities():
    # ch F * sch F equals eta(q)/eta(q^2) as q-expansions, to order 50
    n = 50
    lhs = fermion_char(FermionKind.NS_CH, n).mul(fermion_char(FermionKind.NS_SCH, n))
    rhs = eta_pow_reference(1, n).mul(resample(eta_inv_pow(1, n // 2), 2))
    assert lhs.same_series(rhs)
    # ch iota* F = 2 eta(q^2)/eta(q)
    lhs2 = fermion_char(FermionKind.R_TWISTED, n)
    rhs2 = scale(resample(eta_pow_reference(1, n // 2), 2).mul(eta_inv_pow(1, n)), 2)
    assert lhs2.same_series(rhs2)


def test_resample_definition():
    eta = eta_pow_reference(1, 20)
    again = resample(eta, 2)
    assert again.base == Fraction(2, 24)
    for n in range(0, 18):
        assert again.coeff(Fraction(2, 24) + n) == (
            eta.coeff(Fraction(1, 24) + Fraction(n, 2))
            if n % 2 == 0 else 0)
    half = resample(eta, Fraction(1, 2))
    assert half.grid == 2 and half.base == Fraction(1, 48)


def test_scale_integrality():
    s = QSeries.make(0, 1, [2, 4, 6])
    assert scale(s, Fraction(1, 2)).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        scale(s, Fraction(1, 4))


def test_grid_cap():
    a = QSeries.make(0, 9973, [1, 1])
    b = QSeries.make(0, 2, [1, 1])
    with pytest.raises(GridBoundError):
        a.mul(b)


def test_kronecker_matches_schoolbook():
    import random
    rng = random.Random(7)
    a = [rng.randint(-50, 50) for _ in range(200)]
    b = [rng.randint(-10**6, 10**6) for _ in range(150)]
    naive = [0] * 300
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 300:
                naive[i + j] += x * y
    assert convolve(a, b, 300) == naive


# -- ring laws on randomized triples ----------------------------------------

series_strategy = st.builds(
    lambda base_num, grid, coeffs: QSeries.make(
        Fraction(base_num, 12), grid, coeffs),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
)


def _trunc_eq(a: QSeries, b: QSeries) -> bool:
    cut = min(a.cutoff, b.cutoff)
    return a.truncate(cut) == b.truncate(cut)


@settings(max_examples=120, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    assert _trunc_eq(a.add(b), b.add(a))
    assert _trunc_eq(a.add(b).add(c), a.add(b.add(c)))
    assert _trunc_eq(a.mul(b), b.mul(a))
    assert _trunc_eq(a.mul(b).mul(c), a.mul(b.mul(c)))
    assert _trunc_eq(a.mul(b.add(c)), a.mul(b).add(a.mul(c)))
    assert _trunc_eq(a.add(a.__neg__()), QSeries.zero(a.cutoff))


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_operators_are_the_named_methods(a, b):
    # +, - and * are add, add of the negation and mul, not the tuple's
    # concatenation and repetition; an int times a series is refused
    assert isinstance(a + b, QSeries) and a + b == a.add(b)
    assert a - b == a.add(-b) and -b == b.__neg__()
    assert isinstance(a * b, QSeries) and a * b == a.mul(b)
    assert len(a + b) == len(a * b) == len(QSeries._fields)
    with pytest.raises(TypeError):
        2 * a


def test_truncation_bookkeeping():
    # binary ops truncate to the smallest compatible absolute order
    a = QSeries.make(0, 1, [1] * 11)            # known through q^10
    b = QSeries.make(Fraction(1, 2), 1, [1] * 5)  # known through q^(9/2)
    assert a.add(b).cutoff == Fraction(9, 2)
    prod = a.mul(b)
    assert prod.cutoff == min(a.cutoff + b.base, b.cutoff + a.base) == Fraction(9, 2)
    # cancellation raises the effective leading exponent, never the cutoff
    c = QSeries.make(0, 1, [1, 3])
    d = QSeries.make(0, 1, [-1, 2])
    s = c.add(d)
    assert s.base == 1 and s.coeffs == (5,) and s.cutoff == 1
    # zero results keep their truncation
    z = c.add(-c)
    assert z.is_zero and z.cutoff == 1
    assert z.mul(a).cutoff == 1
    assert z.qshift(3).cutoff == 4
    assert resample(z, 2).cutoff == 2


def test_json_roundtrip():
    s = eta_inv_pow(2, 10)
    d = s.to_json_dict()
    assert d["base"] == "-1/12"
    assert from_json_dict(d) == s
