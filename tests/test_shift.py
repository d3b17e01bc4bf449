"""Shift systems: representatives, actions, axioms, weak/strong conditions."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PACK_GUARD,
    PACK_RADIX,
    axioms_over_w,
    copairing,
    alcove_inequality_fraction,
    canonical_decompose_fraction,
    check_member_gram,
    conditions_per_call,
    det_int,
    digit_grid,
    eager_transversal,
    fraction_lambda_from,
    fraction_start,
    lambda_of_value_fraction,
    left_table,
    locate,
    locate_point,
    orbit_row,
    mat_vec,
    orbit_reference,
    pack,
    packed_numbering,
    screening_pairing_reference,
    strong_on_every_word,
    strong_w0_target,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
    walk_two_pass,
    weyl_matrix,
)

from shiftlab import cli
from shiftlab import shift as shift_module
from shiftlab.liealg import (
    CapExceededError,
    RootSystem,
    WeylElement,
    _enumerate_weyl_cached,
    reflect_labels,
    weyl_order,
)
from shiftlab.shift import (
    InvalidCaseError,
    ShiftSystem,
    WordDependenceError,
    _cosets,
    _grid,
    _scaled_point,
    alcove_inequality,
    canonical_decompose,
    check_strong,
    check_strong_all_words,
    check_strong_alt,
    check_weak,
    condition_report,
    enumerate_lambda,
    is_fixed,
    lambda_from,
    lambda_of_value,
    make_case,
    screening_degree,
    shift_map,
    system,
    verify_axioms,
    w0_shift,
    w_act,
)

A1P2 = make_case("A1", "nonsuper", 2)


def lam(case, idx, *digits):
    return lambda_from(case, idx, digits)


# -- case construction --------------------------------------------------------

def test_case_validation():
    with pytest.raises(InvalidCaseError):
        make_case("A2", "super", 2)
    with pytest.raises(InvalidCaseError):
        make_case("A1", "nonsuper", 0)
    case = make_case("B2", "super", 2)
    assert case.p == 3
    assert case.x == vscale(Fraction(1, 3), case.rs.rho)


def test_central_charges():
    assert A1P2.central_charge == -2
    assert make_case("A1", "nonsuper", 3).central_charge == -7
    assert make_case("B1", "super", 2).central_charge == Fraction(-5, 2)


# -- canonical decomposition ---------------------------------------------------

def test_decompose_zero():
    b, box = canonical_decompose(vzero(1), A1P2)
    assert b == box == vzero(1)
    for i in range(1):
        t = copairing(A1P2.rs, vadd(box, A1P2.x), i)
        assert 0 < t <= 1


def test_decompose_rank1_example():
    # -(3/2) * fundamental weight -> bullet 2w, box w/2
    mu = (Fraction(-3, 4),)
    b, box = canonical_decompose(mu, A1P2)
    assert b == (Fraction(1),)          # 2w = alpha
    assert box == (Fraction(1, 4),)     # w/2
    assert vadd(vneg(b), box) == mu


def test_decompose_membership_error():
    with pytest.raises(ValueError):
        canonical_decompose((Fraction(1, 3),), A1P2)


@pytest.mark.parametrize("name,variant,m",
                         [("A2", "nonsuper", 2), ("B2", "nonsuper", 2),
                          ("B2", "super", 2), ("G2", "nonsuper", 1)])
def test_decompose_recomposition(name, variant, m):
    case = make_case(name, variant, m)
    rs = case.rs
    for lamp in enumerate_lambda(case):
        for gamma_coords in product(range(-1, 2), repeat=rs.rank):
            gamma = tuple(Fraction(c) for c in gamma_coords)
            mu = vadd(lamp.value, gamma)
            b, box = canonical_decompose(mu, case)
            assert vadd(vneg(b), box) == mu
            assert (b, box) == canonical_decompose_fraction(mu, case)
            rs.integral_labels(b)  # raises unless the bullet is an integral weight
            for i in range(rs.rank):
                t = copairing(rs, vadd(box, case.x), i)
                assert 0 < t <= 1


@pytest.mark.parametrize("name,variant,m",
                         [("A1", "nonsuper", 3), ("A3", "nonsuper", 2), ("B3", "super", 2),
                          ("C3", "nonsuper", 1), ("G2", "nonsuper", 2), ("F4", "nonsuper", 1),
                          ("E6", "nonsuper", 1), ("E7", "nonsuper", 1), ("E8", "nonsuper", 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decompose_matches_fraction_route(name, variant, m, data):
    # the bullet read off the p-scaled labels of mu + x against the Fraction
    # copairings, one fundamental weight at a time, at points of (1/p)Q*
    # spanned by the fundamental coweights over p; a point off (1/p)Q* is
    # refused by both
    case = make_case(name, variant, m)
    rs, p = case.rs, case.p
    coeffs = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=rs.rank,
                                max_size=rs.rank))
    mu = tuple(sum(Fraction(n, p) * w[j] for n, w in zip(coeffs, rs.fund_coweights))
               for j in range(rs.rank))
    assert canonical_decompose(mu, case) == canonical_decompose_fraction(mu, case)
    off = (mu[0] + Fraction(1, 12 * p),) + mu[1:]
    for route in (canonical_decompose, canonical_decompose_fraction):
        with pytest.raises(ValueError, match="is not in"):
            route(off, case)


# -- Lambda enumeration ---------------------------------------------------------

def brute_force_coset_count(case) -> int:
    """|(1/p)Q*/Q| by hashing canonical coset keys over a spanning grid."""
    rs = case.rs
    p = case.p
    reach = p * det_int(rs.cartan)
    keys = set()
    for coords in product(range(reach), repeat=rs.rank):
        mu = vzero(rs.rank)
        for i, k in enumerate(coords):
            mu = vadd(mu, vscale(Fraction(k, p), rs.fund_coweights[i]))
        keys.add(lambda_of_value_fraction(case, mu).key())
    return len(keys)


@pytest.mark.parametrize("name,variant,m,count", [
    ("A1", "nonsuper", 2, 4),
    ("A1", "nonsuper", 1, 2),
    ("B2", "nonsuper", 1, 4),
    ("B2", "nonsuper", 2, 16),
    ("A2", "nonsuper", 2, 12),
    ("B1", "super", 2, 3),
    ("B2", "super", 2, 9),
    ("G2", "nonsuper", 1, 3),
])
def test_lambda_count(name, variant, m, count):
    case = make_case(name, variant, m)
    lams = enumerate_lambda(case)
    assert len(lams) == count
    # matches the lattice index p^r * det(gram)
    gram_det = det_int(tuple(tuple(x * 2 for x in row) for row in case.rs.gram))
    # work with scaled integer gram to use the integer determinant
    scaled = Fraction(gram_det, 2 ** case.rank)
    assert count == case.p ** case.rank * scaled
    assert count == brute_force_coset_count(case)


def test_lambda_a1_explicit():
    labels = [l.key() for l in enumerate_lambda(A1P2)]
    assert labels == [(0, (1,)), (0, (2,)), (1, (1,)), (1, (2,))]


@pytest.mark.parametrize("name,m,index,digits", [
    pytest.param("A2", 1, -1, (1, 1), id="-1"),
    pytest.param("A2", 1, 3, (1, 1), id="3"),
    # a non-integral digit once truncated to a valid coset (1.9 -> 1), and a
    # float index raised TypeError
    pytest.param("A1", 2, 0, [1.9], id="float-digit"),
    pytest.param("A1", 2, 0, [Fraction(3, 2)], id="fraction-digit"),
    pytest.param("A2", 1, 0.5, (1, 1), id="float-index"),
    pytest.param("A2", 1, 0, (1, "1"), id="str-digit"),
])
def test_lambda_from_refuses_a_bullet_index_out_of_range(name, m, index, digits):
    # A2 has three minuscule weights; -1 would read the last of them under a
    # key no table holds; an index or digit of non-integer value is refused
    with pytest.raises(ValueError, match="minuscule index"):
        lambda_from(make_case(name, "nonsuper", m), index, digits)


def test_lambda_super_parity():
    # rank-1 odd lattice: digits odd for trivial minuscule part, even otherwise
    case = make_case("B1", "super", 2)
    got = [(l.bullet_index, l.digits) for l in enumerate_lambda(case)]
    assert got == [(0, (1,)), (0, (3,)), (1, (2,))]
    with pytest.raises(ValueError):
        lambda_from(case, 0, (2,))


AXIOM_SWEEP_CASES = [(name, "nonsuper", m) for name in ("A2", "B2", "C2", "G2")
                     for m in (1, 2, 3)] + \
    [("B2", variant, m) for variant in ("super", "ramond") for m in (1, 2, 3)] + \
    [("A3", "nonsuper", 1), ("A3", "nonsuper", 2), ("B3", "nonsuper", 1),
     ("C3", "nonsuper", 1), ("B3", "super", 2), ("B3", "ramond", 2),
     ("B4", "super", 1), ("D4", "nonsuper", 1), ("A4", "nonsuper", 1)]


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
def test_integer_cosets_match_fraction_route(name, variant, m):
    # every coset's record, box labels, number and carry against Fraction
    # vectors summed on the fundamental (co)weights and decomposed by
    # canonical_decompose, and against the oracle's packed numbering
    case = make_case(name, variant, m)
    sys = system(case)
    bounds = (case.p,) * case.rank if case.variant.is_super else \
        tuple(int(case.p * d) for d in case.rs.half_lengths)
    want = [fraction_lambda_from(case, b, digits)
            for b in range(len(case.rs.minuscule))
            for digits in product(*(range(1, n + 1) for n in bounds))
            if not case.variant.is_super
            or (digits[-1] + copairing(case.rs, case.rs.minuscule[b], case.rank - 1)) % 2]
    assert len(want) == len(sys.lambdas)
    for l_idx, (got, ref) in enumerate(zip(sys.lambdas, want)):
        assert got == ref and repr(got) == repr(ref)
        assert lambda_from(case, ref.bullet_index, ref.digits) == ref
        a, b, bullet = fraction_start(case, ref)
        assert sys._u[l_idx] == b and sys.index(ref.key()) == l_idx
        assert sys._bullet_of[sys._class_key(bullet)] == ref.bullet_index
        assert sys.carry(0, a) == (l_idx, tuple(-c for c in bullet))
        assert locate(sys, [a]) == ([l_idx], [list(bullet)])
    assert _grid(case)[0] == tuple(case.p * copairing(case.rs, case.x, i) for i in range(case.rank))
    assert len(packed_numbering(sys)) == len(want)


# rank <= 3, every variant, m <= 3
RECORD_CASES = [(name, variant, m) for name in ("A1", "A2", "A3", "B1", "B2", "B3", "C2",
                                                "C3", "D3", "G2")
                for variant in ("nonsuper", "super", "ramond") for m in (1, 2, 3)
                if variant == "nonsuper" or name.startswith("B")]


# the rank <= 4 layouts of the sweep over W, every variant
AGREEMENT_CASES = [
    *[(name, "nonsuper", m) for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
      for m in (1, 2, 3)],
    *[(name, variant, m) for name in ["B2", "B3"] for variant in ["super", "ramond"]
      for m in (1, 2, 3)],
    ("A4", "nonsuper", 1), ("D4", "nonsuper", 1), ("B4", "nonsuper", 1),
    ("C4", "nonsuper", 1), ("F4", "nonsuper", 1), ("B4", "super", 1),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_records_on_demand_match_the_eager_transversal(data):
    # a coset's record is built on its first request, through whichever of
    # lambda_from, lambda_of_value, enumerate_lambda and w_act asks first;
    # every later call returns that same object, equal to the eager
    # transversal's record, and a super case and its Ramond case share it
    name, variant, m = data.draw(st.sampled_from(RECORD_CASES))
    case = make_case(name, variant, m)
    twin = make_case(name, {"super": "ramond", "ramond": "super"}.get(variant, variant), m)
    for cache in (system, _cosets):
        cache.cache_clear()
    want = eager_transversal(case)
    where = {lamp.key(): i for i, lamp in enumerate(want)}
    weyl, seen, every = case.rs.enumerate_weyl(), {}, []

    def check(got):
        ref = want[where[got.key()]]
        assert got == ref and repr(got) == repr(ref)
        assert seen.setdefault(got.key(), got) is got

    calls = st.sampled_from(["from", "value", "all", "act"])
    for call in data.draw(st.lists(calls, min_size=1, max_size=10)):
        on, ref = data.draw(st.sampled_from([case, twin])), data.draw(st.sampled_from(want))
        if call == "from":
            check(lambda_from(on, ref.bullet_index, ref.digits))
        elif call == "value":
            # any point of the coset: the representative moved by an element of Q
            q = data.draw(st.lists(st.integers(-2, 2), min_size=case.rank, max_size=case.rank))
            got = lambda_of_value(on, tuple(v + c for v, c in zip(ref.value, q)))
            assert got.key() == ref.key()
            check(got)
        elif call == "all":
            lams = enumerate_lambda(on)
            every.append(lams)
            assert lams is every[0] and len(lams) == len(want)
            for got in lams:
                check(got)
        else:
            check(w_act(data.draw(st.sampled_from(weyl)), ref, on))


@pytest.mark.parametrize("name,variant,m", [("A1", "nonsuper", 3), ("A2", "nonsuper", 2),
                                            ("B2", "super", 2), ("B3", "ramond", 2),
                                            ("D4", "nonsuper", 1), ("G2", "nonsuper", 3)])
def test_layout_cap_counts_every_coset(monkeypatch, name, variant, m):
    # the count under the cap is the layout's own, the super family's parity
    # rule included: at the count the layout builds, one below it refuses
    case = make_case(name, variant, m)
    count = len(eager_transversal(case))
    _cosets.cache_clear()
    monkeypatch.setattr(shift_module, "COSET_CAP", count - 1)
    with pytest.raises(CapExceededError, match=f": {count} cosets exceed the cap {count - 1}$"):
        _cosets(case)
    monkeypatch.setattr(shift_module, "COSET_CAP", count)
    assert len(_cosets(case)._u) == count
    _cosets.cache_clear()


def test_layout_cap_refuses_before_allocating():
    # A1 at m = 10^11 has 2 * 10^11 cosets; the count comes from the digit
    # bounds, so the layout refuses before it builds any coset
    case = make_case("A1", "nonsuper", 10**11)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="200000000000 cosets exceed the cap"):
            _cosets(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
def test_alcove_inequality_matches_fraction_oracle(name, variant, m):
    # the digits against theta_L's integer coroot marks, on every coset,
    # against the Fraction pairing on root coordinates
    case = make_case(name, variant, m)
    for lamp in enumerate_lambda(case):
        assert alcove_inequality(lamp, case) == alcove_inequality_fraction(lamp, case), \
            lamp.label()
    # the marks are the record's (build_root_system checks their integrality):
    # doubling them doubles theta_L, which is derived from them, and keeps the
    # two routes equal
    rs = case.rs
    twice = case._replace(rs=rs._replace(theta_L_marks=tuple(2 * c for c in rs.theta_L_marks)))
    assert twice.rs.theta_L == vscale(2, rs.theta_L)
    for lamp in enumerate_lambda(case):
        assert alcove_inequality(lamp, twice) == alcove_inequality_fraction(lamp, twice), \
            lamp.label()


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lambda_of_value_matches_fraction_route(name, variant, m, data):
    # mu = lambda.value + gamma for gamma in Q located on labels, against
    # canonical_decompose and the minuscule scan; mu off (1/p)Q* is refused
    # by both
    case = make_case(name, variant, m)
    lamp = data.draw(st.sampled_from(enumerate_lambda(case)))
    gamma = data.draw(st.tuples(*[st.integers(-3, 3)] * case.rank))
    mu = vadd(lamp.value, tuple(Fraction(c) for c in gamma))
    assert lambda_of_value(case, mu) == lambda_of_value_fraction(case, mu) == lamp
    off = (mu[0] + Fraction(1, 12 * case.p),) + mu[1:]
    for route in (lambda_of_value, lambda_of_value_fraction):
        with pytest.raises(ValueError, match="is not in"):
            route(case, off)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_lambda_of_value_reads_no_weyl_group(name, monkeypatch):
    # locating a coset needs only the coset tables, so it works on E7 and
    # E8, whose Weyl groups exceed the enumeration cap
    def refuse(self):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(RootSystem, "weyl_table", refuse)
    case = make_case(name, "nonsuper", 1)
    for lamp in enumerate_lambda(case):
        for root in case.rs.positive_roots[:5]:
            mu = vsub(lamp.value, root)
            assert lambda_of_value(case, mu) == lambda_of_value_fraction(case, mu) == lamp


def test_lambda_round_trip():
    for case in (A1P2, make_case("B2", "super", 3), make_case("C3", "nonsuper", 1)):
        for lamp in enumerate_lambda(case):
            assert lambda_of_value(case, lamp.value) == lamp


# -- the action and the shift map ----------------------------------------------

def test_rank1_action_walkthrough():
    rs = A1P2.rs
    s1 = rs.element_from_word((0,))
    l01, l02 = lam(A1P2, 0, 1), lam(A1P2, 0, 2)
    assert w_act(s1, l01, A1P2).key() == (1, (1,))
    assert w_act(s1, l02, A1P2).key() == (0, (2,))
    assert shift_map(s1, l01, A1P2) == (Fraction(-1, 2),)   # -w
    assert shift_map(s1, l02, A1P2) == (Fraction(-1),)      # -alpha
    assert shift_map(rs.identity_element(), l01, A1P2) == vzero(1)
    assert not is_fixed(0, l01, A1P2)
    assert is_fixed(0, l02, A1P2)


def test_fixed_iff_box_pairing_one():
    for case in (make_case("A2", "nonsuper", 2), make_case("B2", "nonsuper", 2),
                 make_case("B2", "super", 3)):
        rs = case.rs
        for lamp in enumerate_lambda(case):
            box = vadd(lamp.value, lamp.bullet_up)
            for i in range(rs.rank):
                t = copairing(rs, vadd(box, case.x), i)
                assert is_fixed(i, lamp, case) == (t == 1)


def test_group_action_law():
    for case in (A1P2, make_case("B2", "nonsuper", 2), make_case("B2", "super", 2),
                 make_case("A2", "nonsuper", 2)):
        rs = case.rs
        elems = rs.enumerate_weyl()
        for lamp in enumerate_lambda(case):
            for a in elems:
                for b in elems:
                    ab = rs.weyl_mul(a, b)
                    assert w_act(ab, lamp, case) == \
                        w_act(a, w_act(b, lamp, case), case)


def test_simple_action_moves_along_coroot():
    # sigma_i * lam differs from lam by the screening step s/p * coroot_i
    for case in (make_case("B2", "nonsuper", 2), make_case("B2", "super", 3)):
        rs = case.rs
        for lamp in enumerate_lambda(case):
            for i in range(rs.rank):
                moved = w_act(rs.element_from_word((i,)), lamp, case)
                diff = vsub(lamp.value, moved.value)
                step = copairing(rs, vadd(lamp.value, case.x), i)
                target = vscale(step, rs.simple_roots[i])
                # equal modulo the root lattice (representatives are canonical)
                assert rs.in_root_lattice(vsub(diff, target))


@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_carry_route_matches_the_table_route(name, variant, m):
    # w_act and shift_map carry w(u) along w's word; the rows over W compose
    # the simple shifts by the cocycle along W's enumeration: the same record
    # and shift on every coset and every w
    case = make_case(name, variant, m)
    sys = system(case)
    for l_idx, lamp in enumerate(enumerate_lambda(case)):
        act, shift = sys.row(l_idx)
        for w_idx, w in enumerate(sys.weyl):
            assert w_act(w, lamp, case) is sys.record(act[w_idx])
            assert shift_map(w, lamp, case) == case.rs.from_labels(shift[w_idx])


def test_carry_route_reads_no_weyl_table():
    # as for the axioms: on fresh cases, the action and the shift map of w0
    # and of every simple reflection enumerate no Weyl group and build no
    # system, on B4 super and on E7, whose W exceeds the enumeration cap
    for cache in (_enumerate_weyl_cached, system, _cosets):
        cache.cache_clear()
    for case in (make_case("B4", "super", 1), make_case("E7", "nonsuper", 2)):
        rs = case.rs
        elems = [rs.longest_element()] + [rs.element_from_word((i,)) for i in range(rs.rank)]
        for lamp in enumerate_lambda(case):
            for w in elems:
                w_act(w, lamp, case)
                shift_map(w, lamp, case)
    assert _enumerate_weyl_cached.cache_info().currsize == 0
    assert system.cache_info().currsize == 0


E_CASES = [("E6", 2), ("E7", 2), ("E8", 1)]


@pytest.mark.parametrize("name,m", E_CASES)
def test_w0_shift_map_on_e_types(name, m):
    # past the enumeration cap on E7 and E8: the carry of w0(u) is the
    # shift that the walk along w0's canonical word composes, and w0, an
    # involution, acts as one
    case = make_case(name, "nonsuper", m)
    w0 = case.rs.longest_element()
    for lamp in enumerate_lambda(case):
        assert shift_map(w0, lamp, case) == w0_shift(lamp, case), lamp.label()
        assert w_act(w0, w_act(w0, lamp, case), case) is lamp


@pytest.mark.parametrize("name,m", E_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_action_law_on_e_types(name, m, data):
    # (ab) * lambda = a * (b * lambda) on words drawn on E6-E8
    case = make_case(name, "nonsuper", m)
    rs = case.rs
    words = st.lists(st.integers(0, rs.rank - 1), max_size=3 * rs.rank)
    a, b = (rs.element_from_word(data.draw(words)) for _ in range(2))
    lamp = data.draw(st.sampled_from(enumerate_lambda(case)))
    assert w_act(rs.weyl_mul(a, b), lamp, case) == w_act(a, w_act(b, lamp, case), case)


@pytest.mark.parametrize("name", ["A1", "B3", "E7"])
def test_foreign_weyl_element_is_refused(name):
    # an element whose labels its word does not give, or with a letter
    # outside the nodes (a negative letter would index the nodes from the
    # end), is no element of this W: both routes refuse it
    case = make_case(name, "nonsuper", 1)
    rs, r, lamp = case.rs, case.rank, enumerate_lambda(case)[0]
    last = rs.element_from_word((r - 1,))
    for w in (WeylElement((0,), (1,) * r), WeylElement((r,), last.labels),
              WeylElement((-1,), last.labels), WeylElement((), (1,) * (r + 1)),
              WeylElement((), (0,) * r)):
        for route in (w_act, shift_map):
            with pytest.raises(ValueError, match="W"):
                route(w, lamp, case)


# -- axioms and the report -------------------------------------------------------

@pytest.mark.parametrize("name,variant,m", [
    ("A1", "nonsuper", 2),
    ("A2", "nonsuper", 2),
    ("B2", "nonsuper", 1),
    ("B2", "super", 2),
    ("B2", "ramond", 2),
    ("G2", "nonsuper", 1),
])
def test_axioms_pass(name, variant, m):
    report = verify_axioms(make_case(name, variant, m))
    assert report.ok, report.failures[:3]
    assert report.counts["checks"] > 0


def test_axioms_rank4_small_m():
    # light members of the rank-4 families keep the sweep honest beyond rank 3
    for name, variant, m in [("A4", "nonsuper", 1), ("D4", "nonsuper", 1),
                             ("B4", "nonsuper", 1), ("C4", "nonsuper", 1),
                             ("F4", "nonsuper", 1), ("B4", "super", 1)]:
        report = verify_axioms(make_case(name, variant, m))
        assert report.ok, (name, report.failures[:2])


def test_group_action_law_rank3_sampled():
    import random
    rng = random.Random(3)
    case = make_case("C3", "nonsuper", 1)
    rs = case.rs
    elems = rs.enumerate_weyl()
    lams = enumerate_lambda(case)
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        lamp = rng.choice(lams)
        assert w_act(rs.weyl_mul(a, b), lamp, case) == \
            w_act(a, w_act(b, lamp, case), case)


def test_report_serialization():
    report = verify_axioms(A1P2)
    d = report.to_json_dict()
    assert d["case"] == "A1:nonsuper:m=2"
    assert len(d["weak"]) == 4
    csv = report.to_csv()
    assert csv.splitlines()[0] == "lambda,weak,strong,alcove,w0_shift"
    assert len(csv.splitlines()) == 5


# -- verify_axioms reports a corrupted layout -----------------------------------

B2P4 = make_case("B2", "nonsuper", 2)


@pytest.fixture
def fresh():
    """A fresh B2 m=2 layout to corrupt.  The layout and system caches, and
    with them the stored verifications and condition tables, are cleared
    before and after, so no other test sees the corrupted layout."""
    for cache in (system, _cosets):
        cache.cache_clear()
    yield _cosets(B2P4)
    for cache in (system, _cosets):
        cache.cache_clear()


def simple_cell(table, fixed):
    """(coset, letter) of the layout whose simple reflection fixes the coset,
    or moves it."""
    return next((l_idx, i) for l_idx in range(len(table.lambdas))
                for i in range(table.case.rank)
                if (table.simple(l_idx)[0][i] == l_idx) == fixed)


def moved_start(table, l_idx):
    """Coset l_idx's box labels u moved by p * alpha_1: the point u - p *
    bullet stays in its coset, and its bullet moves by -alpha_1."""
    p, col = table.case.p, table.cols[0]
    table._u[l_idx] = tuple(v + p * c for v, c in zip(table._u[l_idx], col))


def negated_coroot(case, monkeypatch):
    """The cached coroot table with the highest root's coroot negated, which
    swaps t(beta) and t(-beta) (ShiftSystem.root_shifts); returns (its index,
    the root)."""
    roots = list(shift_module._coroots(case.rs))
    k = max(range(len(roots)), key=lambda k: sum(roots[k][0]))
    beta, co = roots[k]
    roots[k] = beta, tuple(-c for c in co)
    monkeypatch.setattr(shift_module, "_coroots", lambda rs: tuple(roots))
    return k, beta


def root_labels(rs, beta):
    return tuple(sum(map(mul, row, beta)) for row in rs.cartan)


def test_axioms_report_identity(fresh):
    moved_start(fresh, 1)
    report = verify_axioms(B2P4)
    assert {"check": "identity", "lambda": fresh.lambdas[1].label()} in report.failures


@pytest.mark.parametrize("fixed", [True, False])
def test_axioms_report_simple_shifts(fresh, fixed):
    # a fixed coset's simple shift must be -alpha_i, a moved one's must pair
    # to -1 with alpha_i^vee; the layout's cached simple shift is corrupted
    l_idx, i = simple_cell(fresh, fixed)
    shift = fresh.simple(l_idx)[1]
    bad = list(shift[i])
    bad[0 if fixed else i] -= 1
    shift[i] = tuple(bad)
    report = verify_axioms(B2P4)
    label = fresh.lambdas[l_idx].label()
    if fixed:
        want = {"check": "fixed-shift", "lambda": label, "i": i + 1,
                "got": str(B2P4.rs.from_labels(bad))}
    else:
        want = {"check": "pairing-minus-one", "lambda": label, "i": i + 1, "got": "-2"}
    assert want in report.failures
    assert report.rows == ()


def test_axioms_report_pair_sum(fresh):
    # off the i-th label the pairing check passes and only the pair sum fails
    l_idx, i = simple_cell(fresh, fixed=False)
    shift = fresh.simple(l_idx)[1]
    bad = list(shift[i])
    bad[1 - i] += 1
    shift[i] = tuple(bad)
    report = verify_axioms(B2P4)
    label = fresh.lambdas[l_idx].label()
    assert {"check": "pair-sum", "lambda": label, "i": i + 1} in report.failures
    assert not any(f["check"] == "pairing-minus-one" for f in report.failures)


def test_axioms_report_cocycle(fresh):
    # the simple shifts of a moved pair (n, s_i * n) changed by +delta and
    # -delta off label i pass the dichotomy and the pair sum, but a walk of
    # the canonical word that takes letter i at n on its second step no
    # longer composes to the direct shift there: the witness is i and the
    # element of the first step
    word = B2P4.rs.longest_element().word
    first, i = word[-1], word[-2]
    l_idx, n = next((l, m) for l in range(len(fresh.lambdas))
                    for m in [fresh.simple(l)[0][first]] if fresh.simple(m)[0][i] != m)
    delta = tuple(int(k != i) for k in range(B2P4.rank))
    for at, sign in [(n, 1), (fresh.simple(n)[0][i], -1)]:
        shift = fresh.simple(at)[1]
        shift[i] = tuple(v + sign * d for v, d in zip(shift[i], delta))
    report = verify_axioms(B2P4)
    want = {"check": "cocycle", "lambda": fresh.lambdas[l_idx].label(), "i": i + 1,
            "word": [first]}
    assert want in report.failures
    assert {f["check"] for f in report.failures} == {"cocycle"}
    # the next report copies the stored witnesses, not this report's lists
    next(f for f in report.failures if f == want)["word"].append(0)
    assert want in verify_axioms(B2P4).failures


@pytest.mark.parametrize("ascent", [True, False])
def test_axioms_report_length_sign(fresh, monkeypatch, ascent):
    # the pairing (w ^ lam, alpha_i^vee) is >= 0 on an ascent and < 0 on a
    # descent: t(beta) >= 0 for beta > 0 and t(beta) < 0 for beta < 0.  With
    # the highest root's coroot negated, t(beta) and t(-beta) swap, so beta
    # fails on the ascent side and -beta on the descent side; the record
    # carries the swapped value and a word of some w with w^-1 alpha_i =
    # beta (resp. -beta), which reflect_along confirms on the labels
    want = fresh.root_shifts(0)
    k, beta = negated_coroot(B2P4, monkeypatch)
    report = verify_axioms(B2P4)
    check = "ascent-nonnegative" if ascent else "descent-negative"
    found = [f for f in report.failures
             if f["check"] == check and f["lambda"] == fresh.lambdas[0].label()]
    assert len(found) == 1
    record, rs = found[0], B2P4.rs
    assert record["pairing"] == str(want[k][1 if ascent else 0])
    target = root_labels(rs, beta if ascent else tuple(-v for v in beta))
    assert rs.reflect_along(record["word"][::-1], fresh.cols[record["i"] - 1]) == target
    assert {f["check"] for f in report.failures} == {"ascent-nonnegative", "descent-negative"}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_root_word_reaches_every_root(name):
    # the witness word of each root beta and of -beta names a w with w^-1
    # alpha_i = beta (resp. -beta)
    rs = make_case(name, "nonsuper", 1).rs
    roots = shift_module._coroots(rs)
    assert len(roots) == len(rs.positive_roots)
    for beta, _ in roots:
        for negative in (False, True):
            i, word = shift_module._root_word(rs.cartan, beta, negative)
            want = root_labels(rs, tuple(-v for v in beta) if negative else beta)
            assert rs.reflect_along(word[::-1], rs.root_labels()[i]) == want


def test_w0_shift_refuses_a_row_that_does_not_compose(fresh):
    # coset 1's simple-shift row off by alpha_1 at the canonical walk's first
    # letter no longer composes to the direct shift: the axioms record a
    # cocycle failure at the identity and fill no table, and the condition
    # walk that w0_shift reads raises on it
    first, shift = B2P4.rs.longest_element().word[-1], fresh.simple(1)[1]
    shift[first] = tuple(v + c for v, c in zip(shift[first], fresh.cols[0]))
    report = verify_axioms(B2P4)
    assert {"check": "cocycle", "lambda": fresh.lambdas[1].label(), "i": first + 1,
            "word": []} in report.failures
    assert not report.ok and report.rows == ()
    with pytest.raises(AssertionError, match="composition disagrees"):
        w0_shift(fresh.lambdas[1], B2P4)


@pytest.mark.parametrize("variant,flags", [
    ("nonsuper", "--algebra B2 --variant nonsuper --m 2"),
    # a Ramond report copies the failures of the layout it shares with its
    # super case, and its repro names the Ramond case
    ("ramond", "--algebra B2 --variant ramond --m 2"),
])
def test_cli_failure_records_carry_repro(fresh, monkeypatch, capsys, variant, flags):
    # the highest root's coroot negated fails the axioms' sign checks, and a
    # strong coset's strong condition flipped on the canonical word no
    # longer matches the alcove one and depends on the word; every failure
    # record that the three commands print names the command that prints it
    # again
    case = make_case("B2", variant, 2)
    table = _cosets(case)
    l_idx = next(i for i, lamp in enumerate(table.lambdas) if alcove_inequality(lamp, case))
    word = case.rs.longest_element().word
    negated_coroot(case, monkeypatch)
    walk = ShiftSystem.walk

    def broken(self, at, along=None):
        walked = walk(self, at, along)
        flip = at == l_idx and self.w0_word(along) == word
        return walked._replace(strong=walked.strong and not flip)

    monkeypatch.setattr(ShiftSystem, "walk", broken)
    for command, extra in [("check axioms", ""), ("check weak-strong", ""), ("lambda", "")]:
        assert cli.main(f"{command} {flags}{extra}".split()) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures
        assert all(f["repro"] == f"shiftlab {command} {flags}{extra}" for f in failures)
    checks = {f["check"] for f in failures}
    assert "strong-alcove-mismatch" in checks


def test_w0_shift_off_its_closed_form_is_a_failure_record(fresh, monkeypatch, capsys):
    # on the strong region w0 ^ lambda is -rho in labels; a strong coset's
    # composed w0 shift moved by alpha_1, with its strong verdicts kept, is
    # the one failure record, which shows the moved shift, and the CLI exits 1
    l_idx = next(i for i, lamp in enumerate(fresh.lambdas) if alcove_inequality(lamp, B2P4))
    label, conditions = fresh.lambdas[l_idx].label(), fresh.conditions
    moved = tuple(-1 + c for c in fresh.cols[0])

    def shifted(at):
        weak, strong, shift, telescoped = conditions(at)
        assert at != l_idx or shift == (-1, -1)
        return weak, strong, moved if at == l_idx else shift, telescoped

    monkeypatch.setattr(fresh, "conditions", shifted)
    got = list(map(str, B2P4.rs.from_labels(moved)))
    report = condition_report(B2P4)
    assert report.failures == [{"check": "w0-shift-target", "lambda": label, "got": got}]
    assert cli.main(["lambda", "--algebra", "B2", "--m", "2"]) == 1
    repro = "shiftlab lambda --algebra B2 --variant nonsuper --m 2"
    assert json.loads(capsys.readouterr().out)["failures"] == [
        {"check": "w0-shift-target", "lambda": label, "got": got, "repro": repro}]


def test_word_dependence_is_a_failure_record(fresh, monkeypatch, capsys):
    # every reduced word of w0 gives the verdict "t(beta) = 0 on every
    # positive root", read off root_shifts; a strong coset's first t moved to
    # 1 disagrees with the canonical walk on that coset alone: one failure
    # record, the CLI exits 1, and check_strong_all_words raises there only
    l_idx = next(i for i, lamp in enumerate(fresh.lambdas) if alcove_inequality(lamp, B2P4))
    label, root_shifts = fresh.lambdas[l_idx].label(), fresh.root_shifts

    def moved(at):
        (t, back), *rest = root_shifts(at)
        return [(t + (at == l_idx), back), *rest]

    monkeypatch.setattr(fresh, "root_shifts", moved)
    report = condition_report(B2P4, all_words=True)
    assert report.failures == [{"check": "strong-word-dependence", "lambda": label}]
    assert cli.main(["check", "weak-strong", "--algebra", "B2", "--m", "2"]) == 1
    repro = "shiftlab check weak-strong --algebra B2 --variant nonsuper --m 2"
    assert json.loads(capsys.readouterr().out)["failures"] == [
        {"check": "strong-word-dependence", "lambda": label, "repro": repro}]
    for at, lamp in enumerate(fresh.lambdas):
        if at == l_idx:
            with pytest.raises(WordDependenceError, match="depends on the reduced word"):
                check_strong_all_words(lamp, B2P4)
        else:
            assert check_strong_all_words(lamp, B2P4) == check_strong(lamp, B2P4)


# -- the exhaustive walk over W (tests/oracles.py) --------------------------------

@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_axioms_over_roots_match_the_walk_over_w(name, variant, m):
    # acceptance criterion 1's sweep and the rank-4 cases: both routes find
    # no failure and give the same tables; label i of w ^ lambda on the W
    # table is t(beta) of the root beta = w^-1 alpha_i on every (coset, w,
    # i), s_i w > w exactly when beta > 0, and every root is reached, so per
    # coset the (sign, pairing) pairs over roots are those over (w, i)
    case = make_case(name, variant, m)
    got, want = verify_axioms(case).to_json_dict(), axioms_over_w(case)
    assert got["failures"] == want["failures"] == []
    for key in ("weak", "strong", "alcove", "w0_shift"):
        assert got[key] == want[key], key
    rs, sys, table, r = case.rs, system(case), _cosets(case), case.rank
    where = {}
    for k, (beta, _) in enumerate(shift_module._coroots(rs)):
        where[root_labels(rs, beta)] = k, 0
        where[root_labels(rs, tuple(-v for v in beta))] = k, 1
    lengths = [w.length for w in sys.weyl]
    cells = [(w_idx, i, where[rs.reflect_along(w.word[::-1], table.cols[i])])
             for w_idx, w in enumerate(sys.weyl) for i in range(r)]
    assert {kn for _, _, kn in cells} == set(where.values())
    left = left_table(rs)
    assert all((lengths[left[i][w_idx]] > lengths[w_idx]) == (n == 0)
               for w_idx, i, (_, n) in cells)
    for l_idx in range(len(table.lambdas)):
        shift, roots = sys.row(l_idx)[1], table.root_shifts(l_idx)
        assert all(shift[w_idx][i] == roots[k][n] for w_idx, i, (k, n) in cells)
        assert {(n == 0, roots[k][n]) for _, _, (k, n) in cells} == \
            {(lengths[left[i][w_idx]] > lengths[w_idx], shift[w_idx][i])
             for w_idx in range(len(sys.weyl)) for i in range(r)}


@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_rows_by_the_cocycle_match_the_located_orbits(name, variant, m):
    # every cell of the system's rows, composed by the cocycle along the
    # enumeration, against the cell located on its own from the orbits of
    # lambda + x and of the bullet
    sys = system(make_case(name, variant, m))
    for l_idx in range(len(sys.lambdas)):
        assert sys.row(l_idx) == orbit_row(sys, l_idx)


@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_one_pass_walk_matches_the_two_pass_oracle(name, variant, m):
    # on every coset, along the canonical word: strong, telescoped, the
    # composed w0 shift and the first prefix that does not compose (None on
    # a sound layout), against the walk that lists every prefix first
    table = _cosets(make_case(name, variant, m))
    word = table.w0_word()
    for l_idx in range(len(table._u)):
        assert table.walk(l_idx) == walk_two_pass(table, l_idx, word)


def test_one_pass_walk_matches_the_oracle_on_every_word_of_w0():
    # all 42 reduced words of w0 in B3 m=2, on every coset
    case = make_case("B3", "nonsuper", 2)
    table = _cosets(case)
    words = case.rs.all_reduced_words(case.rs.longest_element())
    assert len(words) == 42
    for word in words:
        for l_idx in range(len(table._u)):
            assert table.walk(l_idx, word) == walk_two_pass(table, l_idx, word)


@pytest.mark.parametrize("corrupt", ["simple shift", "box labels"])
def test_one_pass_walk_finds_the_oracles_bad_prefix(fresh, corrupt):
    # simple shifts that no longer compose to the direct shift: one coset's
    # simple shift at the canonical word's second letter moved off the
    # carry, or the strong coset 0's box labels moved by p * alpha_1 after
    # every simple shift was carried, which keeps its walk strong while no
    # prefix's direct shift is the sum of its simple shifts.  Every coset's
    # walk gives the oracle's four entries, and the condition walk raises
    # where a prefix does not compose
    word = fresh.w0_word()
    if corrupt == "simple shift":
        i, n = word[-2], fresh.simple(0)[0][word[-1]]
        shift = fresh.simple(n)[1]
        shift[i] = tuple(v + c for v, c in zip(shift[i], fresh.cols[i]))
    else:
        for l_idx in range(len(fresh._u)):
            fresh.simple(l_idx)
        moved_start(fresh, 0)
    got = [fresh.walk(l_idx) for l_idx in range(len(fresh._u))]
    assert got == [walk_two_pass(fresh, l_idx, word) for l_idx in range(len(fresh._u))]
    assert got[0].bad == (1 if corrupt == "simple shift" else 0)
    if corrupt == "box labels":
        assert got[0].strong and not got[0].telescoped
    for l_idx, walked in enumerate(got):
        assert fresh._walked(l_idx) == walked.bad
        if walked.bad is not None:
            with pytest.raises(AssertionError, match="cocycle composition disagrees"):
                fresh.conditions(l_idx)


def test_one_shift_system_per_layout():
    # a super case and its Ramond case share one shift system, which carries
    # no Weyl enumeration until system attaches it; system returns the layout
    for cache in (system, _cosets):
        cache.cache_clear()
    sup, ram = make_case("B2", "super", 2), make_case("B2", "ramond", 2)
    layout = _cosets(ram)
    assert layout.weyl is None and layout._act == layout._shift == {}
    assert system(sup) is system(ram) is _cosets(sup) is layout
    assert layout.weyl == sup.rs.enumerate_weyl()
    assert len(layout.weyl) == weyl_order(sup.rs.lie_type) == len({w.labels for w in layout.weyl})


@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_carry_matches_the_packed_numbering(name, variant, m):
    # on every coset, the identity and every simple direction: the carry of
    # v = s_i(u) against the oracle, which locates s_i(lambda + x) by its
    # packed key and reads s_i ^ lambda off the reflected bullet; the cached
    # simple shifts are the carry's
    table = _cosets(make_case(name, variant, m))
    p = table.case.p
    for l_idx, (b_idx, u) in enumerate(zip(table._b, table._u)):
        bullet = table.rs.minuscule_labels[b_idx]
        a = tuple(v - p * c for v, c in zip(u, bullet))
        assert table.carry(b_idx, u) == (l_idx, (0,) * len(u))
        assert locate(table, [a]) == ([l_idx], [list(bullet)])
        act, shift = table.simple(l_idx)
        for i, col in enumerate(table.reflect_cols):
            (target,), (moved,) = locate(table, [reflect_labels(a, i, col)])
            want = target, tuple(map(sub, reflect_labels(bullet, i, col), moved))
            assert table.carry(b_idx, reflect_labels(u, i, col)) == want == (act[i], shift[i])


@pytest.mark.parametrize("name,variant,m", AGREEMENT_CASES)
def test_derived_digits_labels_and_records_match_the_packed_numbering(name, variant, m):
    # the layout keeps per coset only its bullet index and box labels u, and
    # reads the digits (u // x), the label and the record off them; the
    # oracle numbers the digit grid itself by packed keys, and the eager
    # transversal builds the records over that grid
    case = make_case(name, variant, m)
    table, p = _cosets(case), case.p
    numbering, want = packed_numbering(table), eager_transversal(case)
    assert len(table._b) == len(table._u) == len(numbering) == len(want)
    for (b_idx, _, digits), (key, l_idx), ref in zip(digit_grid(case), numbering.items(), want):
        packed = table._class_key(case.rs.minuscule_labels[table._b[l_idx]])
        for v in table._u[l_idx]:
            packed = packed * (p + 1) + v
        assert packed == key and table._b[l_idx] == b_idx
        assert table.record(l_idx) == ref and ref.digits == digits
        assert table.label(l_idx) == ref.label() == table.rows[l_idx][0]


# every length class and lacing, and the super family's odd p
MEMBER_CASES = [(name, "nonsuper", m) for name in ("A1", "A2", "A3", "B2", "C2", "C3", "G2",
                                                   "F4", "D4", "E6") for m in (1, 2, 3)] + \
    [(f"B{r}", "super", m) for r in (1, 2, 3) for m in (1, 2, 3)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scaled_point_refuses_exactly_the_gram_routes_non_members(data):
    # mu in (1/p)Q* is decided on the integer labels (p * ell_i * labels_i
    # divisible by lacing * their denominator); the oracle pairs mu with
    # each simple root through the Gram matrix.  Root coordinates with
    # denominators 1, 2, 3, 4, 6, p, 2p and 3p give members and non-members
    # alike; a member's labels are p * labels(mu + x), a non-member's error
    # is the oracle's
    case = make_case(*data.draw(st.sampled_from(MEMBER_CASES)))
    p, rs = case.p, case.rs
    dens = st.sampled_from((1, 2, 3, 4, 6, p, 2 * p, 3 * p))
    mu = tuple(Fraction(data.draw(st.integers(-12, 12)), data.draw(dens))
               for _ in range(case.rank))
    try:
        check_member_gram(mu, case)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _scaled_point(mu, case)
        assert str(got.value) == str(exc)
    else:
        assert _scaled_point(mu, case) == \
            [p * copairing(rs, vadd(mu, case.x), i) for i in range(case.rank)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_carry_along_words_matches_the_oracle(data):
    # a random coset, a random prefix of a reduced word and a random element
    # gamma of Q: the carry of w(u) against the oracle's location of w(lambda
    # + x) and w(bullet) - bullet', and at the point mu = w(lambda + x) - x +
    # gamma canonical_decompose and lambda_of_value against the oracle's
    # location of a = p * labels(mu + x)
    case = make_case(*data.draw(st.sampled_from(AGREEMENT_CASES)))
    table, p, rs = _cosets(case), case.p, case.rs
    l_idx = data.draw(st.integers(0, len(table._u) - 1))
    b_idx, u = table._b[l_idx], table._u[l_idx]
    bullet = rs.minuscule_labels[b_idx]
    w = data.draw(st.sampled_from(rs.enumerate_weyl()))
    word = w.word[:data.draw(st.integers(0, len(w.word)))]
    a = rs.reflect_along(word, tuple(v - p * c for v, c in zip(u, bullet)))
    (target,), (moved,) = locate(table, [a])
    assert table.carry(b_idx, rs.reflect_along(word, u)) == \
        (target, tuple(map(sub, rs.reflect_along(word, bullet), moved)))
    gamma = data.draw(st.tuples(*[st.integers(-3, 3)] * case.rank))
    a = tuple(v + p * sum(map(mul, row, gamma)) for v, row in zip(a, rs.cartan))
    mu = rs.from_labels([v - s for v, s in zip(a, _grid(case)[0])], p)
    (target,), (found,) = locate(table, [a])
    assert lambda_of_value(case, mu) is table.record(target)
    got, box = canonical_decompose(mu, case)
    assert got == rs.from_labels(found) and box == vadd(mu, got)


def test_both_axiom_routes_flag_a_moved_start(fresh):
    # coset 1's box labels moved by p * alpha_1, which the layout's carry
    # and the oracle's rows (orbit_row) both read: the identity shifts by
    # alpha_1, and both routes flag coset 1
    moved_start(fresh, 1)
    label = fresh.lambdas[1].label()
    for failures in (verify_axioms(B2P4).failures, axioms_over_w(B2P4)["failures"]):
        assert {"check": "identity", "lambda": label} in failures


def test_verify_axioms_reads_no_weyl_table():
    # on a fresh case the axioms enumerate no Weyl group and build no system
    for cache in (_enumerate_weyl_cached, system, _cosets):
        cache.cache_clear()
    assert verify_axioms(make_case("B4", "super", 1)).ok
    assert _enumerate_weyl_cached.cache_info().currsize == 0
    assert system.cache_info().currsize == 0


def test_oracle_refuses_labels_past_the_packing_guard(fresh):
    # +R in one label and -1 in the next packs to the same integer, so the
    # oracle's cocycle comparison alone would pass it; the guard refuses it,
    # and a label at the guard, in an oracle row of a fresh system
    sys = system(B2P4)
    w_idx = next(k for k, w in enumerate(sys.weyl) if w.length == 2)
    row = orbit_row(sys, 0)[1]
    good = row[w_idx]
    collide = (good[0] + PACK_RADIX, good[1] - 1)
    assert collide[0] + collide[1] * PACK_RADIX == good[0] + good[1] * PACK_RADIX
    for bad in (collide, (PACK_GUARD, good[1]), (good[0], -PACK_GUARD)):
        row[w_idx] = bad
        with pytest.raises(AssertionError, match="packing guard"):
            axioms_over_w(B2P4)


def test_pack_guard():
    assert pack([(PACK_GUARD - 1, 1 - PACK_GUARD)]) == \
        [PACK_GUARD - 1 - (PACK_GUARD - 1) * PACK_RADIX]
    for bad in [(PACK_GUARD, 0), (0, -PACK_GUARD)]:
        with pytest.raises(AssertionError, match="packing guard"):
            pack([(0, 0), bad])


GUARDED = st.integers(1 - PACK_GUARD, PACK_GUARD - 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_cocycle_matches_tuples(data):
    # inside the guard, with Cartan entries of at most 3, the oracle's packed
    # comparison P(lhs) == P(a) - c P(col) + P(d) holds exactly when the
    # vectors agree; lhs is drawn at random, as the true side clipped to the
    # guard, or one label off it
    r = data.draw(st.integers(1, 8))
    vec = st.tuples(*[GUARDED] * r)
    a, d, c = data.draw(vec), data.draw(vec), data.draw(GUARDED)
    col = data.draw(st.tuples(*[st.integers(-3, 3)] * r))
    want = tuple(x - c * y + z for x, y, z in zip(a, col, d))
    near = [max(1 - PACK_GUARD, min(PACK_GUARD - 1, v)) for v in want]
    k, step = data.draw(st.integers(0, r - 1)), data.draw(st.sampled_from([0, 1, -1]))
    near[k] = max(1 - PACK_GUARD, min(PACK_GUARD - 1, near[k] + step))
    lhs = data.draw(st.one_of(vec, st.just(tuple(near))))
    pl, pa, pd, pc = pack([lhs, a, d, col])
    assert (pl == pa - c * pc + pd) == (lhs == want)
    assert (pl == pa) == (lhs == a)


# -- weak and strong conditions ---------------------------------------------------

def test_weak_rank1_always():
    for lamp in enumerate_lambda(A1P2):
        assert check_weak(lamp, A1P2)


def test_weak_zero():
    # the zero coset satisfies the weak condition whenever no digit direction
    # is frozen onto a neighbour (m >= 2 suffices; simply-laced always)
    for case in (A1P2, make_case("A2", "nonsuper", 2), make_case("B2", "super", 2),
                 make_case("A3", "nonsuper", 1), make_case("B3", "nonsuper", 2),
                 make_case("G2", "nonsuper", 2)):
        zero = enumerate_lambda(case)[0]
        assert zero.value == vzero(case.rank)
        assert check_weak(zero, case)
    # at m = 1 a frozen short direction feeds a +fund-weight correction into
    # the neighbouring shifts and the weak condition genuinely fails
    assert not check_weak(enumerate_lambda(make_case("B3", "nonsuper", 1))[0],
                          make_case("B3", "nonsuper", 1))


def test_weak_has_witness_false():
    case = make_case("A2", "nonsuper", 2)
    values = [check_weak(lamp, case) for lamp in enumerate_lambda(case)]
    assert False in values and True in values


def test_strong_rank1_all():
    assert all(check_strong(lamp, A1P2) for lamp in enumerate_lambda(A1P2))


def test_strong_equivalences_sweep():
    for name, variant, m in [("A1", "nonsuper", 2), ("A2", "nonsuper", 2),
                             ("B2", "nonsuper", 2), ("B2", "super", 3),
                             ("G2", "nonsuper", 1)]:
        case = make_case(name, variant, m)
        for lamp in enumerate_lambda(case):
            s = check_strong_all_words(lamp, case)
            assert s == alcove_inequality(lamp, case)
            assert s == check_strong_alt(lamp, case)


@pytest.mark.parametrize("name,variant,m", [
    *[(name, "nonsuper", m) for name in ["A2", "A3", "B2", "B3", "C3", "G2"] for m in (1, 2)],
    ("A4", "nonsuper", 1), ("D4", "nonsuper", 1), ("B2", "super", 2), ("B3", "super", 2),
])
def test_strong_on_all_words_matches_the_walk_over_every_word(name, variant, m):
    # the identity (every word's verdict is t(beta) = 0 on every positive
    # root) against the walk along each reduced word of w0: 2,316 words on
    # D4 and 768 on A4
    case = make_case(name, variant, m)
    for lamp in enumerate_lambda(case):
        assert check_strong_all_words(lamp, case) == strong_on_every_word(lamp, case)


@st.composite
def w0_words(draw, rs):
    """A reduced word of w0 drawn by descents: from the labels of w0(rho) =
    (-1, ..., -1), reflect at a negative label, drawn, until the labels are
    those of rho; the letters in order spell w0, as in
    RootSystem.all_reduced_words."""
    labels, word, cols = (-1,) * rs.rank, [], rs.reflect_cols()
    while min(labels) < 0:
        i = draw(st.sampled_from([i for i, a in enumerate(labels) if a < 0]))
        labels, word = reflect_labels(labels, i, cols[i]), word + [i]
    return tuple(word)


@pytest.mark.parametrize("name,variant,m", [
    *[(name, "nonsuper", 1) for name in ["A5", "B4", "C4", "D5", "F4", "E6"]],
    ("B4", "super", 2),
])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_strong_on_random_words_of_w0(name, variant, m, data):
    # types with too many reduced words of w0 to walk them all (A5 has
    # 292,864): a drawn word and a drawn coset, on both walks and the identity
    case = make_case(name, variant, m)
    lamp = data.draw(st.sampled_from(enumerate_lambda(case)))
    word = data.draw(w0_words(case.rs))
    assert len(word) == len(case.rs.roots)
    assert (check_strong(lamp, case, word) == check_strong_alt(lamp, case, word)
            == check_strong_all_words(lamp, case))


def test_strong_rejects_bad_word():
    # a word of w0 has N letters, each a node, whose product takes the labels
    # of rho to those of w0(rho); on A2 (N = 3) a word of length N with
    # another product, such as (0, 1, 1) or (0, 0, 1), is not reduced
    case = make_case("A2", "nonsuper", 2)
    for check in (check_strong, check_strong_alt):
        with pytest.raises(ValueError):
            check(lam(A1P2, 0, 1), A1P2, word=(0, 0))
        for word in [(0, 1), (0, 1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 1, 2), (-1, 0, -1)]:
            with pytest.raises(ValueError, match="not a reduced word of the longest element"):
                check(enumerate_lambda(case)[0], case, word)


def test_strong_checks_accept_every_word_of_w0():
    # all 42 reduced words of w0 in B3, the canonical one among them, and
    # each gives the canonical word's verdict on both routes
    case = make_case("B3", "nonsuper", 2)
    table = _cosets(case)
    words = case.rs.all_reduced_words(case.rs.longest_element())
    assert len(words) == 42 and table.w0_word() in words
    for lamp in enumerate_lambda(case)[:8]:
        want = check_strong(lamp, case)
        for word in words:
            assert table.w0_word(word) == word
            assert check_strong(lamp, case, word) == check_strong_alt(lamp, case, word) == want


@pytest.mark.parametrize("name,variant", [("B3", "super"), ("E7", "nonsuper"),
                                          ("E8", "nonsuper")])
def test_condition_path_enumerates_no_weyl_group(name, variant):
    # the condition checks read only the layout's simple shifts and the shift
    # formula: they enumerate no W and build no system, whose rows span W.
    # So they run on E7 and E8, whose Weyl groups exceed the enumeration cap;
    # there, at m <= 2, strong <=> alcove holds only because no coset is
    # strong and none meets the alcove inequality (both sets are empty)
    case = make_case(name, variant, 2)
    for cache in (_enumerate_weyl_cached, system, _cosets):
        cache.cache_clear()
    lamp, bounds = enumerate_lambda(case)[5], _grid(case)[1]
    table = _cosets(case)
    w0 = case.rs.longest_element()
    words = case.rs.all_reduced_words(w0) if name == "B3" else [w0.word]
    strong = check_strong(lamp, case)
    assert all(check_strong(lamp, case, w) == check_strong_alt(lamp, case, w) == strong
               for w in words)
    if name == "B3":
        assert check_strong_all_words(lamp, case) == strong
    weak, shift = check_weak(lamp, case), w0_shift(lamp, case)
    for i, (d, bound) in enumerate(zip(lamp.digits, bounds)):
        assert is_fixed(i, lamp, case) == (d == bound)
        assert screening_degree(i, lamp, case) == (d % bound or None)
    report = condition_report(case, all_words=name == "B3")
    assert report.ok and report.counts["weyl"] == weyl_order(case.rs.lie_type)
    assert report.rows[5] == (lamp.label(), weak, strong, alcove_inequality(lamp, case),
                              tuple(map(str, shift)))
    assert _enumerate_weyl_cached.cache_info().misses == 0
    assert system.cache_info().currsize == 0
    if name != "B3":
        assert not any(strong or alc for _, _, strong, alc, _ in report.rows)


def digit_simplex(marks, most):
    """Every digit vector k >= 1 with sum c_j k_j <= most for the marks c."""
    if not marks:
        yield ()
        return
    for k in range(1, (most - sum(marks[1:])) // marks[0] + 1):
        for rest in digit_simplex(marks[1:], most - k * marks[0]):
            yield (k, *rest)


def walk_box(rs, p, u):
    """(strong, labels of w0 ^ lambda) of a coset with box labels u, along
    w0's canonical word read from its right end, on u alone: at each letter i
    the simple shift is the carry t = ceil(s_i(u)/p) - 1 of the current box,
    the shifts compose by the cocycle, and the box moves to s_i(u) - p t.
    The composed shift is checked against the carry of w0(u)."""
    cols, strong, acc = rs.reflect_cols(), True, (0,) * rs.rank
    word, v = rs.longest_element().word, u
    for i in reversed(word):
        moved = reflect_labels(v, i, cols[i])
        t = tuple((y - 1) // p for y in moved)
        strong = strong and acc[i] == 0
        acc = tuple(a + b for a, b in zip(reflect_labels(acc, i, cols[i]), t))
        v = tuple(y - p * c for y, c in zip(moved, t))
    assert acc == tuple((y - 1) // p for y in rs.reflect_along(word, u))
    return strong, acc


@pytest.mark.parametrize("name,ms,want", [
    ("E6", range(11, 15), [3, 9, 27, 60]),
    ("E7", range(17, 21), [2, 4, 12, 24]),
    ("E8", range(29, 33), [1, 1, 3, 5]),
])
def test_strong_is_the_alcove_past_the_coset_cap(name, ms, want):
    """Strong <=> alcove on E6-E8 where neither set is empty.

    At m <= 3 on E7 and E8 both sets are empty, and the alcove needs p >=
    h - 1 (11, 17, 29), past the layouts COSET_CAP admits.  So the walk runs
    on box labels alone: the carry reads u and not the bullet, so one walk
    serves the |P/Q| cosets of a box, and the strong cosets number |P/Q|
    times the strong boxes.  Simply laced and nonsuper, x = rho_check/p has
    x_j = 1, so u = k, the digits, each in 1..p.  The scan set is the digit
    simplex sum c_j k_j <= p + max c, c the theta_L marks: the alcove sum c_j
    k_j <= p and every box one digit step outside it, since lowering digit j
    by one lowers the sum by c_j <= max c.  The marks sum to h - 1 > max c,
    so every digit of the set stays at most p, and the set is nonempty at p
    >= h - 1."""
    rs = make_case(name, "nonsuper", 1).rs
    marks, classes = rs.theta_L_marks, len(rs.minuscule_labels)
    assert sum(marks) == rs.coxeter - 1 > max(marks)
    counts = []
    for m in ms:
        strong_boxes = 0
        for u in digit_simplex(marks, m + max(marks)):
            assert max(u) <= m
            strong, shift = walk_box(rs, m, u)
            assert strong == (sum(map(mul, marks, u)) <= m)
            if strong:
                assert shift == (-1,) * rs.rank  # w0 ^ lambda = -rho
                strong_boxes += 1
        counts.append(classes * strong_boxes)
    assert counts == want


def test_alcove_threshold_at_zero():
    # the zero coset is strong exactly when m >= dual Coxeter of the dual minus 1
    for name in ("A2", "B2", "B3", "C3", "G2"):
        for m in range(1, 5):
            case = make_case(name, "nonsuper", m)
            zero = enumerate_lambda(case)[0]
            assert alcove_inequality(zero, case) == \
                (m >= case.rs.dual_coxeter_L - 1)


def test_b2_alcove_witness_false():
    case = make_case("B2", "nonsuper", 1)
    lams = enumerate_lambda(case)
    maximal = max(lams, key=lambda l: sum(l.digits))
    assert not alcove_inequality(maximal, case)


def test_w0_shift_values():
    rs = A1P2.rs
    assert w0_shift(lam(A1P2, 0, 1), A1P2) == vneg(rs.rho_check)
    # rank-1 wall: the frozen digit gives -alpha
    assert w0_shift(lam(A1P2, 0, 2), A1P2) == (Fraction(-1),)
    case = make_case("B2", "nonsuper", 2)
    for lamp in enumerate_lambda(case):
        if check_strong(lamp, case):
            assert w0_shift(lamp, case) == vneg(case.rs.rho)
            assert strong_w0_target(lamp, case) == vneg(case.rs.rho)


def test_condition_report_ok():
    for case in (A1P2, make_case("B2", "nonsuper", 2), make_case("B2", "super", 2)):
        rep = condition_report(case, all_words=True)
        assert rep.ok, rep.failures[:3]


# -- screening degrees -------------------------------------------------------------

def test_screening_degrees_rank1():
    assert screening_degree(0, lam(A1P2, 0, 1), A1P2) == 1
    assert screening_degree(0, lam(A1P2, 0, 2), A1P2) is None


def test_screening_degree_zero_coset():
    for case in (make_case("A2", "nonsuper", 2), make_case("B2", "nonsuper", 2),
                 make_case("B2", "super", 2), make_case("G2", "nonsuper", 2)):
        zero = enumerate_lambda(case)[0]
        for i in range(case.rank):
            assert screening_degree(i, zero, case) == 1


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
def test_screening_degree_matches_digits(name, variant, m):
    # the degree is the screening pairing modulo the digit bound p * d_i (p in
    # the super family), read here off each family's own pairing; it equals
    # the digit modulo its bound, and is zero exactly at the sigma_i-fixed
    # cosets, where the digit sits at its bound
    case = make_case(name, variant, m)
    for lamp in enumerate_lambda(case):
        for i in range(case.rank):
            bound = int(case.p * case.rs.half_lengths[i]) if variant == "nonsuper" else case.p
            s = screening_degree(i, lamp, case)
            want = screening_pairing_reference(i, lamp, case) % bound
            assert (s or 0) == want == lamp.digits[i] % bound, (lamp.label(), i)
            assert (s is None) == is_fixed(i, lamp, case)


# -- the integer tables against the Fraction route, cell by cell -----------------

ROUTE_CASES = [(name, variant, m)
               for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
               for m in (1, 2)
               for variant in (("nonsuper", "super", "ramond") if name[0] == "B"
                               else ("nonsuper",))] + \
    [("B4", "super", 1), ("D4", "nonsuper", 1), ("A4", "nonsuper", 1)]


@pytest.mark.parametrize("name,variant,m", ROUTE_CASES)
def test_tables_match_fraction_route(name, variant, m):
    # act: the Fraction route's coset of sigma(lam + x) - x, which
    # lambda_of_value also finds; shift: sigma(box + x) - (box' + x)
    case = make_case(name, variant, m)
    sys = system(case)
    x = case.x
    mats = [weyl_matrix(case.rs, w.word) for w in sys.weyl]
    for l_idx, lamp in enumerate(sys.lambdas):
        box = vadd(lamp.value, lamp.bullet_up)
        for w_idx, m in enumerate(mats):
            moved = vsub(mat_vec(m, vadd(lamp.value, x)), x)
            target = lambda_of_value_fraction(case, moved)
            assert lambda_of_value(case, moved) == target
            assert sys.act_index(w_idx, l_idx) == sys.index(target.key())
            target_box = vadd(target.value, target.bullet_up)
            assert sys.shift_value(w_idx, l_idx) == \
                vsub(mat_vec(m, vadd(box, x)), vadd(target_box, x))


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
def test_orbit_location_matches_per_point_route(name, variant, m):
    # every cell's coset and bullet, located a whole orbit at a time by the
    # oracle's packed key and one point at a time by the carry, against one
    # point at a time in separate passes; on rank 2 also every point of a box
    # around the digit grid, where all three routes refuse the same points
    case = make_case(name, variant, m)
    sys, p = system(case), case.p
    for l_idx, (b_idx, u) in enumerate(zip(sys._b, sys._u)):
        orbit = sys.orbit(tuple(v - p * c for v, c in zip(u, case.rs.minuscule_labels[b_idx])))
        want = [locate_point(sys, a) for a in orbit]
        assert locate(sys, orbit) == ([t for t, _ in want], [b for _, b in want])
        assert [sys.carry(0, a) for a in orbit] == [(t, tuple(-c for c in b)) for t, b in want]
        assert sys.row(l_idx)[0] == [t for t, _ in want]
    if case.rank == 2:
        for a in product(range(-p, 2 * p + 1), repeat=2):
            try:
                want = locate_point(sys, a)
            except AssertionError:
                for route in (lambda: locate(sys, [a]), lambda: sys.carry(0, a)):
                    with pytest.raises(AssertionError, match="off the digit grid"):
                        route()
            else:
                assert locate(sys, [a]) == ([want[0]], [want[1]])
                assert sys.carry(0, a) == (want[0], tuple(-c for c in want[1]))


@pytest.mark.parametrize("name,variant,m", AXIOM_SWEEP_CASES)
def test_condition_table_matches_per_call_route(name, variant, m):
    # the weak, strong, w0-shift and telescoped entries, computed once per
    # coset from the simple shifts of a fresh layout, against their per-call
    # computation on the W table and the public checks, on every coset; the
    # simple shifts against the table's simple cells
    case = make_case(name, variant, m)
    sys, table = system(case), ShiftSystem(case)
    simple_idx = [row[0] for row in left_table(case.rs)]
    for l_idx, lamp in enumerate(table.lambdas):
        weak, strong, shift0, telescoped = want = conditions_per_call(case, lamp)
        assert table.conditions(l_idx) == want
        assert check_weak(lamp, case) == weak
        assert check_strong(lamp, case) == check_strong(lamp, case, table.w0_word()) == strong
        assert check_strong_alt(lamp, case) == check_strong_alt(lamp, case, table.w0_word()) \
            == telescoped
        assert w0_shift(lamp, case) == case.rs.from_labels(shift0)
        act, shift = sys.row(l_idx)
        assert table.simple(l_idx) == ([act[s] for s in simple_idx],
                                       [shift[s] for s in simple_idx])


def test_ramond_report_reuses_the_super_verification():
    # a Ramond case reads the verification of the layout it shares with its
    # super case; its report equals a fresh one in every field but the case,
    # and every report of a layout shares the layout's immutable rows, but no
    # mutable counts, failures or JSON lists with the stored verification or
    # another report
    sup, ram = make_case("B3", "super", 2), make_case("B3", "ramond", 2)
    first, got = verify_axioms(sup), verify_axioms(ram)
    stored = _cosets(ram)._report
    verify_axioms(ram)
    assert _cosets(sup)._report is stored  # the checks ran once for both cases
    for cache in (system, _cosets):
        cache.cache_clear()
    fresh = verify_axioms(ram)
    assert (got.case_id, first.case_id) == ("B3:ramond:m=2", "B3:super:m=2")
    for name in ("counts", "failures", "rows"):
        assert getattr(got, name) == getattr(fresh, name) == getattr(first, name), name
    assert got.counts is not first.counts and got.failures is not first.failures
    assert got.counts is not stored.counts and got.failures is not stored.failures
    assert got.rows is first.rows and fresh.rows is _cosets(ram).rows
    want = {**fresh.to_json_dict(), "case": "B3:ramond:m=2"}
    assert got.to_json_dict() == want
    assert got.counts["checks"] == first.counts["checks"] > 0
    # changing a report or its JSON changes no later one
    for report in (got, verify_axioms(ram)):
        report.to_json_dict()["w0_shift"][0]["value"].append("x")
        report.counts.clear()
        report.failures.append({"check": "x"})
    assert verify_axioms(ram).to_json_dict() == want


def test_case_hash_reads_type_variant_and_m():
    # equal cases hash alike; a super case and its Ramond case, which differ
    # only in the variant, hash apart, as do cases that differ in m or type
    keys = [(name, variant, m) for name in ("B2", "B3")
            for variant in ("nonsuper", "super", "ramond") for m in (1, 2)]
    hashes = [hash(make_case(*key)) for key in keys]
    assert len(set(hashes)) == len(keys)
    assert [hash(make_case(*key)) for key in keys] == hashes


def test_super_and_ramond_share_tables():
    sup = system(make_case("B3", "super", 2))
    ram = system(make_case("B3", "ramond", 2))
    assert sup is ram
    for l_idx in range(len(sup.lambdas)):
        for w_idx in range(len(sup.weyl)):
            assert sup.act_index(w_idx, l_idx) == ram.act_index(w_idx, l_idx)
            assert sup.shift_value(w_idx, l_idx) == ram.shift_value(w_idx, l_idx)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "B3", "C3", "G2", "D4", "F4", "E6"])
def test_sparse_orbit_matches_dense_reflections(name):
    # orbit reflects along the nonzero entries of each Cartan column only;
    # W(E6) is compared on its first 2000 elements
    sys = system(make_case(name, "nonsuper", 1))
    r = sys.case.rank
    count = 2000 if name == "E6" else len(sys.weyl)
    rng = random.Random(17)
    for labels in [(1,) * r, (0,) * r, tuple(rng.randint(-3, 3) for _ in range(r))]:
        assert sys.orbit(labels)[:count] == orbit_reference(sys, labels, count)


def test_class_key_must_vanish_on_simple_roots(monkeypatch):
    # the character walk checks the coset of its dot terms once per walk,
    # which needs the class key to vanish on Q; a key read off the transposed
    # adjugate does not, and the coset layout, which every system adopts,
    # refuses it
    def transposed(self, labels):
        key = 0
        for col in zip(*self.rs.cartan_adjugate[0]):
            key = key * self._det + sum(map(mul, col, labels)) % self._det
        return key

    monkeypatch.setattr(ShiftSystem, "_class_key", transposed)
    with pytest.raises(AssertionError, match="class key"):
        ShiftSystem(make_case("B2", "nonsuper", 1))


CLASS_TYPES = [f"A{n}" for n in range(1, 8)] + [f"{x}{n}" for x in "BC" for n in range(2, 6)] \
    + [f"D{n}" for n in range(4, 8)] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name", CLASS_TYPES)
def test_class_rows_separate_p_mod_q(name):
    # P/Q needs no row when trivial, two on D_2n (Z2 x Z2) and one otherwise
    # (cyclic); the int key tells every minuscule weight apart and vanishes
    # on Q
    case = make_case(name, "nonsuper", 1)
    sys = _cosets(case)
    rs, det = case.rs, case.rs.cartan_adjugate[1]
    want = 0 if det == 1 else 2 if name[0] == "D" and int(name[1:]) % 2 == 0 else 1
    assert len(sys._class_rows) == want
    assert all(row in rs.cartan_adjugate[0] for row in sys._class_rows)
    bullets = [rs.integral_labels(mn) for mn in rs.minuscule]
    assert len({sys._class_key(b) for b in bullets}) == det
    assert not any(sys._class_key(col) for col in sys.cols)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "D5", "D6", "E6", "E7"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_key_matches_full_adjugate(name, data):
    # two label vectors share the int key exactly when det * C^-1 maps them
    # to the same residues mod det, row by row
    case = make_case(name, "nonsuper", 1)
    sys, (adj, det) = _cosets(case), case.rs.cartan_adjugate
    r = case.rank
    one = data.draw(st.tuples(*[st.integers(-4, 4)] * r))
    if data.draw(st.booleans()):
        # the same class: one plus a random element of Q
        gamma = data.draw(st.tuples(*[st.integers(-3, 3)] * r))
        two = tuple(a + sum(g * c[i] for g, c in zip(gamma, sys.cols)) for i, a in enumerate(one))
    else:
        two = data.draw(st.tuples(*[st.integers(-4, 4)] * r))

    def full(labels):
        return tuple(sum(map(mul, row, labels)) % det for row in adj)

    assert (sys._class_key(one) == sys._class_key(two)) == (full(one) == full(two))


def test_index_refuses_keys_off_the_layout():
    # B2 super m=2 (p = 3): the zero bullet takes odd last digits and the
    # spinor even ones; a key off its bullet's digit ranges, the parity
    # step included, and a bullet index the layout lacks are refused
    case = make_case("B2", "super", 2)
    table = _cosets(case)
    assert [table.index((b, digits)) for b, _, digits in digit_grid(case)] == list(range(9))
    for key in [(0, (1, 2)), (1, (1, 1)), (1, (1, 3)), (0, (0, 1)), (0, (4, 1))]:
        with pytest.raises(AssertionError, match="off the digit grid"):
            table.index(key)
    for b_idx in (-1, 2):
        with pytest.raises(KeyError):
            table.index((b_idx, (1, 1)))


def test_cosets_refuse_a_shared_class_key(monkeypatch):
    # a key that drops the class would confuse the bullets, and with them
    # the cosets with the same box
    monkeypatch.setattr(ShiftSystem, "_class_key", lambda self, labels: 0)
    with pytest.raises(AssertionError, match="two bullets of A2 share a class key"):
        ShiftSystem(make_case("A2", "nonsuper", 1))
