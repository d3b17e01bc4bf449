"""Character layer: conformal weights, alternating sums, oracles."""

import json
from fractions import Fraction
from itertools import product
from math import floor
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_member_gram,
    ALL_TYPES,
    alternating_sum,
    alternating_sum_dot,
    case_data_reference,
    cone_shell,
    displayed_norm_exponent,
    dominant_alphas,
    dot_action,
    dot_walk,
    eta_inv_pow_reference,
    fock_delta_reference,
    fock_point_fraction,
    height_bound_sqrt,
    lattice_theta_char,
    norm_shift_reference,
    ramond_delta_reference,
    scale,
    vadd,
    vscale,
    vsub,
    vzero,
    walg_vacuum_superchar_oracle,
    walk_reference,
    weyl_apply_matrix,
)

from shiftlab import characters, cli
from shiftlab.characters import (
    UnsupportedCaseError,
    _coset_vector,
    _form,
    _below,
    _identity_point,
    _numerator,
    _reach,
    _star_below,
    _star_walk,
    _tail,
    _value,
    _weights,
    dominant_down_set,
    fock_delta,
    ft_char,
    multiplet_char,
    multiplet_ramond_char,
    multiplet_superchar,
    verma_char_super,
    walg_vacuum_oracle,
    weight_space_char,
)
from shiftlab.liealg import CapExceededError, RootSystem, _enumerate_weyl_cached, reflect_labels
from shiftlab.qseries import FermionKind, QSeries, convolve, eta_inv_pow, fermion_char
from shiftlab.shift import (
    ShiftSystem,
    Variant,
    _cosets,
    enumerate_lambda,
    make_case,
    system,
)

A1P2 = make_case("A1", "nonsuper", 2)
L0 = enumerate_lambda(A1P2)[0]


def number(case, lam):
    """The number of lam's coset, which the character helpers take."""
    return _cosets(case).index(lam.key())


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dominant_shell_keeps_the_shell_order(name):
    # the dominant part of each shell (one height) of the nonnegative cone:
    # the CLI's alpha, the walk on the labels below a height sorted by height
    # and root coordinates, are those of the cone's shells in the cone's order
    rs = make_case(name, "nonsuper", 1).rs
    for heights in (1, 3, 4, 12 if rs.rank <= 4 else 9):
        assert cli._alphas(rs, heights) == dominant_alphas(rs, heights - 1)


@given(st.sampled_from(ALL_TYPES), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_dominant_shell_labels_lie_in_q_at_the_height(name, height):
    # the walk below a height lists labels of dominant root-lattice weights
    # of that height or less, each once
    rs = make_case(name, "nonsuper", 1).rs
    walk = dominant_down_set(rs, lambda labels: sum(rs.from_labels(labels)) <= height)
    assert len(walk) == len(set(walk))
    for labels in walk:
        coords = rs.from_labels(labels)
        assert len(labels) == rs.rank and min(labels) >= 0
        assert all(x.denominator == 1 for x in coords) and sum(coords) <= height
        assert rs.integral_labels(coords) == labels


@given(st.sampled_from(ALL_TYPES), st.data())
@settings(max_examples=60, deadline=None)
def test_down_set_walk_lists_each_weight_in_q_once(name, data):
    # inside: a weighted label sum at most a bound, closed when a label is
    # lowered; the walk lists each l >= 0 inside with l in Q once, as a scan
    # of the box that holds them finds them
    rs = make_case(name, "nonsuper", 1).rs
    weights = data.draw(st.lists(st.integers(1, 4), min_size=rs.rank, max_size=rs.rank))
    bound = data.draw(st.integers(-1, 12 if rs.rank <= 4 else 4))
    got = dominant_down_set(rs, lambda labels: sum(map(mul, weights, labels)) <= bound)
    box = product(*(range(bound // w + 1) for w in weights)) if bound >= 0 else ()
    want = [labels for labels in box if sum(map(mul, weights, labels)) <= bound
            and all(x.denominator == 1 for x in rs.from_labels(labels))]
    assert len(got) == len(set(got)) and sorted(got) == want


# -- conformal weights ---------------------------------------------------------

def test_fock_delta_values():
    assert fock_delta(vzero(1), A1P2) == 0
    assert fock_delta(A1P2.rs.simple_roots[0], A1P2) == 1
    case = make_case("B1", "super", 2)
    assert fock_delta(case.rs.simple_roots[0], case) == Fraction(1, 2)


FAMILY_CASES = [(name, "nonsuper", m) for name in ("A1", "A2", "A3", "B2", "C2", "G2")
                for m in (1, 2, 3)] + \
    [(name, variant, m) for name in ("B1", "B2", "B3") for variant in ("super", "ramond")
     for m in (1, 2, 3)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_family_reads_match_per_family_formulas(data):
    # make_case fixes p*x once, and fock_delta reads gamma from the case;
    # each family's own formula gives the same exact values at points nu of
    # (1/p)Q*, the span of the fundamental coweights over p
    case = make_case(*data.draw(st.sampled_from(FAMILY_CASES)))
    rs, p = case.rs, case.p
    coeffs = data.draw(st.lists(st.integers(-8, 8), min_size=case.rank, max_size=case.rank))
    nu = tuple(sum(Fraction(n, p) * w[j] for n, w in zip(coeffs, rs.fund_coweights))
               for j in range(case.rank))
    check_member_gram(nu, case)
    assert (case.x, case.gamma, case.central_charge) == case_data_reference(case)
    assert fock_delta(nu, case) == fock_delta_reference(nu, case)
    assert fock_delta(nu, case) + norm_shift_reference(case) == \
        rs.norm2(vscale(p, vsub(nu, case.gamma))) / (2 * p)


TAIL_BASE_CASES = [(name, "nonsuper", m) for name in ALL_TYPES for m in (1, 2, 3)] + \
    [(f"B{r}", variant, m) for r in range(1, 5) for variant in ("super", "ramond")
     for m in (1, 2, 3)]


@pytest.mark.parametrize("name,variant,m", TAIL_BASE_CASES)
def test_tail_base_is_the_whole_constant(name, variant, m):
    # the background charge lowers Delta by p|gamma|^2/2 and c/24 by the
    # same, so the terms' constant -shift - c/24 (+ 1/16 in the Ramond
    # sector) is the tail's base -c0/24 (+ 1/16), which _form relies on
    case = make_case(name, variant, m)
    want = -norm_shift_reference(case) - case.central_charge / 24
    if case.variant is Variant.SUPER_RAMOND:
        want += Fraction(1, 16)
    assert _tail(case, 0).base == want


def fraction_weight_space(case, lam, beta, order):
    """weight_space_char by the Fraction route: the point from Fraction
    copairings, priced by fock_delta_reference or ramond_delta_reference."""
    nu = fock_point_fraction(case, lam, beta)
    twisted = case.variant is Variant.SUPER_RAMOND
    delta = (ramond_delta_reference if twisted else fock_delta_reference)(nu, case)
    tail = _tail(case, order)
    return tail.qshift(delta - case.central_charge / 24 - tail.base)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([c for c in FAMILY_CASES if c[:2] != ("B3", "ramond")]), st.data())
def test_weight_space_char_matches_fraction_route(spec, data):
    # any weight of the coset's support, in all three variants
    case = make_case(*spec)
    lam = data.draw(st.sampled_from(enumerate_lambda(case)))
    coords = data.draw(st.lists(st.integers(-4, 4), min_size=case.rank, max_size=case.rank))
    beta = vadd(tuple(Fraction(c) for c in coords), lam.bullet_up)
    order = data.draw(st.integers(0, 4))
    assert weight_space_char(lam, beta, case, order).to_json_dict() == \
        fraction_weight_space(case, lam, beta, order).to_json_dict()


def test_weight_space_examples():
    # vacuum weight space of the rank-1 triplet at p=2: q^(1/8)/eta
    ws = weight_space_char(L0, vzero(1), A1P2, 8)
    assert ws.base == Fraction(1, 8) - Fraction(1, 24)
    assert ws.coeffs[:5] == (1, 1, 2, 3, 5)
    moved = dot_action(A1P2, A1P2.rs.element_from_word((0,)), vzero(1))
    assert moved == (Fraction(-1),)
    ws2 = weight_space_char(L0, moved, A1P2, 8)
    assert ws2.base == Fraction(9, 8) - Fraction(1, 24)
    assert ws2.coeffs[0] == 1


def test_fock_point_coset_errors():
    with pytest.raises(ValueError):
        weight_space_char(L0, (Fraction(1, 2),), A1P2, 5)  # wrong coset (not in Q)
    with pytest.raises(ValueError):
        weight_space_char(L0, (Fraction(1, 3),), A1P2, 5)  # not integral
    # the integer walk makes the same checks
    with pytest.raises(ValueError):
        alternating_sum(A1P2, L0, (Fraction(1, 2),), 5)
    with pytest.raises(ValueError):
        alternating_sum(A1P2, L0, (Fraction(1, 3),), 5)


@pytest.mark.parametrize("name,variant,m", [
    ("A1", "nonsuper", 2), ("A2", "nonsuper", 1), ("A2", "nonsuper", 2),
    ("B2", "nonsuper", 2), ("G2", "nonsuper", 1), ("B2", "super", 2),
    ("B2", "ramond", 3), ("C3", "nonsuper", 1), ("D4", "nonsuper", 1)])
def test_fock_point_matches_fraction_route(name, variant, m):
    # weight_space_char's class check on integer labels and its pricing
    # against the Fraction copairings, on weights of every class of P/Q and
    # on weights off the weight lattice: the same series, or a ValueError
    # from both
    case = make_case(name, variant, m)
    rs = case.rs
    weights = [vadd(mn, rs.positive_roots[k]) for mn in rs.minuscule for k in (0, -1)]
    weights += [vscale(Fraction(1, 2), rs.fund_weights[0]), vsub(rs.rho, rs.theta)]
    for lam in enumerate_lambda(case):
        for beta in weights:
            try:
                want = fraction_weight_space(case, lam, beta, 2)
            except ValueError:
                with pytest.raises(ValueError):
                    weight_space_char(lam, beta, case, 2)
                continue
            assert weight_space_char(lam, beta, case, 2) == want


def test_fock_point_reads_no_weyl_group(monkeypatch):
    # the checks run on the coset tables alone, so E7 and E8 are in reach
    def refuse(self):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(RootSystem, "weyl_table", refuse)
    for name in ("E7", "E8"):
        case = make_case(name, "nonsuper", 1)
        for lam in enumerate_lambda(case):
            beta = vadd(lam.bullet_up, case.rs.theta)
            assert weight_space_char(lam, beta, case, 1) == \
                fraction_weight_space(case, lam, beta, 1)


def test_displayed_norm_exponent_matches_delta():
    for name, variant, m in [("A1", "nonsuper", 2), ("B2", "nonsuper", 2),
                             ("B1", "super", 2), ("B2", "super", 3)]:
        case = make_case(name, variant, m)
        rs = case.rs
        lam = enumerate_lambda(case)[1 % len(enumerate_lambda(case))]
        for w in rs.enumerate_weyl():
            for alpha in dominant_alphas(rs, 2):
                beta = vadd(alpha, lam.bullet_up)
                nu = fock_point_fraction(case, lam, dot_action(case, w, beta))
                lhs = displayed_norm_exponent(case, lam, alpha, w)
                assert lhs == fock_delta(nu, case) + norm_shift_reference(case)


# -- multiplet characters ---------------------------------------------------------

def test_triplet_vacuum():
    ch = multiplet_char(vzero(1), L0, A1P2, 10)
    assert ch.base == Fraction(1, 12)
    assert ch.coeffs[:8] == (1, 0, 1, 1, 2, 2, 4, 4)
    assert A1P2.central_charge == -2


def test_leading_exponent_is_central_charge():
    for name, variant, m in [("A1", "nonsuper", 2), ("A2", "nonsuper", 2),
                             ("B2", "nonsuper", 2), ("B1", "super", 2),
                             ("B2", "super", 3)]:
        case = make_case(name, variant, m)
        ch = multiplet_char(vzero(case.rank), enumerate_lambda(case)[0], case, 6)
        assert ch.base == -case.central_charge / 24


@pytest.mark.parametrize("name,variant,m", [
    ("A1", "nonsuper", 2), ("A1", "nonsuper", 3), ("A2", "nonsuper", 2),
    ("B2", "nonsuper", 2), ("B2", "nonsuper", 3), ("G2", "nonsuper", 3),
    ("B1", "super", 2), ("B1", "super", 3),
])
def test_vacuum_oracle_identity(name, variant, m):
    case = make_case(name, variant, m)
    got = multiplet_char(vzero(case.rank), enumerate_lambda(case)[0], case, 14)
    assert got.same_series(walg_vacuum_oracle(case, 14))


def test_vacuum_oracle_rejects_super_rank2():
    with pytest.raises(UnsupportedCaseError):
        walg_vacuum_oracle(make_case("B2", "super", 2), 10)


def test_multiplet_requires_dominant_lattice_alpha():
    # alpha + bullet must be dominant, and alpha in Q; the error names alpha
    # as comma-separated values
    with pytest.raises(ValueError, match=r"^alpha -1 is not a root-lattice weight"):
        multiplet_char((Fraction(-1),), L0, A1P2, 5)
    with pytest.raises(ValueError, match=r"^alpha 1/2 is not"):
        multiplet_char((Fraction(1, 2),), L0, A1P2, 5)
    a2 = make_case("A2", "nonsuper", 1)
    with pytest.raises(ValueError, match=r"^alpha 1,0 is not"):
        multiplet_char((Fraction(1), Fraction(0)), enumerate_lambda(a2)[0], a2, 5)


@pytest.mark.parametrize("name", ["A2", "A3", "C3"])
def test_multiplet_accepts_alpha_with_dominant_beta(name):
    # on the nonzero classes, alpha + bullet can be dominant with alpha not:
    # 2w2 - w1 = alpha_2 in A2.  Each such alpha whose beta has labels
    # summing to at most 2 gives the alternating sum at beta, and the
    # term-by-term Fraction route
    case = make_case(name, "nonsuper", 1)
    rs = case.rs
    accepted = 0
    for lam in enumerate_lambda(case):
        if lam.bullet_index == 0:
            continue
        for coords in product(range(-2, 3), repeat=rs.rank):
            alpha = tuple(Fraction(c) for c in coords)
            beta = vadd(alpha, lam.bullet_up)
            labels = rs.integral_labels(beta)
            if rs.is_dominant(alpha) or min(labels) < 0 or sum(labels) > 2:
                continue
            got = multiplet_char(alpha, lam, case, 4)
            assert got.to_json_dict() == alternating_sum(case, lam, beta, 4).to_json_dict()
            assert got.to_json_dict() == fraction_route(case, lam, alpha, 4)[0].to_json_dict()
            accepted += 1
    assert accepted > 0


def test_wall_vanishing_and_antisymmetry():
    # the alternating sum vanishes where beta + rho lies on a wall, on every
    # coset; on the first coset it is also antisymmetric under the dot action
    for name, variant, m in [("A1", "nonsuper", 2), ("A2", "nonsuper", 2),
                             ("B2", "super", 3)]:
        case = make_case(name, variant, m)
        rs = case.rs
        elems = rs.enumerate_weyl()
        for l_idx, lam in enumerate(enumerate_lambda(case)):
            for coords in product(range(-2, 2), repeat=rs.rank):
                beta = vadd(tuple(Fraction(c) for c in coords), lam.bullet_up)
                shifted = vadd(beta, rs.rho)
                on_wall = any(rs.pairing(shifted, a) == 0 for a in rs.positive_roots)
                if l_idx and not on_wall:
                    continue
                total = alternating_sum(case, lam, beta, 8)
                if on_wall:
                    assert total.is_zero, (case.case_id(), lam.label(), coords)
                for tau in elems[:4] if l_idx == 0 else ():
                    moved = dot_action(case, tau, beta)
                    lhs = alternating_sum(case, lam, moved, 8)
                    rhs = total if tau.length % 2 == 0 else -total
                    assert lhs.same_series(rhs)


def test_dual_route_equality_all_cosets():
    # the dot-action sum over the fixed coset equals the *-action sum over
    # moved cosets for every coset and every small weight, strong or not; in
    # the Ramond sector the flow is carried through w on the * side
    cases = [make_case("A2", "nonsuper", 2), make_case("B2", "super", 3)]
    cases += [make_case(name, "ramond", m) for name in ("B1", "B2") for m in (2, 3, 4)]
    for case in cases:
        rs = case.rs
        for lam in enumerate_lambda(case):
            for coords in product(range(-1, 3), repeat=rs.rank):
                if sum(abs(c) for c in coords) > 4:
                    continue
                beta = vadd(tuple(Fraction(c) for c in coords), lam.bullet_up)
                lhs = alternating_sum_dot(case, lam, beta, 6)
                rhs = alternating_sum(case, lam, beta, 6)
                assert lhs.same_series(rhs), (case.case_id(), lam.label(), coords)


def test_positivity_on_strong_region():
    for name, variant, m in [("A1", "nonsuper", 2), ("B2", "nonsuper", 2),
                             ("B1", "super", 2)]:
        case = make_case(name, variant, m)
        from shiftlab.shift import alcove_inequality
        for lam in enumerate_lambda(case):
            if not alcove_inequality(lam, case):
                continue
            for alpha in dominant_alphas(case.rs, 3):
                ch = multiplet_char(alpha, lam, case, 12)
                assert all(c >= 0 for c in ch.coeffs), (name, lam.label())


# -- the integer walk against the Fraction route, on every coset ---------------------

WALK_CASES = [("A1", "nonsuper", 2), ("A1", "nonsuper", 3), ("A2", "nonsuper", 1),
              ("A2", "nonsuper", 2), ("B1", "super", 2), ("B2", "nonsuper", 1),
              ("B2", "super", 2), ("C2", "nonsuper", 1), ("G2", "nonsuper", 1),
              ("A3", "nonsuper", 1), ("B3", "super", 2)]


def fraction_route(case, lam, alpha, order):
    """multiplet_char, multiplet_superchar (super family, else None) and the
    lowest term exponent, summed term by term from weight_space_char and
    fock_delta/ramond_delta_reference of the dot-moved points."""
    rs = case.rs
    twisted = case.variant is Variant.SUPER_RAMOND
    beta = vadd(alpha, lam.bullet_up)
    tail = _tail(case, order)
    sch_tail = eta_inv_pow(rs.rank, order).mul(fermion_char(FermionKind.NS_SCH, order))
    ch = sch = low = None
    for w in rs.enumerate_weyl():
        moved = dot_action(case, w, beta)
        nu = fock_point_fraction(case, lam, moved)
        delta = ramond_delta_reference(nu, case) if twisted else fock_delta(nu, case)
        low = delta if low is None else min(low, delta)
        term = tail.qshift(delta - case.central_charge / 24 - tail.base)
        term = scale(term, (-1) ** w.length)
        ch = term if ch is None else ch.add(term)
        if case.variant is Variant.SUPER:
            f = rs.pairing(moved, rs.simple_roots[rs.rank - 1])
            sign = -1 if (w.length + f.numerator // f.denominator) % 2 else 1
            term = scale(sch_tail.qshift(delta - case.central_charge / 24 - sch_tail.base),
                         sign)
            sch = term if sch is None else sch.add(term)
    return ch, sch, low - case.central_charge / 24


def assert_walk_matches(case, lam, alpha, order):
    # serialized, so that a float coefficient cannot pass for an int
    ch, sch, low = fraction_route(case, lam, alpha, order)
    assert multiplet_char(alpha, lam, case, order).to_json_dict() == ch.to_json_dict()
    if sch is not None:
        got = multiplet_superchar(alpha, lam, case, order)
        assert got.to_json_dict() == sch.to_json_dict()
    # the lowest exponent of the walk's dot terms, which ft_char filters on
    den = _form(case)[1]
    dot = dot_walk(case, lam, case.rs.integral_labels(vadd(alpha, lam.bullet_up)))[1]
    assert _tail(case, 0).base + Fraction(min(dot), den) == low


@pytest.mark.parametrize("name,variant,m", WALK_CASES)
def test_walk_matches_fraction_route_every_coset(name, variant, m):
    case = make_case(name, variant, m)
    for lam in enumerate_lambda(case):
        for alpha in dominant_alphas(case.rs, 2):
            assert_walk_matches(case, lam, alpha, 8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WALK_CASES), st.data())
def test_walk_matches_fraction_route_property(spec, data):
    case = make_case(*spec)
    lam = data.draw(st.sampled_from(enumerate_lambda(case)))
    alpha = data.draw(st.sampled_from(dominant_alphas(case.rs, 3)))
    assert_walk_matches(case, lam, alpha, data.draw(st.integers(0, 12)))


# -- the walk against its term-by-term reference ------------------------------------

REFERENCE_CASES = WALK_CASES + [(name, "ramond", m) for name in ("B1", "B2") for m in (1, 2, 3)]


def assert_walk_matches_reference(case, lam, beta):
    # the * route and the dot reference term by term; at a dominant beta the
    # pruned climb, with a top past the largest term, gives every dot term
    labels = case.rs.integral_labels(beta)
    orbit, dot, mov = walk_reference(case, lam, beta, moved=True)
    assert _star_walk(case, lam, labels) == mov
    assert dot_walk(case, lam, labels) == (orbit, dot)
    assert walk_reference(case, lam, beta) == (orbit, dot, [])
    if min(labels) >= 0:
        signs = [(-1) ** w.length for w in system(case).weyl]
        got = _below(case, _coset_vector(case, number(case, lam)), labels, max(dot))
        assert sorted(got) == sorted(zip(dot, signs, orbit))


@pytest.mark.parametrize("name,variant,m", REFERENCE_CASES)
def test_walk_matches_term_by_term_reference(name, variant, m):
    # linear dot exponents, the dot checks once per walk and the sparse orbit
    # give the orbit, dot and * lists of the per-term loop on every coset
    case = make_case(name, variant, m)
    for lam in enumerate_lambda(case):
        for alpha in dominant_alphas(case.rs, 2):
            assert_walk_matches_reference(case, lam, vadd(alpha, lam.bullet_up))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REFERENCE_CASES), st.data())
def test_walk_matches_term_by_term_reference_property(spec, data):
    # any weight of the coset's support, dominant or not
    case = make_case(*spec)
    lam = data.draw(st.sampled_from(enumerate_lambda(case)))
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=case.rank, max_size=case.rank))
    beta = vadd(tuple(Fraction(c) for c in coords), lam.bullet_up)
    assert_walk_matches_reference(case, lam, beta)


# -- supercharacters ------------------------------------------------------------

def test_superchar_rank1_oracle():
    for m in (2, 3):
        case = make_case("B1", "super", m)
        lam0 = enumerate_lambda(case)[0]
        sch = multiplet_superchar(vzero(1), lam0, case, 14)
        assert sch.same_series(walg_vacuum_superchar_oracle(case, 14))


def test_superchar_parity_of_sum():
    # ch + sch = 2 * (even part): all coefficients even
    case = make_case("B2", "super", 3)
    lam0 = enumerate_lambda(case)[0]
    ch = multiplet_char(vzero(2), lam0, case, 10)
    sch = multiplet_superchar(vzero(2), lam0, case, 10)
    total = ch.add(sch)
    assert all(c % 2 == 0 for c in total.coeffs)
    diff = ch.add(-sch)
    assert all(c % 2 == 0 for c in diff.coeffs)


def test_superchar_requires_super():
    with pytest.raises(UnsupportedCaseError):
        multiplet_superchar(vzero(1), L0, A1P2, 5)


# -- Ramond sector ---------------------------------------------------------------

# the constants of the correction a*(alpha_r, nu) + b*(alpha_{r-1}, nu) + c0
# that used to be fitted to sampled lattice points, kept as literals
RAMOND_FIT = {
    ("B1", 1): (Fraction(1, 2), 0, Fraction(1, 8)),
    ("B1", 2): (Fraction(1, 2), 0, Fraction(-1, 8)),
    ("B1", 3): (Fraction(1, 2), 0, Fraction(-7, 40)),
    ("B2", 1): (1, Fraction(1, 2), Fraction(1, 4)),
    ("B2", 2): (1, Fraction(1, 2), Fraction(-7, 12)),
    ("B2", 3): (1, Fraction(1, 2), Fraction(-3, 4)),
}


@pytest.mark.parametrize("name,m", sorted(RAMOND_FIT))
def test_ramond_delta_matches_fitted_constants(name, m):
    # the label route's Ramond pricing, Q(u + flow)/den over the tail's base
    # with u the labels of p*nu - p*gamma, against the fitted constants
    case = make_case(name, "ramond", m)
    rs = case.rs
    r = rs.rank
    a, b, c0 = RAMOND_FIT[name, m]
    quad, den, flow = _form(case)
    base = _tail(case, 0).base
    for coords in product(range(-2, 3), repeat=r):
        nu = vzero(r)
        for c, cow in zip(coords, rs.fund_coweights):
            nu = vadd(nu, vscale(Fraction(c, case.p), cow))
        want = fock_delta(nu, case) + a * rs.pairing(rs.simple_roots[r - 1], nu) \
            + c0 + Fraction(1, 16)
        if r >= 2:
            want += b * rs.pairing(rs.simple_roots[r - 2], nu)
        u = [x + f for x, f in
             zip(rs.integral_labels(vscale(case.p, vsub(nu, case.gamma))), flow)]
        qu = sum(x * sum(map(mul, row, u)) for x, row in zip(u, quad))
        assert base + Fraction(qu, den) == want - case.central_charge / 24
        assert ramond_delta_reference(nu, case) == want


@pytest.mark.parametrize("name,m", [(name, m) for name in ("B1", "B2") for m in (1, 2, 3, 4)])
def test_ramond_dot_route_every_coset(name, m):
    # the twisted walk, and multiplet_char with its * route check, against
    # the add chain of the Fraction route, which reads ramond_delta_reference
    # on the dot-moved points
    case = make_case(name, "ramond", m)
    for lam in enumerate_lambda(case):
        for alpha in dominant_alphas(case.rs, 2):
            want = fraction_route(case, lam, alpha, 8)[0].to_json_dict()
            got = alternating_sum(case, lam, vadd(alpha, lam.bullet_up), 8)
            assert got.to_json_dict() == want
            assert multiplet_char(alpha, lam, case, 8).to_json_dict() == want


def test_ramond_unsupported_rank3():
    case = make_case("B3", "ramond", 2)
    lam = enumerate_lambda(case)[0]
    refusal = r"^Ramond weights of B3:ramond:m=2 \(rank 3\) are not checked against any"
    with pytest.raises(UnsupportedCaseError, match=refusal):
        weight_space_char(lam, lam.bullet_up, case, 5)
    with pytest.raises(UnsupportedCaseError, match=refusal):
        multiplet_ramond_char(vzero(3), enumerate_lambda(case)[0], case, 5)


def test_ramond_char_even_coefficients():
    for name, m in [("B1", 2), ("B2", 2)]:
        case = make_case(name, "ramond", m)
        lam0 = enumerate_lambda(case)[0]
        ch = multiplet_ramond_char(vzero(case.rank), lam0, case, 12)
        assert all(c % 2 == 0 for c in ch.coeffs)
        assert all(c >= 0 for c in ch.coeffs)


def test_ramond_requires_variant():
    with pytest.raises(UnsupportedCaseError):
        multiplet_ramond_char(vzero(1), L0, A1P2, 5)


# -- full construction character ---------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_ft_char_a1_triplet_closed_form(m):
    """The triplet algebra W(p), p = m, from the theta functions of Feigin,
    Gainutdinov, Semikhatov and Tipunin (CMP 265, 2006).  With s the digit of
    the coset:

        bullet 0:  eta^-1 sum_n (2n + 1) q^(p (n + (p - s)/2p)^2)
        bullet 1:  eta^-1 sum_n 2n q^(p (n - s/2p)^2)

    over all integers n, equal exactly to ft_char up to its cutoff."""
    case = make_case("A1", "nonsuper", m)
    p, order = case.p, 15
    eta = eta_inv_pow(1, order + 1)
    for lam in enumerate_lambda(case):
        got = ft_char(lam, case, order)
        (s,) = lam.digits
        want = QSeries.zero(got.cutoff)
        for n in range(-order - 2, order + 3):
            if lam.bullet_index == 0:
                coef, e = 2 * n + 1, p * (n + Fraction(p - s, 2 * p)) ** 2
            else:
                coef, e = 2 * n, p * (n - Fraction(s, 2 * p)) ** 2
            if coef and e + eta.base <= got.cutoff:
                want = want.add(scale(eta.qshift(e), coef))
        assert got == want, (m, lam.label())


def test_ft_char_rank1():
    # 1 * W_0 + 3 * W_{-alpha} + 5 * W_{-2alpha} + ... with dim = 2n+1
    f = ft_char(L0, A1P2, 6)
    explicit = None
    for n in range(0, 12):
        alpha = vscale(n, A1P2.rs.simple_roots[0])
        term = scale(multiplet_char(alpha, L0, A1P2, 6), 2 * n + 1)
        explicit = term if explicit is None else explicit.add(term)
    assert f.same_series(explicit.truncate(f.cutoff))
    assert all(c >= 0 for c in f.coeffs)
    assert f.base == Fraction(1, 12)


def test_ft_char_symplectic_fermion_cross_check():
    """At p=2 the rank-1 construction is the even symplectic-fermion pair;
    its four sectors have classical product characters, giving an oracle for
    the full dimension-weighted sum that never touches the Weyl-sum code."""
    case = make_case("A1", "nonsuper", 2)
    lams = enumerate_lambda(case)
    n = 14
    plus = [0] * (n + 1)
    minus = [0] * (n + 1)
    plus[0] = minus[0] = 1
    for part in range(1, n + 1):
        for k in range(n, part - 1, -1):
            plus[k] += plus[k - part]
            minus[k] -= minus[k - part]
    sq_plus = [sum(plus[i] * plus[j - i] for i in range(j + 1)) for j in range(n + 1)]
    sq_minus = [sum(minus[i] * minus[j - i] for i in range(j + 1)) for j in range(n + 1)]
    even = [(a + b) // 2 for a, b in zip(sq_plus, sq_minus)]
    odd = [(a - b) // 2 for a, b in zip(sq_plus, sq_minus)]
    # untwisted sectors: even part is the vacuum coset, odd part the spin coset
    f = ft_char(lams[0], case, n)
    assert f.base == Fraction(1, 12) and list(f.coeffs) == even[:len(f.coeffs)]
    f = ft_char(lams[2], case, n)
    assert f.base == Fraction(13, 12) and list(f.coeffs) == odd[1:len(f.coeffs) + 1]
    # twisted sectors: integer/half-integer split of prod (1 + q^(k-1/2))^2
    tw = [0] * (2 * n + 1)
    tw[0] = 1
    for twok in range(1, 2 * n + 1, 2):
        for k in range(2 * n, twok - 1, -1):
            tw[k] += tw[k - twok]
    sq_tw = [sum(tw[i] * tw[j - i] for i in range(j + 1)) for j in range(2 * n + 1)]
    f = ft_char(lams[1], case, n)
    assert f.base == Fraction(-1, 24)
    assert list(f.coeffs) == sq_tw[0::2][:len(f.coeffs)]   # ground weight -1/8
    f = ft_char(lams[3], case, n)
    assert f.base == Fraction(11, 24)
    assert list(f.coeffs) == sq_tw[1::2][:len(f.coeffs)]   # ground weight 3/8


@pytest.mark.parametrize("name,variant,m", [
    ("A1", "nonsuper", 3), ("A2", "nonsuper", 1), ("B2", "nonsuper", 1),
    ("G2", "nonsuper", 1), ("B1", "super", 2), ("B2", "super", 2),
    ("B1", "ramond", 2), ("B1", "ramond", 3),
])
def test_ft_char_matches_add_chain(name, variant, m):
    # the dimension-weighted add chain of multiplet_char over the weights whose
    # lowest term, read off the Fraction route, lies within 2 of the cutoff
    case = make_case(name, variant, m)
    for lam in enumerate_lambda(case):
        assert ft_char(lam, case, 4).to_json_dict() == add_chain(case, lam, 4).to_json_dict()


def add_chain(case, lam, order):
    """The dimension-weighted add chain of multiplet_char over the dominant
    alpha of the cone whose lowest term, read off the Fraction route, lies
    within 2 of the cutoff, cut at the cutoff."""
    rs, cutoff = case.rs, order - case.central_charge / 24
    want = QSeries.zero(cutoff)
    limit = cutoff + 2 - _tail(case, 0).base
    for alpha in dominant_alphas(rs, height_bound_sqrt(case, lam, limit)):
        if fraction_route(case, lam, alpha, order)[2] <= cutoff + 2:
            dim = rs.weyl_dim(rs.integral_labels(vadd(alpha, lam.bullet_up)))
            want = want.add(scale(multiplet_char(alpha, lam, case, order), dim))
    return want.truncate(cutoff)


def test_empty_walk_gives_the_zero_series():
    # on A1 m=4 coset 1,1 at order 0 no dominant weight's identity term is
    # within the cutoff's margin: the walk ends at its first weight, and
    # ft_char returns the zero series at the cutoff -c/24, as the add chain does
    case = make_case("A1", "nonsuper", 4)
    lam = next(lam for lam in enumerate_lambda(case) if lam.label() == "1,1")
    cutoff = -case.central_charge / 24
    top = floor((cutoff + 2 - _tail(case, 0).base) * _form(case)[1])
    b = _coset_vector(case, number(case, lam))
    assert _weights(case, b, case.rs.minuscule_labels[lam.bullet_index], top) == []
    got = ft_char(lam, case, 0)
    assert got.is_zero and got.coeffs == () and got.cutoff == cutoff
    assert got.to_json_dict() == add_chain(case, lam, 0).to_json_dict() \
        == QSeries.zero(cutoff).to_json_dict()


# -- the rules ft_char's scan relies on ---------------------------------------------

RULE_CASES = ([("A1", "nonsuper", m) for m in (1, 2, 3)]
              + [("A2", "nonsuper", m) for m in (1, 2)]
              + [("A3", "nonsuper", 1), ("A4", "nonsuper", 1), ("B2", "nonsuper", 1),
                 ("B2", "nonsuper", 2), ("B3", "nonsuper", 1), ("C3", "nonsuper", 1),
                 ("G2", "nonsuper", 1), ("G2", "nonsuper", 2), ("D4", "nonsuper", 1),
                 ("B1", "super", 2), ("B1", "super", 3), ("B2", "super", 2),
                 ("B3", "super", 1)]
              + [(name, "ramond", m) for name in ("B1", "B2") for m in (1, 2)])


def _betas(case, lam, heights):
    """Labels of beta = alpha + bullet for the dominant alpha of the cone at
    these heights."""
    rs, bullet = case.rs, case.rs.minuscule_labels[lam.bullet_index]
    return [tuple(map(add, rs.integral_labels(alpha), bullet)) for h in heights
            for alpha in cone_shell(rs, h) if rs.is_dominant(alpha)]


@pytest.mark.parametrize("name,variant,m", RULE_CASES)
def test_identity_term_is_the_least_dot_term(name, variant, m):
    # b and beta + rho are dominant, so (b, w(beta + rho)) <= (b, beta + rho):
    # the identity term, which ft_char prices alone, is the walk's least
    case = make_case(name, variant, m)
    quad = _form(case)[0]
    for lam in enumerate_lambda(case):
        b = _coset_vector(case, number(case, lam))
        for labels in _betas(case, lam, range(4)):
            dot = dot_walk(case, lam, labels)[1]
            assert min(dot) == dot[0] == _value(quad, _identity_point(case, b, labels))


@pytest.mark.parametrize("name,variant,m", RULE_CASES)
def test_walk_keeps_the_cones_weights(name, variant, m):
    # ft_char's walk on the labels lists each beta = alpha + bullet, alpha
    # dominant in Q, whose identity term is within top, and no other: the
    # dominant part of the cone up to the square-root height bound, filtered
    # by that term, at ft_char's tops for orders 4 and 10 (the Ramond flow
    # included, where the walk's cut is not the term's own bound)
    case = make_case(name, variant, m)
    quad, den = _form(case)[:2]
    for order in (4, 10):
        limit = order - case.central_charge / 24 + 2 - _tail(case, 0).base
        top = floor(limit * den)
        for lam in enumerate_lambda(case):
            b = _coset_vector(case, number(case, lam))
            heights = range(height_bound_sqrt(case, lam, limit) + 1)
            want = [beta for beta in _betas(case, lam, heights)
                    if _value(quad, _identity_point(case, b, beta)) <= top]
            got = _weights(case, b, case.rs.minuscule_labels[lam.bullet_index], top)
            assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name,variant,m", RULE_CASES)
def test_star_term_at_w_is_the_dot_term_at_w_inverse(name, variant, m):
    # the * route's term at w prices the same point as the dot route's at w^-1
    case = make_case(name, variant, m)
    rs, sys = case.rs, system(case)
    where = {w.labels: k for k, w in enumerate(sys.weyl)}
    inverse = [where[rs.weyl_inv(w).labels] for w in sys.weyl]
    for lam in enumerate_lambda(case):
        for labels in _betas(case, lam, range(2)):
            dot = dot_walk(case, lam, labels)[1]
            assert _star_walk(case, lam, labels) == [dot[i] for i in inverse]


@pytest.mark.parametrize("name,variant,m", RULE_CASES)
def test_below_gives_the_full_walk_terms_up_to_top(name, variant, m):
    # the pruned climb yields the full walk's dot terms with e <= top, each
    # once with sign (-1)^len(w), at ft_char's tops for orders 4 and 10; it may
    # prune because s_i moves e by t_i * rise_i, with every rise_i >= 0
    case = make_case(name, variant, m)
    sys, cols, den = system(case), case.rs.reflect_cols(), _form(case)[1]
    tops = [floor((order - case.central_charge / 24 + 2 - _tail(case, 0).base) * den)
            for order in (4, 10)]
    for lam in enumerate_lambda(case):
        b = _coset_vector(case, number(case, lam))
        for labels in _betas(case, lam, range(3)):
            orbit, dot = dot_walk(case, lam, labels)
            at = dict(zip(orbit, dot))
            rise = [(at[reflect_labels(orbit[0], i, col)] - dot[0]) // orbit[0][i]
                    for i, col in enumerate(cols)]
            assert min(rise) >= 0
            assert all(at[reflect_labels(t, i, col)] - e == t[i] * rise[i]
                       for t, e in at.items() for i, col in enumerate(cols))
            for top in tops:
                want = sorted((e, (-1) ** w.length, t)
                              for w, t, e in zip(sys.weyl, orbit, dot) if e <= top)
                assert sorted(_below(case, b, labels, top)) == want


def test_below_refuses_a_coset_vector_that_is_not_dominant():
    # with a negative label in b some ascent lowers e, and the climb would
    # stop below terms that reach the cutoff
    case = make_case("A2", "nonsuper", 1)
    assert list(_below(case, [1, 1], (0, 0), 100))
    with pytest.raises(AssertionError, match="not dominant"):
        list(_below(case, [-1, 1], (0, 0), 100))


def test_route_disagreement_is_a_failed_invariant(capsys):
    # coset 0's first simple shift moved by alpha_1 off the carry (as
    # moved_start moves box labels) keeps every moved point in its class, so
    # only the * route's exponents move: multiplet_char raises, and the CLI
    # exits 3 with one JSON line and nothing on stdout
    case = make_case("B2", "nonsuper", 2)
    argv = ["char", "--algebra", "B2", "--m", "2", "--lambda", "0,1,1", "--order", "10"]
    for cache in (system, _cosets):
        cache.cache_clear()
    try:
        table = _cosets(case)
        assert table.label(0) == "0,1,1"
        multiplet_char(vzero(2), table.record(0), case, 10)
        shift = table.simple(0)[1]
        shift[0] = tuple(map(add, shift[0], table.cols[0]))
        with pytest.raises(AssertionError, match="^the two alternating-sum routes disagree$"):
            multiplet_char(vzero(2), table.record(0), case, 10)
        code, out = cli.main(argv), capsys.readouterr()
    finally:
        for cache in (system, _cosets):
            cache.cache_clear()
    assert (code, out.out, out.err.count("\n")) == (3, "", 1)
    assert json.loads(out.err) == {"error": "internal", "type": "AssertionError",
                                   "message": "the two alternating-sum routes disagree"}


STAR_CASES = RULE_CASES + [spec for spec in REFERENCE_CASES
                            if spec[1] == "ramond" and spec not in RULE_CASES]


def assert_star_climb_matches_walk(case, lam, labels, top):
    # the climb yields the walk's (e, sign) for each w with e <= top, once,
    # so its numerator, zeros dropped, is the walk's cut at top
    signs = [(-1) ** w.length for w in system(case).weyl]
    exps = _star_walk(case, lam, labels)
    got = list(_star_below(case, number(case, lam), labels, top))
    assert sorted(got) == sorted((e, s) for e, s in zip(exps, signs) if e <= top)
    num = {}
    for e, sign in got:
        num[e] = num.get(e, 0) + sign
    assert ({e: c for e, c in num.items() if c}
            == {e: c for e, c in _numerator(case, exps).items() if c and e <= top})


@pytest.mark.parametrize("name,variant,m", STAR_CASES)
def test_star_climb_gives_the_walk_terms_up_to_top(name, variant, m):
    # at multiplet_char's top for orders 4 and 10, on every coset, for the
    # dominant alpha of height at most 2
    case = make_case(name, variant, m)
    for lam in enumerate_lambda(case):
        b = _coset_vector(case, number(case, lam))
        for labels in _betas(case, lam, range(3)):
            for order in (4, 10):
                top = _reach(case, b, labels, _tail(case, order))
                assert_star_climb_matches_walk(case, lam, labels, top)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STAR_CASES), st.data())
def test_star_climb_gives_the_walk_terms_property(spec, data):
    case = make_case(*spec)
    lam = data.draw(st.sampled_from(enumerate_lambda(case)))
    labels = data.draw(st.sampled_from(_betas(case, lam, range(4))))
    order = data.draw(st.integers(0, 16))
    top = _reach(case, _coset_vector(case, number(case, lam)), labels, _tail(case, order))
    assert_star_climb_matches_walk(case, lam, labels, top)


def _lattice_voa_cosets():
    # p = 1: m = 1 in the simply-laced nonsuper family and in the super one
    for name, variant in [("A1", "nonsuper"), ("A2", "nonsuper"), ("A3", "nonsuper"),
                          ("A4", "nonsuper"), ("D4", "nonsuper"), ("B1", "super"),
                          ("B2", "super"), ("B3", "super")]:
        for lam in enumerate_lambda(make_case(name, variant, 1)):
            marks = ()
            if lam.bullet_index and name != "A1":
                marks = pytest.mark.xfail(strict=True, reason=(
                    "ft_char sums over dominant alpha, not over dominant "
                    "beta = alpha + bullet, and misses terms on the nonzero "
                    "classes of A_n (n >= 2) and D_n (ROADMAP item 1)"))
            yield pytest.param(name, variant, lam.label(), marks=marks,
                               id=f"{name}-{variant}-{lam.label()}")


@pytest.mark.parametrize("name,variant,label", _lattice_voa_cosets())
def test_ft_char_at_p1_is_the_lattice_theta_series(name, variant, label):
    # at p = 1 the construction is expected to be the lattice VOA of Q, whose
    # module on the coset is its theta series times the tail
    case = make_case(name, variant, 1)
    lam = next(lam for lam in enumerate_lambda(case) if lam.label() == label)
    assert case.p == 1
    got = ft_char(lam, case, 4)
    assert got.to_json_dict() == lattice_theta_char(case, lam, 4).to_json_dict()


def _theta_eta_series(case, theta, order):
    """The series q^(-c/24) * theta * prod (1 - q^k)^-rank to q^order, theta
    a list of integer-exponent coefficients."""
    base = -case.central_charge / 24
    tail = eta_inv_pow_reference(case.rank, order)
    return QSeries.make(base, 1, convolve(theta, list(tail.coeffs), order + 1), base + order)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ft_char_at_p1_on_d_n_is_the_theta_closed_form(n):
    """At p = 1 coset 0 of D_n carries the lattice VOA of Q(D_n), the x in
    Z^n with even coordinate sum, at c = n (Conway and Sloane, Sphere
    Packings, Lattices and Groups, ch. 4).  Its character is the theta series
    over eta^n.  With theta3 = sum_k q^(k^2/2) and theta4 = sum_k (-1)^k
    q^(k^2/2), (-1)^(sum x) picks the even sums:

        sum_{x in Q(D_n)} q^(|x|^2/2) = (theta3^n + theta4^n)/2,

    so ft_char = ((theta3^n + theta4^n)/2) eta^-n, here to order 8.  In half
    powers of q, theta3 and theta4 have coefficients 2 (1 at k = 0) and
    (-1)^k times that at k^2; the even-sum exponents |x|^2/2 are integers."""
    case, order = make_case(f"D{n}", "nonsuper", 1), 8
    assert case.p == 1 and case.central_charge == n
    half = 2 * order + 1
    th3, th4 = [0] * half, [0] * half
    for k in range(-order - 1, order + 2):
        if k * k < half:
            th3[k * k] += 1
            th4[k * k] += -1 if k % 2 else 1
    pow3, pow4 = [1] + [0] * (half - 1), [1] + [0] * (half - 1)
    for _ in range(n):
        pow3, pow4 = convolve(pow3, th3, half), convolve(pow4, th4, half)
    assert all(a + b == 0 for a, b in zip(pow3[1::2], pow4[1::2]))
    theta = [(a + b) // 2 for a, b in zip(pow3[::2], pow4[::2])]
    got = ft_char(enumerate_lambda(case)[0], case, order)
    assert got.to_json_dict() == _theta_eta_series(case, theta, order).to_json_dict()


def test_ft_char_at_p1_on_e8_is_e4_over_eta8():
    """At p = 1 the one coset of E8 carries the lattice VOA of the E8
    lattice, at c = 8, whose theta series is the Eisenstein series
    E4 = 1 + 240 sum_n sigma_3(n) q^n (Conway and Sloane, ch. 4), so
    ft_char = E4 eta^-8 = q^(-1/3) (1 + 248 q + 4124 q^2 + 34752 q^3 + ...),
    here to order 6."""
    case, order = make_case("E8", "nonsuper", 1), 6
    assert case.p == 1 and case.central_charge == 8
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
                for k in range(1, order + 1)]
    got = ft_char(enumerate_lambda(case)[0], case, order)
    assert got.to_json_dict() == _theta_eta_series(case, e4, order).to_json_dict()
    assert got.coeffs == (1, 248, 4124, 34752, 213126, 1057504, 4530744)


def test_ft_char_and_superchar_read_no_weyl_table(monkeypatch):
    # ft_char climbs from each included weight's identity term and
    # multiplet_superchar reads its extra sign off each climbed point, so
    # neither enumerates W nor builds the shift tables over it
    case = make_case("B4", "super", 1)
    lam, alphas = enumerate_lambda(case)[0], dominant_alphas(case.rs, 2)
    want = [fraction_route(case, lam, alpha, 6)[1].to_json_dict() for alpha in alphas]

    def refuse(*args):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(RootSystem, "weyl_table", refuse)
    monkeypatch.setattr(RootSystem, "enumerate_weyl", refuse)
    monkeypatch.setattr(characters, "system", refuse)
    assert [multiplet_superchar(alpha, lam, case, 6).to_json_dict() for alpha in alphas] == want
    e6 = make_case("E6", "nonsuper", 1)
    got = ft_char(enumerate_lambda(e6)[0], e6, 3)
    assert got.base == Fraction(-1, 4) and got.coeffs == (1, 78, 729, 4382)


def test_ft_char_nonnegative_every_coset():
    # a character counts states: no negative coefficient on any coset of the
    # Ramond and super cases of rank <= 2
    specs = [("B1", "ramond", m) for m in (1, 2, 3, 4)]
    specs += [("B2", "ramond", m) for m in (1, 2, 3)]
    specs += [(name, "super", m) for name in ("B1", "B2") for m in (2, 3)]
    cosets = 0
    for spec in specs:
        case = make_case(*spec)
        for lam in enumerate_lambda(case):
            f = ft_char(lam, case, 10)
            assert all(c >= 0 for c in f.coeffs), (spec, lam.label())
            cosets += 1
    assert cosets == 93


def test_ft_char_refuses_past_the_alpha_cap(monkeypatch):
    # A1 at p=2 and order 6 sums two dominant weights
    want = ft_char(L0, A1P2, 6)
    monkeypatch.setattr(characters, "ALPHA_CAP", 2)
    assert ft_char(L0, A1P2, 6) == want
    monkeypatch.setattr(characters, "ALPHA_CAP", 1)
    with pytest.raises(CapExceededError, match="more than 1 dominant weights"):
        ft_char(L0, A1P2, 6)


def test_ft_char_nonnegative_b2():
    case = make_case("B2", "nonsuper", 2)
    f = ft_char(enumerate_lambda(case)[0], case, 4)
    assert all(c >= 0 for c in f.coeffs)
    assert f.base == -case.central_charge / 24


# -- Verma characters ---------------------------------------------------------------

@pytest.mark.parametrize("name,m", [("B1", 1), ("B1", 2), ("B1", 3),
                                    ("B2", 2), ("B2", 3)])
def test_verma_identity(name, m):
    case = make_case(name, "super", m)
    rs = case.rs
    for lam in enumerate_lambda(case):
        for alpha in dominant_alphas(rs, 2):
            mu = vscale(case.p, vsub(lam.value, alpha))
            got = verma_char_super(mu, case, 12)
            want = weight_space_char(lam, vadd(alpha, lam.bullet_up), case, 12)
            assert got.same_series(want)


def test_verma_dot_orbit_invariance():
    case = make_case("B2", "super", 3)
    rs = case.rs
    shift_vec = vscale(case.p - 1, rs.rho)
    for coords in product(range(-2, 3), repeat=2):
        mu = tuple(Fraction(c) for c in coords)
        for w in rs.enumerate_weyl():
            moved = vadd(weyl_apply_matrix(rs, w, vsub(mu, shift_vec)), shift_vec)
            assert verma_char_super(mu, case, 8).same_series(
                verma_char_super(moved, case, 8))


def test_verma_requires_super():
    with pytest.raises(UnsupportedCaseError):
        verma_char_super(vzero(1), A1P2, 5)


B1S2 = make_case("B1", "super", 2)
LAM01 = next(lam for lam in enumerate_lambda(A1P2) if lam.label() == "0,1")


@pytest.mark.parametrize("call", [
    lambda o: eta_inv_pow(2, o),
    lambda o: fermion_char(FermionKind.NS_CH, o),
    lambda o: multiplet_char(vzero(1), L0, A1P2, o),
    lambda o: multiplet_superchar(vzero(1), enumerate_lambda(B1S2)[0], B1S2, o),
    lambda o: weight_space_char(L0, vzero(1), A1P2, o),
    lambda o: ft_char(L0, A1P2, o),
    lambda o: ft_char(LAM01, A1P2, o),
    lambda o: walg_vacuum_oracle(A1P2, o),
    lambda o: walg_vacuum_superchar_oracle(B1S2, o),
], ids=["eta_inv_pow", "fermion_char", "multiplet_char",
        "multiplet_superchar", "weight_space_char", "ft_char", "ft_char_kept",
        "walg_vacuum_oracle", "walg_vacuum_superchar_oracle"])
@pytest.mark.parametrize("order", [-1, -2])
def test_negative_order_is_rejected(call, order):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        call(order)


@pytest.mark.parametrize("ramond_first", [False, True])
def test_one_coset_layout_per_case(ramond_first):
    # weight_space_char and the Ramond character's * climb read the W-free
    # layout; in either order they share one, which the super case shares
    # too, and system attaches one Weyl enumeration to it for both cases
    sup, ram = make_case("B2", "super", 2), make_case("B2", "ramond", 2)
    for cache in (_enumerate_weyl_cached, system, _cosets):
        cache.cache_clear()
    lam = enumerate_lambda(ram)[0]
    calls = [lambda: weight_space_char(lam, lam.bullet_up, ram, 4),
             lambda: multiplet_ramond_char(vzero(2), lam, ram, 4)]
    for call in calls[::-1] if ramond_first else calls:
        call()
    layout = _cosets(ram)
    assert layout is _cosets(sup) is system(ram) is system(sup)
    assert layout.lambdas is enumerate_lambda(ram) is enumerate_lambda(sup)
    assert _cosets.cache_info().misses == 2 and _enumerate_weyl_cached.cache_info().misses == 1


@pytest.mark.parametrize("name,variant,call", [
    ("A2", "nonsuper", ft_char),
    ("B2", "super", ft_char),
    ("A2", "nonsuper", lambda lam, case, order: multiplet_char(vzero(2), lam, case, order)),
    ("B2", "ramond", lambda lam, case, order: multiplet_char(vzero(2), lam, case, order)),
], ids=["ft_char", "ft_char_super", "multiplet_char", "multiplet_char_ramond"])
def test_a_character_call_numbers_its_coset_once(monkeypatch, name, variant, call):
    # the coset's number is resolved once per public call and passed on:
    # ft_char checks each kept weight against it, and multiplet_char's input
    # check, coset vector and * climb read it; one index call for any number
    # of checked weights
    case = make_case(name, variant, 2)
    lam = enumerate_lambda(case)[-1]
    counts = {"index": 0, "check_point": 0}
    for method in counts:
        def counted(self, *args, _method=getattr(ShiftSystem, method), _name=method):
            counts[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(ShiftSystem, method, counted)
    call(lam, case, 10)
    assert counts["index"] == 1
    assert counts["check_point"] > 1
