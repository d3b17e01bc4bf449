"""Affine Weyl layer: circle action, chamber reduction, distinguished elements."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    affine_elt_fraction,
    affine_identity,
    affine_input,
    affine_inv_fraction,
    affine_mul_fraction,
    chamber_position,
    closed_form_y_super_fraction,
    dominant_alphas,
    dominant_reduce_fraction,
    dot_act_fraction,
    dot_action,
    invert_mat,
    mat_vec,
    mu_lambda_fraction,
    rho_hat_fin,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
    weyl_matrix,
    y_alpha_fraction,
    y_sigma_fraction,
)

from shiftlab.alcove import (
    AffineWeight,
    AffineWeylElt,
    WallReductionError,
    _family,
    affine_inv,
    affine_mul,
    alcove_json,
    closed_form_y_super,
    dominant_reduce,
    dot_act,
    mu_lambda,
    y_alpha,
    y_sigma,
)
from shiftlab.shift import alcove_inequality, enumerate_lambda, make_case

B1S2 = make_case("B1", "super", 2)
B2S3 = make_case("B2", "super", 3)
B2N2 = make_case("B2", "nonsuper", 2)


def rand_translation(case, rng):
    scale = case.rs.lacing if case.variant.value == "nonsuper" else 1
    return tuple(Fraction(scale * rng.randint(-2, 2)) for _ in range(case.rank))


def rand_elt(case, rng):
    elems = case.rs.enumerate_weyl()
    return AffineWeylElt(elems[rng.randrange(len(elems))], rand_translation(case, rng))


def rand_weight(case, rng):
    fin = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(case.rank))
    return AffineWeight(fin, Fraction(case.m), Fraction(rng.randint(-2, 2)))


def test_identity_dot_action():
    mu = AffineWeight((Fraction(1), Fraction(-2)), Fraction(3), Fraction(0))
    assert dot_act(affine_identity(B2N2), mu, B2N2) == mu


def check_translation(case, b):
    """The translation lattice rule on the integer labels of b."""
    _family(case).check_translation(case.rs.integral_labels(b))


def test_translation_lattice_validation():
    with pytest.raises(ValueError):
        check_translation(B2N2, (Fraction(1), Fraction(0)))
    check_translation(B2N2, (Fraction(2), Fraction(4)))
    check_translation(B2S3, (Fraction(1), Fraction(0)))
    # the rule on integer labels refuses what the one on root coordinates does
    for case in (B2N2, B2S3, make_case("G2", "nonsuper", 2), make_case("C3", "nonsuper", 1)):
        e = case.rs.identity_element()
        for b in itertools.product([Fraction(x, 2) for x in range(-4, 5)], repeat=case.rank):
            assert (outcome(check_translation, case, b) is ValueError) == \
                (outcome(affine_elt_fraction, case, e, b) is ValueError)


def test_translation_shifts_by_level():
    # t_B moves the finite part by (shifted level) * B and keeps the level
    case = B2N2
    b = (Fraction(2), Fraction(2))
    w = AffineWeylElt(case.rs.identity_element(), b)
    mu = AffineWeight(vzero(2), Fraction(case.m - case.rs.dual_coxeter_L),
                      Fraction(0))
    out = dot_act(w, mu, case)
    assert out.level == mu.level
    assert out.finite == vscale(case.m, b)


def test_dot_action_group_law():
    rng = random.Random(11)
    for case in (B2N2, B2S3, B1S2):
        for _ in range(25):
            a, b = rand_elt(case, rng), rand_elt(case, rng)
            mu = rand_weight(case, rng)
            lhs = dot_act(a, dot_act(b, mu, case), case)
            rhs = dot_act(affine_mul(case, a, b), mu, case)
            assert lhs == rhs
            ainv = affine_inv(case, a)
            assert dot_act(ainv, dot_act(a, mu, case), case) == mu


# the label group law on A2, B2, G2 and B3, nonsuper and super
GROUP_CASES = [make_case(name, "nonsuper", 3) for name in ("A2", "B2", "G2", "B3")] \
    + [make_case(name, "super", 3) for name in ("B2", "B3")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUP_CASES), st.data())
def test_label_group_law(case, data):
    # products and inverses on translation labels: the circle action is a
    # group action, a times its inverse is the identity, and both agree with
    # the Fraction forms, whose finite parts act by the matrices of words
    scale = _family(case).lattice_scale

    def element():
        w = data.draw(st.sampled_from(case.rs.enumerate_weyl()))
        coords = data.draw(st.lists(st.integers(-2, 2), min_size=case.rank,
                                    max_size=case.rank))
        return AffineWeylElt(w, tuple(Fraction(scale * c) for c in coords))

    a, b = element(), element()
    halves = data.draw(st.lists(st.integers(-8, 8), min_size=case.rank, max_size=case.rank))
    mu = AffineWeight(tuple(Fraction(x, 2) for x in halves), Fraction(case.m),
                      Fraction(data.draw(st.integers(-2, 2))))
    ab = affine_mul(case, a, b)
    assert dot_act(ab, mu, case) == dot_act(a, dot_act(b, mu, case), case)
    assert affine_mul(case, a, affine_inv(case, a)) == affine_identity(case)
    assert ab == affine_mul_fraction(case, a, b)
    assert affine_inv(case, a) == affine_inv_fraction(case, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUP_CASES), st.data())
def test_y_sigma_and_closed_form_match_fraction_forms(case, data):
    # y_sigma composes on labels, the Fraction form by the matrix of w's word
    # on top of y_alpha_fraction; raised errors are outcomes too
    rs = case.rs
    alpha = data.draw(st.sampled_from(dominant_alphas(rs, 2)))
    b_idx = data.draw(st.integers(0, len(rs.minuscule) - 1))
    w = data.draw(st.sampled_from(rs.enumerate_weyl()))
    assert outcome(y_sigma, w, alpha, b_idx, case) == \
        outcome(y_sigma_fraction, w, alpha, b_idx, case)
    if case.variant.is_super:
        assert closed_form_y_super(alpha, b_idx, case) == \
            closed_form_y_super_fraction(alpha, b_idx, case)


def test_reduce_idempotent_and_unique():
    rng = random.Random(23)
    for case in (B2N2, B2S3):
        for _ in range(30):
            mu = rand_weight(case, rng)
            res = dominant_reduce(mu, case)
            inside, wall = chamber_position(res.weight, case)
            assert inside and wall == res.on_wall
            again = dominant_reduce(res.weight, case)
            assert again.elt.finite_part.length == 0
            assert all(x == 0 for x in again.elt.translation)
            assert again.weight == res.weight
            # a reducer conjugated through a random element recovers the same
            # chamber weight (uniqueness of the orbit representative)
            g = rand_elt(case, rng)
            res2 = dominant_reduce(dot_act(g, mu, case), case)
            assert res2.weight.finite == res.weight.finite
            assert res2.weight.level == res.weight.level
            if not res.on_wall:
                combined = affine_mul(case, res2.elt, g)
                assert combined == res.elt


REDUCER_CASES = [("B1", "super", 2), ("B2", "super", 3), ("B2", "nonsuper", 2),
                 ("A2", "nonsuper", 2), ("G2", "nonsuper", 3), ("C3", "nonsuper", 1)]


@pytest.mark.parametrize("name,variant,m", REDUCER_CASES)
def test_dot_act_matches_fraction_route(name, variant, m):
    # the circle action on labels against Gram-form pairings and simple
    # reflections on Fraction coordinates
    case = make_case(name, variant, m)
    rng = random.Random(23)
    for _ in range(40):
        w, mu = rand_elt(case, rng), rand_weight(case, rng)
        assert dot_act(w, mu, case) == dot_act_fraction(w, mu, case)


@pytest.mark.parametrize("name,variant,m", REDUCER_CASES)
def test_label_chamber_check_matches_fraction_route(name, variant, m):
    # y_alpha's re-check reads chamber membership off the labels of
    # w(mu + rho_hat + scale*b): on every coset (the strong ones are those
    # y_alpha checks; C3 at m=1 has none) it agrees with chamber_position of
    # the Fraction dot action, for every candidate reducer and for random
    # affine elements, with both outcomes seen
    case = make_case(name, variant, m)
    fam = _family(case)
    rng = random.Random(29)
    inputs = [affine_input(case, alpha, lam) for lam in enumerate_lambda(case)
              for alpha in dominant_alphas(case.rs, 1)]
    elts = list({dominant_reduce(mu, case).elt for mu in inputs})
    elts += [rand_elt(case, rng) for _ in range(20)]
    seen = set()
    for mu in inputs:
        walk = fam.walk_labels(mu)
        for w in elts:
            want = chamber_position(dot_act_fraction(w, mu, case), case)
            end = fam.shift_labels(w.finite_part, case.rs.integral_labels(w.translation),
                                   walk[0], walk[2])
            assert fam.position(end, walk[2]) == want
            seen.add(want[0])
    assert seen == {True, False}


@pytest.mark.parametrize("name,variant,m", REDUCER_CASES)
def test_reducer_is_least_over_brute_force(name, variant, m):
    # w in W reduces mu when b = (w^-1 g_f - g)/scale lies in the translation
    # lattice (g = mu + rho_hat, g_f its chamber point); every such (w, b)
    # gives the chamber weight, dominant_reduce returns the least under
    # (length, word, translation), and it is on a wall when there are several
    case = make_case(name, variant, m)
    fam = _family(case)
    rng = random.Random(31)
    inverses = [(w, invert_mat(weyl_matrix(case.rs, w.word)))
                for w in case.rs.enumerate_weyl()]
    inputs = [affine_input(case, vzero(case.rank), lam) for lam in enumerate_lambda(case)]
    inputs += [rand_weight(case, rng) for _ in range(30)]
    for mu in inputs:
        res = dominant_reduce(mu, case)
        g = vadd(mu.finite, rho_hat_fin(case))
        g_f = vadd(res.weight.finite, rho_hat_fin(case))
        valid = []
        for w, inv in inverses:
            b = vscale(1 / fam.trans_scale(mu), vsub(mat_vec(inv, g_f), g))
            if all((x / fam.lattice_scale).denominator == 1 for x in b):
                valid.append(AffineWeylElt(w, b))
        assert all(dot_act(v, mu, case) == res.weight for v in valid)
        best = min(valid, key=lambda v: (v.finite_part.length, v.finite_part.word,
                                         v.translation))
        assert (res.elt.finite_part, res.elt.translation) == \
            (best.finite_part, best.translation)
        assert res.on_wall == (len(valid) > 1)


ORACLE_CASES = [("A1", "nonsuper", m) for m in (1, 2, 3)] \
    + [("B1", "super", m) for m in (1, 2, 3)] + [("B1", "ramond", 2)] \
    + [("A2", "nonsuper", 2), ("A2", "nonsuper", 3), ("B2", "nonsuper", 2),
       ("C2", "nonsuper", 2), ("C2", "nonsuper", 3), ("G2", "nonsuper", 3),
       ("G2", "nonsuper", 4)] \
    + [("B2", v, m) for v in ("super", "ramond") for m in (2, 3)] \
    + [("A3", "nonsuper", 3), ("B3", "super", 3), ("B3", "ramond", 3)]


def outcome(fn, *args):
    """fn's value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc)


@pytest.mark.parametrize("name,variant,m", ORACLE_CASES)
def test_integer_route_matches_fraction_oracle(name, variant, m):
    # on every strong coset and every alpha in [-1, 1]^r, the integer
    # reducer behind y_alpha, mu_lambda and alcove_json gives what the
    # Fraction route gives, raised errors included
    case = make_case(name, variant, m)
    strong = [lam for lam in enumerate_lambda(case) if alcove_inequality(lam, case)]
    alphas = [tuple(map(Fraction, a)) for a in itertools.product((-1, 0, 1), repeat=case.rank)]
    for alpha in alphas:
        for b_idx in sorted({lam.bullet_index for lam in strong}):
            assert outcome(y_alpha, alpha, b_idx, case) == \
                outcome(y_alpha_fraction, alpha, b_idx, case)
        for lam in strong:
            mu = affine_input(case, alpha, lam)
            assert outcome(dominant_reduce, mu, case) == \
                outcome(dominant_reduce_fraction, mu, case)
            want = outcome(mu_lambda_fraction, alpha, lam, case)
            assert outcome(mu_lambda, alpha, lam, case) == want
            got = outcome(alcove_json, case, alpha, lam)
            y = outcome(y_alpha_fraction, alpha, lam.bullet_index, case)
            if isinstance(got, dict):
                assert (got["y"], got["mu_lambda"]) == (y.describe(), want.describe())
            else:
                assert got in (y, want)


def test_rank1_super_reduction_example():
    lam = enumerate_lambda(B1S2)[0]
    res = dominant_reduce(affine_input(B1S2, vzero(1), lam), B1S2)
    y = affine_inv(B1S2, res.elt)
    assert y.finite_part.length == 0
    assert y.translation == vneg(B1S2.rs.rho_check)


def test_closed_forms_super():
    for case, heights in ((B1S2, 3), (make_case("B1", "super", 3), 3),
                          (B2S3, 2), (make_case("B2", "super", 4), 2)):
        rs = case.rs
        alphas = dominant_alphas(rs, heights)
        found = 0
        for b_idx in range(len(rs.minuscule)):
            for alpha in alphas:
                try:
                    y = y_alpha(alpha, b_idx, case)
                except WallReductionError:
                    continue
                found += 1
                cf = closed_form_y_super(alpha, b_idx, case)
                assert y == cf
        assert found > 0


def test_closed_form_rank1_literal():
    # bullet 0: pure translation by -(alpha + rho_check);
    # spin coset: composed with the single simple reflection
    rs = B1S2.rs
    alpha = rs.simple_roots[0]
    y0 = closed_form_y_super(alpha, 0, B1S2)
    assert y0.finite_part.length == 0
    assert y0.translation == vneg(vadd(alpha, rs.rho_check))
    y1 = closed_form_y_super(alpha, 1, B1S2)
    assert y1.finite_part.word == (0,)
    lit = affine_mul(
        B1S2,
        AffineWeylElt(rs.identity_element(), vneg(vadd(alpha, rs.rho_check))),
        AffineWeylElt(rs.element_from_word((0,)), vzero(1)))
    assert y1 == lit


def test_y_alpha_digit_independence_nonsuper():
    for case in (B2N2, make_case("B2", "nonsuper", 3),
                 make_case("A2", "nonsuper", 2)):
        for b_idx in range(len(case.rs.minuscule)):
            try:
                y_alpha(vzero(case.rank), b_idx, case)  # raises on dependence
            except WallReductionError:
                continue


def test_mu_lambda_in_chamber():
    for lam in enumerate_lambda(B2S3):
        if not alcove_inequality(lam, B2S3):
            continue
        red = mu_lambda(vzero(2), lam, B2S3)
        inside, _ = chamber_position(red, B2S3)
        assert inside
        assert red.level == Fraction(B2S3.m - 3)  # level preserved: m - r - 1


def test_mu_lambda_closed_form_bullet0():
    # for trivial minuscule part the reduced weight is p*lam at the same level
    for lam in enumerate_lambda(B1S2):
        if lam.bullet_index != 0 or not alcove_inequality(lam, B1S2):
            continue
        red = mu_lambda(vzero(1), lam, B1S2)
        assert red.finite == vscale(B1S2.p, lam.value)


def test_y_sigma_distinctness():
    for case in (B1S2, B2S3):
        rs = case.rs
        try:
            base = y_alpha(vzero(case.rank), 0, case)
        except WallReductionError:
            continue
        seen = {}
        for w in rs.enumerate_weyl():
            y = y_sigma(w, vzero(case.rank), 0, case)
            # distinct sigma give distinct translations (left-W equivalence)
            key = y.translation
            assert key not in seen, f"collision {w.word} vs {seen.get(key)}"
            seen[key] = w.word
        ident = y_sigma(rs.identity_element(), vzero(case.rank), 0, case)
        assert ident == base


def test_verma_compatibility_via_reduction():
    """The W-Verma parameter read off y_sigma o mu_lambda matches the
    weight-space character it is supposed to resolve."""
    from shiftlab.characters import verma_char_super, weight_space_char
    for case in (B1S2, make_case("B1", "super", 3), B2S3):
        rs = case.rs
        for lam in enumerate_lambda(case):
            if not alcove_inequality(lam, case) or lam.bullet_index != 0:
                continue
            mu_hat = mu_lambda(vzero(case.rank), lam, case)
            for w in rs.enumerate_weyl():
                y = y_sigma(w, vzero(case.rank), 0, case)
                moved = dot_act(y, mu_hat, case)
                param = vadd(moved.finite, vscale(case.p, rs.rho_check))
                got = verma_char_super(param, case, 10)
                beta = dot_action_beta(case, w, lam)
                want = weight_space_char(lam, beta, case, 10)
                assert got.same_series(want)


def dot_action_beta(case, w, lam):
    # w o bullet, w acting by the matrix of its word (y_sigma reflects labels)
    return dot_action(case, w, lam.bullet_up)


def test_alcove_json_shape():
    lam = enumerate_lambda(B1S2)[0]
    d = alcove_json(B1S2, vzero(1), lam)
    assert d["family"] == "twisted"
    assert set(d["y"]) == {"word", "translation"}
    assert set(d["mu_lambda"]) == {"finite", "level", "delta"}
