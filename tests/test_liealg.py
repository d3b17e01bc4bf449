"""Root-system layer: exact data, Weyl enumeration, dimension formula."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    copairing,
    ALL_TYPES,
    det_int,
    eager_case_vectors,
    eager_root_system,
    fraction_root_system,
    invert_mat,
    left_table,
    mat_mul,
    mat_vec,
    matrix_length,
    reflect_labels_dense,
    weyl_apply_matrix,
    weyl_dim_fraction,
    weyl_matrix,
)

from shiftlab import liealg
from shiftlab.liealg import (
    DEFAULT_WEYL_CAP,
    DEFAULT_WORD_CAP,
    CapExceededError,
    InvalidTypeError,
    SimpleLieType,
    _enumerate_weyl_cached,
    adjugate,
    build_root_system,
    exponents_of,
    reflect_labels,
    weyl_order,
)
from shiftlab.shift import make_case

ALL_SMALL = ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "F4", "G2"]


def rs_of(name):
    return build_root_system(SimpleLieType.parse(name))


def test_type_validation():
    with pytest.raises(InvalidTypeError):
        SimpleLieType.parse("Z3")
    with pytest.raises(InvalidTypeError):
        SimpleLieType("C", 1)
    with pytest.raises(InvalidTypeError):
        SimpleLieType("E", 5)
    with pytest.raises(InvalidTypeError):
        SimpleLieType.parse("A0")
    assert str(SimpleLieType.parse("e6")) == "E6"


@pytest.mark.parametrize("series", ["", "AB", "BC"])
def test_series_is_one_letter(series):
    with pytest.raises(InvalidTypeError):
        SimpleLieType(series, 2)


def test_a1_basics():
    rs = rs_of("A1")
    assert rs.gram == ((Fraction(2),),)
    assert rs.rho == rs.rho_check == (Fraction(1, 2),)
    assert len(rs.minuscule) == 2


def test_b2_data():
    rs = rs_of("B2")
    assert rs.lacing == 2
    # highest root alpha1 + 2 alpha2 is long, highest short root alpha1 + alpha2
    assert rs.theta == (Fraction(1), Fraction(2))
    assert rs.theta_s == (Fraction(1), Fraction(1))
    assert rs.norm2(rs.theta) == 2
    assert rs.norm2(rs.theta_s) == 1
    assert rs.pairing(rs.simple_roots[1], rs.simple_roots[1]) == 1


def test_g2_data():
    rs = rs_of("G2")
    assert weyl_order(rs.lie_type) == 12
    assert rs.longest_element().length == 6
    assert rs.exponents == (1, 5)
    assert rs.theta == (Fraction(2), Fraction(3))


@pytest.mark.parametrize("name", ALL_SMALL)
def test_normalization_and_rho(name):
    rs = rs_of(name)
    lengths = {rs.norm2(a) for a in rs.positive_roots}
    if name == "B1":
        assert lengths == {Fraction(1)}
    else:
        assert max(lengths) == 2
        assert lengths <= {Fraction(2), Fraction(1), Fraction(2, 3)}
    for i in range(rs.rank):
        assert copairing(rs, rs.rho, i) == 1
        assert rs.pairing(rs.rho_check, rs.simple_roots[i]) == 1
    # Cartan recovered from Gram
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert rs.cartan[i][j] == 2 * rs.gram[i][j] / rs.gram[i][i]


def assert_same_fields(rs, ref):
    """Every field of the record equal, with the same types (repr tells a
    Fraction from an int)."""
    for name in ref._fields:
        assert getattr(rs, name) == getattr(ref, name), name
        assert repr(getattr(rs, name)) == repr(getattr(ref, name)), name


@pytest.mark.parametrize("name", ALL_TYPES)
def test_integer_build_matches_fraction_oracle(name):
    # the integer build against Gauss-Jordan inverses and Gram-form lengths
    # over Fraction, field by field (values and Fraction types)
    t = SimpleLieType.parse(name)
    rs = build_root_system(t)
    assert_same_fields(rs, fraction_root_system(t))
    adj, det = adjugate(rs.cartan)
    assert det == det_int(rs.cartan)
    assert tuple(tuple(Fraction(c, det) for c in row) for row in adj) == invert_mat(rs.cartan)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_derived_fields_equal_the_eager_build(name):
    # the Fraction vectors derived on first read against the build that made
    # them all up front; the integer data against the labels of its vectors
    t = SimpleLieType.parse(name)
    rs, ref = build_root_system.__wrapped__(t), eager_root_system(t)
    assert_same_fields(rs, ref)
    assert repr(rs) == repr(ref).replace("RootRecord", "RootSystem")
    assert rs.roots == tuple(tuple(map(int, a)) for a in ref.positive_roots)
    assert rs.ell == tuple(int(rs.lacing * d) for d in ref.half_lengths)
    assert rs.rho_check_labels == rs.integral_labels(ref.rho_check)
    assert rs.integral_labels(ref.rho) == (1,) * rs.rank
    assert rs.theta_s_labels == rs.integral_labels(ref.theta_s)
    assert rs.minuscule_labels == tuple(map(rs.integral_labels, ref.minuscule))
    assert rs.to_json_dict()["num_positive_roots"] == len(ref.positive_roots)
    for variant in ("nonsuper",) + ("super", "ramond") * (t.series == "B"):
        for m in (1, 2, 3):
            case = make_case(t, variant, m)
            want = eager_case_vectors(ref, "nonsuper" if variant == "nonsuper" else "super", m)
            assert (case.x, case.gamma, case.central_charge) == want, (variant, m)
            assert repr((case.x, case.gamma, case.central_charge)) == repr(want)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_theta_L_marks_are_the_coroot_marks_of_theta_s(name):
    # theta_s^vee = 2 theta_s / |theta_s|^2 has integer coroot coordinates
    # d_i * (theta_s^vee)_i, and is the highest coroot theta_L
    rs = rs_of(name)
    n2 = rs.norm2(rs.theta_s)
    coroot = tuple(2 * x / n2 for x in rs.theta_s)
    assert coroot == rs.theta_L
    assert rs.theta_L_marks == tuple(d * x for d, x in zip(rs.half_lengths, coroot))


@pytest.mark.parametrize("name", ALL_SMALL)
def test_minuscule_transversal(name):
    rs = rs_of(name)
    assert len(rs.minuscule) == det_int(rs.cartan)
    # pairwise distinct classes modulo Q, and ceiling pairing with theta-coroot
    for i, a in enumerate(rs.minuscule):
        for b in rs.minuscule[:i]:
            assert not rs.in_root_lattice(tuple(x - y for x, y in zip(a, b)))
        if any(a):
            theta_vee = tuple(2 * x / rs.norm2(rs.theta) for x in rs.theta)
            assert rs.pairing(a, theta_vee) == 1


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "B3", "C3", "G2", "D4", "F4"])
def test_weyl_enumeration(name):
    rs = rs_of(name)
    elems = rs.enumerate_weyl()
    assert len(elems) == weyl_order(rs.lie_type)
    assert [e.length for e in elems] == sorted(e.length for e in elems)
    # lengths count inversions; labels are those of w(rho)
    for e in elems[:40]:
        m = weyl_matrix(rs, e.word)
        assert matrix_length(rs, m) == e.length
        moved = mat_vec(m, rs.rho)
        assert e.labels == tuple(copairing(rs, moved, i) for i in range(rs.rank))
    w0 = rs.longest_element()
    assert w0.length == len(rs.positive_roots)
    assert rs.weyl_mul(w0, w0).length == 0
    assert elems[-1] == w0
    # w0 maps positive roots to negative ones
    for a in rs.positive_roots:
        img = weyl_apply_matrix(rs, w0, a)
        assert all(x <= 0 for x in img)
    # products, inverses and the action against the matrices of their words
    rng = random.Random(41)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        ma, mb = weyl_matrix(rs, a.word), weyl_matrix(rs, b.word)
        assert weyl_matrix(rs, rs.weyl_mul(a, b).word) == mat_mul(ma, mb)
        assert weyl_matrix(rs, rs.weyl_inv(a).word) == invert_mat(ma)
        # the label route: reflect_along on the labels of a root
        for root in rs.positive_roots:
            assert rs.reflect_along(a.word, rs.integral_labels(root)) == \
                rs.integral_labels(mat_vec(ma, root))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B3", "C3", "A3", "D4"])
def test_to_dominant_finds_the_walls(name):
    # the dominant labels of the orbit and the word that moves them back;
    # over the root-coordinate box that verify walls scans, beta + rho is
    # orthogonal to a positive root (Gram form) exactly when its dominant
    # form has a zero label
    rs = rs_of(name)
    for coords in product(range(-2, 3), repeat=rs.rank):
        shifted = tuple(c + x for c, x in zip(coords, rs.rho))
        labels = rs.integral_labels(shifted)
        top, word = rs.to_dominant(labels)
        assert min(top) >= 0 and rs.reflect_along(word, top) == labels
        assert (0 in top) == any(rs.pairing(shifted, a) == 0 for a in rs.positive_roots)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_weyl_enumeration_order(name):
    # by (length, word), each word the lex-minimal reduced word of its element
    rs = rs_of(name)
    elems = rs.enumerate_weyl()
    keys = [(e.length, e.word) for e in elems]
    assert keys == sorted(keys)
    assert all(len(e.word) == e.length for e in elems)
    for e in elems:
        assert e.word == min(rs.all_reduced_words(e))
        assert rs.element_from_word(e.word) == e


@pytest.mark.parametrize("name", ALL_SMALL + ["E6"])
def test_weyl_table(name):
    # by (length, word), each word the least-descent route of its labels; the
    # index, left multiplication (left_table) and steps against weyl_mul;
    # W(E6) is checked on its first 2000 elements
    rs = rs_of(name)
    table = rs.weyl_table()
    elems = table.elements
    assert rs.enumerate_weyl() is elems and len(table.index) == len(elems)
    assert elems[-1] == rs.longest_element()
    count = 2000 if name == "E6" else len(elems)
    keys = [(e.length, e.word) for e in elems[:count]]
    assert keys == sorted(keys)
    simple = [rs.element_from_word((i,)) for i in range(rs.rank)]
    left = left_table(rs, count)
    for k, w in enumerate(elems[:count]):
        assert rs.element_from_labels(w.labels).word == w.word
        assert table.index[w.labels] == k
        for i, s in enumerate(simple):
            assert left[i][k] == table.index[rs.weyl_mul(s, w).labels]
    assert len(table.steps) == len(elems) - 1
    for k, (i, j) in enumerate(table.steps[:count - 1], start=1):
        assert elems[k] == rs.weyl_mul(simple[i], elems[j])
        assert elems[k].word == (i,) + elems[j].word


@pytest.mark.parametrize("name", [n for n in ALL_TYPES if n not in ALL_SMALL + ["E6"]
                                  and weyl_order(SimpleLieType.parse(n)) <= 50000])
def test_enumeration_ends_at_the_longest_element(name):
    # the canonical word of w0, and with it the condition walk and the golden
    # files, is the enumeration's last word; the enumeration runs by length,
    # so its last element is the one of length N.  test_weyl_table covers
    # the smaller types; the types past 50000 elements up to the cap (A8,
    # B7, C7, D7) take seconds and hundreds of MB each, and are left out
    rs = rs_of(name)
    elems = _enumerate_weyl_cached.__wrapped__(rs).elements
    assert len(elems) == weyl_order(rs.lie_type)
    assert elems[-1] == rs.longest_element()


def test_enumeration_cap(monkeypatch):
    # |W(A9)| = 10! passes the cap: the enumeration refuses on the order
    # alone, before it builds any element
    rs = rs_of("A9")

    def refuse(*args):
        raise AssertionError("a Weyl element was built")

    monkeypatch.setattr(liealg, "WeylElement", refuse)
    assert weyl_order(rs.lie_type) == 3628800 > DEFAULT_WEYL_CAP
    with pytest.raises(CapExceededError,
                       match=r"^\|W\(A9\)\| = 3628800 exceeds the enumeration cap 1000000$"):
        rs.enumerate_weyl()


def test_reduced_words():
    rs = rs_of("A2")
    w0 = rs.longest_element()
    words = rs.all_reduced_words(w0)
    assert sorted(words) == [(0, 1, 0), (1, 0, 1)]
    rs2 = rs_of("B2")
    assert len(rs2.all_reduced_words(rs2.longest_element())) == 2
    # w0 of A5 has 292,864 reduced words, past DEFAULT_WORD_CAP
    rs5 = rs_of("A5")
    with pytest.raises(CapExceededError, match=f"^more than {DEFAULT_WORD_CAP} reduced words "
                                               f"for element of length 15$"):
        rs5.all_reduced_words(rs5.longest_element())


def test_exponents_tables():
    for name in ALL_SMALL:
        t = SimpleLieType.parse(name)
        exps = exponents_of(t)
        rs = rs_of(name)
        assert sum(exps) == len(rs.positive_roots)
        prod = 1
        for e in exps:
            prod *= e + 1
        assert prod == weyl_order(t)


def test_weyl_dim_oracles():
    rs = rs_of("A2")
    # defining module: orbit of the minuscule fundamental weight
    w1 = rs.fund_weights[0]
    orbit = {w1}
    frontier = [w1]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                img = weyl_apply_matrix(rs, rs.element_from_word((i,)), v)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    assert rs.weyl_dim(rs.integral_labels(w1)) == len(orbit) == 3
    # adjoint: roots plus Cartan
    assert rs.weyl_dim((1, 1)) == len(rs.positive_roots) * 2 + rs.rank == 8
    assert rs.weyl_dim((0, 0)) == 1
    with pytest.raises(ValueError):
        rs.weyl_dim((-1, 0))
    with pytest.raises(ValueError):
        rs.weyl_dim((1,))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_weyl_dim_matches_fraction_oracle(name):
    # the product over coroot coordinates on labels against the Fraction
    # pairings, on every dominant weight whose labels sum to at most 3
    rs = build_root_system(SimpleLieType.parse(name))
    for labels in product(range(4), repeat=rs.rank):
        if sum(labels) > 3:
            continue
        want = weyl_dim_fraction(rs, rs.from_labels(labels))
        assert want.denominator == 1 and rs.weyl_dim(labels) == want, labels


def _a2_entry_points():
    """Public calls that read a weight's labels, on A2 at m = 2."""
    from shiftlab import alcove, characters, shift
    case = shift.make_case("A2", "nonsuper", 2)
    lam = shift.enumerate_lambda(case)[0]
    return {
        "lambda_of_value": lambda v: shift.lambda_of_value(case, v),
        "canonical_decompose": lambda v: shift.canonical_decompose(v, case),
        "alcove_json": lambda v: alcove.alcove_json(case, v, lam),
        "y_alpha": lambda v: alcove.y_alpha(v, 0, case),
        "multiplet_char": lambda v: characters.multiplet_char(v, lam, case, 4),
        "weight_space_char": lambda v: characters.weight_space_char(lam, v, case, 4),
    }


@pytest.mark.parametrize("call", ["lambda_of_value", "canonical_decompose", "alcove_json",
                                  "y_alpha", "multiplet_char", "weight_space_char"])
@pytest.mark.parametrize("coords", [(), (0,), (0, 0, 7)], ids=["empty", "short", "long"])
def test_wrong_length_weights_are_refused(call, coords):
    # scaled_labels, the gate behind integral_labels, refuses a weight whose
    # length is not the rank instead of zipping it short
    weight = tuple(Fraction(c) for c in coords)
    with pytest.raises(ValueError, match="coordinates, not 2"):
        _a2_entry_points()[call](weight)


def test_screening_current_weight_identity():
    # Delta(e^{sqrt(p) alpha_i}) = 1 and Delta(e^{-coroot_i/sqrt(p)}) = 1
    from shiftlab.characters import fock_delta
    from shiftlab.shift import make_case
    for name in ["A2", "B2", "B4", "C4", "D4", "G2", "F4", "A4", "C3"]:
        for m in (1, 2, 3, 4):
            case = make_case(name, "nonsuper", m)
            rs = case.rs
            for i in range(rs.rank):
                assert fock_delta(rs.simple_roots[i], case) == 1
                coroot = rs.simple_coroots[i]
                nu = tuple(-x / case.p for x in coroot)
                assert fock_delta(nu, case) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "C3"]),
       st.data())
def test_reflections_preserve_pairing(name, data):
    rs = rs_of(name)
    coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    mu = tuple(data.draw(coords) for _ in range(rs.rank))
    nu = tuple(data.draw(coords) for _ in range(rs.rank))
    i = data.draw(st.integers(min_value=0, max_value=rs.rank - 1))
    s = rs.element_from_word((i,))
    img = weyl_apply_matrix(rs, s, mu)
    assert rs.pairing(img, weyl_apply_matrix(rs, s, nu)) == rs.pairing(mu, nu)
    assert weyl_apply_matrix(rs, s, img) == mu
    assert weyl_apply_matrix(rs, s, rs.rho) == tuple(
        x - y for x, y in zip(rs.rho, rs.simple_roots[i]))
    # any element, on the scaled labels of any rational vector, against the
    # matrix of its word: w(mu) has mu's least common denominator
    w = data.draw(st.sampled_from(rs.enumerate_weyl()))
    labels, n = rs.scaled_labels(mu)
    assert (rs.reflect_along(w.word, labels), n) == \
        rs.scaled_labels(weyl_apply_matrix(rs, w, mu))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_SMALL + ["D5", "E6", "E8"]), st.data())
def test_reflect_labels_matches_dense_column(name, data):
    # reflect_labels walks the nonzero labels of alpha_i only
    rs = rs_of(name)
    a = tuple(data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(rs.rank))
    i = data.draw(st.integers(min_value=0, max_value=rs.rank - 1))
    want = reflect_labels_dense(a, i, rs.root_labels()[i])
    assert reflect_labels(a, i, rs.reflect_cols()[i]) == want


def test_json_emitter():
    rs = rs_of("B2")
    d = rs.to_json_dict()
    assert d["rho"] == ["3/2", "2/1"]
    assert d["theta_L"] == ["2/1", "2/1"]
    assert d["weyl_order"] == 8
