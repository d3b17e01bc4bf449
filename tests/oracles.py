"""Independent reference routes for the tests.

* Vector arithmetic on ``Fraction`` root coordinates (``vadd``, ``vsub``,
  ``vneg``, ``vscale``, ``vzero``), and a Weyl element as the integer
  matrix of its word in simple-root coordinates.
* The root-system record built over ``Fraction`` end to end: Gauss-Jordan
  inverses of the Cartan and Gram matrices, and lengths and coroots from the
  Gram form, the copairing (mu, alpha_i^vee) on root coordinates, and the
  Weyl dimension formula on ``Fraction`` pairings.
* The twist x, the background charge gamma, the central charge, the
  conformal weight fock_delta, its Ramond flow (``ramond_delta_reference``),
  the norm shift p|gamma|^2/2 and the screening pairing, each by its own
  formula per family (rho_check in the nonsuper family, rho in the super
  one).
* The transversal's records built eagerly, each weight round-tripped
  through ``scaled_labels`` (``eager_transversal``), against which the
  layout's records, built on first request, are compared; the digit grid
  they are built over (``digit_grid``); membership in (1/p)Q* by the Gram
  matrix (``check_member_gram``).
* Coset representatives as ``Fraction`` vectors, decomposed by a ``Fraction``
  canonical decomposition (``canonical_decompose_fraction``), the p-scaled
  Dynkin labels read off them, the representative of a point's coset
  located the same way, and the alcove inequality as a ``Fraction`` pairing
  with theta_L.
* The lattice point of a Cartan weight by ``Fraction`` copairings, with its
  coset and ceiling checks (``fock_point_fraction``).
* The dot terms of an alternating sum over all of W (``dot_walk``), the
  full-walk reference for the pruned climb ``characters._below``; the Weyl
  orbit of a weight by dense label reflections, and the character walk term
  by term: the full quadratic form and the coset check on every dot term.
* A coset numbered by a packed integer key, the bullet's class followed by
  the box labels radix p + 1, in a dict (``packed_numbering``), and a point
  located by that key, a batch at a time (``locate``) or one point at a time
  in separate passes (``locate_point``), against the layout's carry; the weak,
  strong and w0-shift conditions of a coset computed per call, walking the
  canonical word each time (``conditions_per_call``), the walk along a word
  of w0 in two passes, the composed shifts listed first and each prefix's
  direct shift after (``walk_two_pass``), and the strong condition walked
  along every reduced word of w0 (``strong_on_every_word``).
* The shift-map axioms checked exhaustively over Lambda x W x Pi on the W
  table's rows (``axioms_over_w``), the cocycle as one comparison of packed
  integers (``pack``) per (coset, element, letter), with the tables from
  ``conditions_per_call`` and ``alcove_inequality_fraction``.
* The circle action of an affine element on ``Fraction`` coordinates, with
  the finite part acting by the matrix of its word, its translation checked
  on root coordinates (``affine_elt_fraction``), the input weight of
  (alpha, lambda) (``affine_input``), and the chamber
  reduction, ``y_alpha`` and ``mu_lambda`` on ``Fraction`` input weights
  with the translation read in ``Fraction`` coordinates
  (``dominant_reduce_fraction``).  The group law, ``y_sigma`` and the super
  closed forms on ``Fraction`` translations, the finite part acting by the
  matrix of its word (``affine_mul_fraction`` and the like).
* The closed form of w0 ^ lambda on the strong region as a ``Fraction``
  vector (``strong_w0_target``).
* The dominant root-lattice weights of one height as the dominant part of
  the nonnegative cone (``cone_shell``, ``dominant_alphas``), a height past
  which no weight reaches ``ft_char``'s cutoff, by ``Fraction`` square roots
  (``height_bound_sqrt``), and at p = 1
  the theta series of the coset in Q times the tail
  (``lattice_theta_char``).
* The eta powers and free-fermion characters by the pentagonal recurrences,
  square-and-multiply over the Kronecker ``convolve`` and a binomial product;
  the substitution q -> q^t of a series (``resample``), a rational multiple
  of a series (``scale``) and the inverse of ``QSeries.to_json_dict``
  (``from_json_dict``).
* Helpers that only the tests call: the dot action, the alternating sum at
  a ``Fraction`` weight through the * route and through the dot route over
  all of W, the displayed-norm exponent, the supertrace vacuum oracle and
  the affine identity.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, mul, sub

from shiftlab.alcove import (
    AffineWeight,
    AffineWeylElt,
    DigitDependenceError,
    ReduceResult,
    WallReductionError,
    _family,
)
from shiftlab.characters import (
    UnsupportedCaseError,
    _alternating_sum,
    _coset_vector,
    _form,
    _identity_point,
    _numerator,
    _tail,
    _times_tail,
    _value,
)
from shiftlab.liealg import (
    FIELDS,
    _close_roots as close_root_classes,
    _dynkin_edges,
    _lacing,
    adjugate,
    exponents_of,
    reflect_labels,
    weyl_order,
)
from shiftlab.qseries import FermionKind, QSeries, _spread, check_order, convolve
from shiftlab.shift import (
    LambdaParam,
    Variant,
    _grid,
    alcove_inequality,
    check_strong,
    enumerate_lambda,
    is_fixed,
    lambda_from,
    system,
)

# every simple type up to rank 8
ALL_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(1, 9)]
             + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(3, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def vzero(rank: int):
    return (Fraction(0),) * rank


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def mat_vec(m, v):
    return tuple(sum(mi[j] * v[j] for j in range(len(v))) for mi in m)


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def invert_mat(m):
    """Exact Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det_int(m) -> int:
    """Determinant of an integer matrix via fraction-free expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in m[1:])
        total += (-1) ** j * m[0][j] * det_int(minor)
    return total


# ---------------------------------------------------------------------------
# Weyl elements as matrices
# ---------------------------------------------------------------------------


def weyl_matrix(rs, word):
    """The product of the simple-reflection matrices along ``word``."""
    n = rs.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        # sigma_i(mu) = mu - (mu, alpha_i^vee) alpha_i changes coordinate i only
        m = mat_mul(m, tuple(tuple(int(k == j) - (rs.cartan[i][j] if k == i else 0)
                                   for j in range(n)) for k in range(n)))
    return m


def weyl_apply_matrix(rs, w, mu):
    """w(mu) as the matrix of w's word times mu."""
    return mat_vec(weyl_matrix(rs, w.word), mu)


def matrix_length(rs, m):
    """Number of positive roots the matrix sends to negative ones."""
    return sum(any(x < 0 for x in mat_vec(m, root)) for root in rs.positive_roots)


# ---------------------------------------------------------------------------
# the root system over Fraction
# ---------------------------------------------------------------------------

# every field of liealg.RootSystem, the Fraction vectors held eagerly
RootRecord = namedtuple("RootRecord", FIELDS)


def _root_half_lengths(t) -> tuple[Fraction, ...]:
    """d_i = |alpha_i|^2 / 2 per node."""
    r = t.rank
    one = Fraction(1)
    half = Fraction(1, 2)
    if t.series in ("A", "D", "E"):
        return (one,) * r
    if t.series == "B":
        return (one,) * (r - 1) + (half,)
    if t.series == "C":
        return (half,) * (r - 1) + (one,)
    if t.series == "F":
        return (one, one, half, half)
    return (one, Fraction(1, 3))  # G2: alpha_1 long, alpha_2 short


def eager_root_system(t) -> RootRecord:
    """The root-system record built eagerly: the integer build (Cartan
    matrix, adjugate, roots with their length classes) with every Fraction
    vector made up front, against which liealg's vectors derived on first
    read are checked."""
    r, lac = t.rank, _lacing(t)
    d = _root_half_lengths(t)
    ell = tuple(int(lac * x) for x in d)
    links = {(i, j): max(ell[i], ell[j]) for e in _dynkin_edges(t) for i, j in (e, e[::-1])}
    assert not any(v % ell[i] for (i, _), v in links.items())
    assert all(lac * x == n for x, n in zip(d, ell))
    cartan = tuple(tuple(2 if i == j else -links.get((i, j), 0) // ell[i] for j in range(r))
                   for i in range(r))
    adj, det_c = adjugate(cartan)

    unit = tuple(tuple(Fraction(int(j == i)) for j in range(r)) for i in range(r))
    gram = tuple(tuple(Fraction(n * c, lac) for c in row) for n, row in zip(ell, cartan))
    fund_weights = tuple(tuple(Fraction(row[i], det_c) for row in adj) for i in range(r))
    fund_coweights = tuple(tuple(Fraction(lac * c, det_c * n) for c, n in zip(row, ell))
                           for row in adj)
    rho = tuple(Fraction(sum(row), det_c) for row in adj)
    rho_check = tuple(Fraction(lac * sum(col), det_c * n) for col, n in zip(zip(*adj), ell))

    roots = close_root_classes(cartan, ell)
    positive = sorted((a for a in roots if min(a) >= 0), key=lambda a: (sum(a), a))
    theta = max(positive, key=sum)
    short = min(roots[a] for a in positive)
    theta_s = max((a for a in positive if roots[a] == short), key=sum)
    top = max(positive, key=lambda a: Fraction(sum(map(mul, ell, a)), roots[a]))
    marks_L = [divmod(n * x, roots[top]) for n, x in zip(ell, top)]
    minuscule = ((Fraction(0),) * r,) + tuple(
        fund_weights[i] for i, (c, _) in enumerate(marks_L) if c == 1)
    dc, dc_rem = divmod(sum(map(mul, ell, theta)), roots[theta])
    lhv, lhv_rem = divmod(sum(top), roots[top])
    exps = exponents_of(t)
    assert 2 * len(positive) == len(roots) and len(minuscule) == det_c
    assert not any(rest for _, rest in marks_L) and not dc_rem and not lhv_rem
    assert sum(exps) == len(positive) and math.prod(e + 1 for e in exps) == weyl_order(t)

    def frac(v):
        return tuple(Fraction(x) for x in v)

    return RootRecord(
        lie_type=t, gram=gram, cartan=cartan, simple_roots=unit,
        simple_coroots=tuple(tuple(Fraction(lac * x, n) for x in u) for n, u in zip(ell, unit)),
        fund_weights=fund_weights, fund_coweights=fund_coweights, rho=rho,
        rho_check=rho_check, theta=frac(theta), theta_s=frac(theta_s),
        theta_L=tuple(Fraction(lac * x, roots[top]) for x in top),
        theta_L_marks=tuple(c for c, _ in marks_L), lacing=lac, coxeter=sum(theta) + 1,
        dual_coxeter=dc + 1, dual_coxeter_L=lhv + 1, exponents=exps,
        positive_roots=tuple(frac(a) for a in positive), minuscule=minuscule,
        half_lengths=d, cartan_adjugate=(adj, det_c))


def eager_case_vectors(rs, variant: str, m: int):
    """(x, gamma, central charge) of the case (rs, variant, m) from an eager
    record's vectors: p x = rho_check (nonsuper) or rho (super), gamma = rho -
    x, and c = rank (+ 1/2 in the super family) - 12 p |gamma|^2 by the Gram
    form."""
    if variant == "nonsuper":
        p, px, c = rs.lacing * m, rs.rho_check, Fraction(len(rs.rho))
    else:
        p, px, c = 2 * m - 1, rs.rho, len(rs.rho) + Fraction(1, 2)
    x = tuple(v / p for v in px)
    gamma = tuple(u - v for u, v in zip(rs.rho, x))
    norm2 = sum(a * sum(map(mul, row, gamma)) for a, row in zip(gamma, rs.gram))
    return x, gamma, c - 12 * p * norm2


def _close_roots(cartan, rank):
    """All roots, as the closure of the simple roots under simple reflections."""
    def reflect(i, mu):
        c = sum(cartan[i][j] * mu[j] for j in range(rank))
        out = list(mu)
        out[i] -= c
        return tuple(out)

    simple = [tuple(Fraction(1 if j == i else 0) for j in range(rank))
              for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rank):
                img = reflect(i, mu)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def fraction_root_system(t) -> RootRecord:
    """The root-system record with every field derived over Fraction from the
    Gram matrix: inverses by Gauss-Jordan, lengths and coroots by the form."""
    r = t.rank
    d = _root_half_lengths(t)
    edges = _dynkin_edges(t)
    adj = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}

    gram = tuple(
        tuple(
            2 * d[i] if i == j else (-max(d[i], d[j]) if (i, j) in adj else Fraction(0))
            for j in range(r))
        for i in range(r)
    )
    cartan_frac = tuple(tuple(gram[i][j] / d[i] for j in range(r)) for i in range(r))
    assert all(x.denominator == 1 for row in cartan_frac for x in row)
    cartan = tuple(tuple(int(x) for x in row) for row in cartan_frac)

    simple_roots = tuple(
        tuple(Fraction(1 if j == i else 0) for j in range(r)) for i in range(r))
    simple_coroots = tuple(
        tuple(Fraction(1, 1) / d[i] if j == i else Fraction(0) for j in range(r))
        for i in range(r))

    cartan_inv = invert_mat(cartan_frac)
    fund_weights = tuple(tuple(cartan_inv[k][i] for k in range(r)) for i in range(r))
    gram_inv = invert_mat(gram)
    fund_coweights = tuple(tuple(gram_inv[i]) for i in range(r))

    rho = tuple(Fraction(sum(fund_weights[i][j] for i in range(r))) for j in range(r))
    rho_check = tuple(Fraction(sum(fund_coweights[i][j] for i in range(r)))
                      for j in range(r))

    roots = _close_roots(cartan, r)
    positive = tuple(sorted((a for a in roots if all(x >= 0 for x in a)),
                            key=lambda a: (sum(a), a)))

    def norm2(mu):
        return sum(mu[i] * sum(gram[i][j] * mu[j] for j in range(r)) for i in range(r))

    theta = max(positive, key=sum)
    min_len = min(norm2(a) for a in positive)
    theta_s = max((a for a in positive if norm2(a) == min_len), key=sum)

    def coroot(a):
        n2 = norm2(a)
        return tuple(2 * x / n2 for x in a)

    def coroot_coords(av):
        return tuple(d[i] * av[i] for i in range(r))

    theta_L = max((coroot(a) for a in positive), key=lambda av: sum(coroot_coords(av)))
    marks_L = coroot_coords(theta_L)
    # the coroot marks of the highest short root: theta_s^vee = theta_L
    marks_s = coroot_coords(coroot(theta_s))
    minuscule = (vzero(r),) + tuple(fund_weights[i] for i in range(r) if marks_L[i] == 1)

    lac = _lacing(t)
    theta_vee = coroot(theta)
    dc = 1 + sum(rho[i] * sum(gram[i][j] * theta_vee[j] for j in range(r))
                 for i in range(r))
    lhv = 1 + Fraction(
        sum(rho_check[i] * sum(gram[i][j] * theta_L[j] for j in range(r))
            for i in range(r)), lac)
    exps = exponents_of(t)
    order = 1
    for e in exps:
        order *= e + 1
    det = det_int(cartan)
    assert 2 * len(positive) == len(roots)
    assert len(minuscule) == det
    assert all(x.denominator == 1 for x in (*marks_L, *marks_s, dc, lhv))
    assert sum(exps) == len(positive) and order == weyl_order(t)
    return RootRecord(
        lie_type=t, gram=gram, cartan=cartan, simple_roots=simple_roots,
        simple_coroots=simple_coroots, fund_weights=fund_weights,
        fund_coweights=fund_coweights, rho=rho, rho_check=rho_check, theta=theta,
        theta_s=theta_s, theta_L=theta_L, theta_L_marks=tuple(int(c) for c in marks_s),
        lacing=lac, coxeter=int(sum(theta)) + 1,
        dual_coxeter=int(dc), dual_coxeter_L=int(lhv), exponents=exps,
        positive_roots=positive, minuscule=minuscule, half_lengths=d,
        cartan_adjugate=(tuple(tuple(int(det * x) for x in row) for row in cartan_inv), det))


@lru_cache(maxsize=None)
def _coroot_rows(rs):
    """Per positive root a: gram * a^vee, with a^vee = 2a/|a|^2, and (rho, a^vee)."""
    rows = [mat_vec(rs.gram, vscale(2 / rs.norm2(a), a)) for a in rs.positive_roots]
    return [(row, sum(map(mul, row, rs.rho))) for row in rows]


def copairing(rs, mu, i: int) -> Fraction:
    """(mu, alpha_i^vee), 0-indexed i: row i of the Cartan matrix against
    mu's root coordinates."""
    return sum(map(mul, rs.cartan[i], mu))


def weyl_dim_fraction(rs, beta) -> Fraction:
    """prod (beta + rho, a^vee) / (rho, a^vee) over the positive roots a, the
    pairings taken through the Gram form."""
    mu = vadd(beta, rs.rho)
    num = Fraction(1)
    for row, rho_pair in _coroot_rows(rs):
        num *= sum(map(mul, row, mu)) / rho_pair
    return num


# ---------------------------------------------------------------------------
# the two families, each by its own formula
# ---------------------------------------------------------------------------


def case_data_reference(case):
    """(x, gamma, central charge): x = rho_check/p, gamma = rho - rho_check/p
    and c = r - 12p|gamma|^2 in the nonsuper family; x = rho/p,
    gamma = (1 - 1/p) rho and c = r + 1/2 - 12p|gamma|^2 in the super one."""
    rs, p = case.rs, case.p
    if case.variant is Variant.NONSUPER:
        gamma = vsub(rs.rho, vscale(Fraction(1, p), rs.rho_check))
        return (vscale(Fraction(1, p), rs.rho_check), gamma,
                rs.rank - 12 * p * rs.norm2(gamma))
    gamma = vscale(Fraction(p - 1, p), rs.rho)
    return (vscale(Fraction(1, p), rs.rho), gamma,
            rs.rank + Fraction(1, 2) - 12 * p * rs.norm2(gamma))


def fock_delta_reference(nu, case) -> Fraction:
    """(p/2)|nu|^2 - p(nu, rho) + (nu, rho_check), or (p/2)|nu|^2
    - (p - 1)(nu, rho) in the super family."""
    rs, p = case.rs, case.p
    if case.variant is Variant.NONSUPER:
        return Fraction(p, 2) * rs.norm2(nu) - p * rs.pairing(nu, rs.rho) \
            + rs.pairing(nu, rs.rho_check)
    return Fraction(p, 2) * rs.norm2(nu) - (p - 1) * rs.pairing(nu, rs.rho)


def ramond_delta_reference(nu, case) -> Fraction:
    """Twisted-sector weight: fock_delta_reference at the spectrally flowed
    point nu + omega_r/p, plus the fermionic ground-state energy 1/16."""
    flow = vscale(Fraction(1, case.p), case.rs.fund_weights[-1])
    return fock_delta_reference(vadd(nu, flow), case) + Fraction(1, 16)


def norm_shift_reference(case) -> Fraction:
    """|p rho - rho_check|^2 / 2p, or |(p - 1) rho|^2 / 2p in the super
    family."""
    rs, p = case.rs, case.p
    if case.variant is Variant.NONSUPER:
        return rs.norm2(vsub(vscale(p, rs.rho), rs.rho_check)) / (2 * p)
    return rs.norm2(vscale(p - 1, rs.rho)) / (2 * p)


def screening_pairing_reference(i, lam, case) -> int:
    """(p lam + rho_check, alpha_i) in the nonsuper family, (p lam + rho,
    alpha_i^vee) in the super one; raises where it is not an integer."""
    rs, p = case.rs, case.p
    if case.variant is Variant.NONSUPER:
        val = rs.pairing(vadd(vscale(p, lam.value), rs.rho_check), rs.simple_roots[i])
    else:
        val = copairing(rs, vadd(vscale(p, lam.value), rs.rho), i)
    if val.denominator != 1:
        raise AssertionError(f"screening pairing {val} is not integral")
    return int(val)


# ---------------------------------------------------------------------------
# coset representatives over Fraction
# ---------------------------------------------------------------------------


def fraction_lambda_from(case, bullet_index, digits) -> LambdaParam:
    """-bullet + sum_i (k_i - 1)/p * basis_i, on the fundamental coweights
    (nonsuper) or weights (super), as Fraction vectors."""
    rs = case.rs
    bullet = rs.minuscule[bullet_index]
    basis = rs.fund_coweights if case.variant is Variant.NONSUPER else rs.fund_weights
    box = vzero(rs.rank)
    for i, k in enumerate(digits):
        box = vadd(box, vscale(Fraction(k - 1, case.p), basis[i]))
    return LambdaParam(bullet_index, bullet, tuple(digits), vadd(vneg(bullet), box))


def digit_grid(case):
    """(bullet index, bullet labels, digits) of every coset, in (minuscule
    index, digits) order under the super family's parity rule, enumerated
    from the digit bounds alone."""
    bounds = _grid(case)[1]
    for b_idx, bullet in enumerate(case.rs.minuscule_labels):
        for digits in product(*(range(1, n + 1) for n in bounds)):
            if not case.variant.is_super or (digits[-1] + bullet[-1]) % 2:
                yield b_idx, bullet, digits


def eager_transversal(case) -> tuple[LambdaParam, ...]:
    """Every coset's record built up front over the digit grid: the weight
    from the labels a - x, a = p * labels(lambda + x) = k_i x_i - p *
    bullet_i, by from_labels, and its round trip through scaled_labels."""
    rs, p, x = case.rs, case.p, _grid(case)[0]
    out = []
    for b_idx, bullet, digits in digit_grid(case):
        a = tuple(k * s - p * c for k, s, c in zip(digits, x, bullet))
        lam = LambdaParam(b_idx, rs.minuscule[b_idx], digits,
                          rs.from_labels(tuple(map(sub, a, x)), p))
        labels, n = rs.scaled_labels(lam.value)
        if any(p * v != n * (u - s) for v, u, s in zip(labels, a, x)):
            raise AssertionError(f"{lam.label()} does not round-trip")
        out.append(lam)
    return tuple(out)


def check_member_gram(mu, case) -> None:
    """Membership in (1/p)Q* by the Gram matrix: p * (mu, alpha_i) integral
    for all i, on Fraction pairings."""
    if any((case.p * sum(g * c for g, c in zip(row, mu))).denominator != 1
           for row in case.rs.gram):
        raise ValueError(f"{mu} is not in (1/p)Q* for p={case.p}")


def canonical_decompose_fraction(mu, case):
    """(bullet, box) with mu = -bullet + box, bullet integral and
    0 < (box + x, alpha_i^vee) <= 1, one fundamental weight at a time from
    Fraction copairings."""
    rs = case.rs
    check_member_gram(mu, case)
    bullet = vzero(rs.rank)
    for i in range(rs.rank):
        t = copairing(rs, vadd(mu, case.x), i)
        # unique integer n with -t < n <= 1 - t
        n = 1 - t.numerator // t.denominator if t.denominator == 1 else math.ceil(-t)
        if n:
            bullet = vadd(bullet, vscale(n, rs.fund_weights[i]))
    return bullet, vadd(mu, bullet)


def fock_point_fraction(case, lam, beta):
    """The lattice point nu = box - beta of the lam-module at the Cartan
    weight beta, checked on Fraction copairings: beta integral, beta - bullet
    in Q, and ceil(-nu) = beta against the simple coroots."""
    rs = case.rs
    labels = [copairing(rs, beta, i) for i in range(rs.rank)]
    if any(c.denominator != 1 for c in labels):
        raise ValueError(f"{beta} is not an integral weight")
    if not rs.in_root_lattice(vsub(beta, lam.bullet_up)):
        raise ValueError(
            f"weight {beta} is not in the Cartan support coset of {lam.label()}")
    nu = vsub(vadd(lam.value, lam.bullet_up), beta)
    for i in range(rs.rank):
        if math.ceil(copairing(rs, vneg(nu), i)) != labels[i]:
            raise AssertionError("ceiling-weight mismatch")
    return nu


def fraction_start(case, lam):
    """(p * labels of lam + x, p * labels of box + x, labels of the bullet),
    with the box read off canonical_decompose_fraction."""
    rs, p = case.rs, case.p

    def scaled(v):
        out = tuple(p * copairing(rs, v, i) for i in range(rs.rank))
        assert all(t.denominator == 1 for t in out)
        return tuple(int(t) for t in out)

    bullet, box = canonical_decompose_fraction(lam.value, case)
    assert bullet == lam.bullet_up
    x = scaled(case.x)
    a = tuple(v + c for v, c in zip(scaled(lam.value), x))
    b = tuple(v + c for v, c in zip(scaled(box), x))
    return a, b, tuple(int(copairing(rs, bullet, i)) for i in range(rs.rank))


def lambda_of_value_fraction(case, mu) -> LambdaParam:
    """lambda_of_value over Fraction: canonical_decompose_fraction, a scan of
    the minuscule weights for the bullet's class, and the digits read off the
    box by copairing."""
    rs = case.rs
    bullet, box = canonical_decompose_fraction(mu, case)
    for b_idx, mn in enumerate(rs.minuscule):
        if rs.in_root_lattice(vsub(bullet, mn)):
            break
    else:
        raise ValueError(f"{bullet} has no minuscule representative")
    scale = rs.half_lengths if case.variant is Variant.NONSUPER else (1,) * rs.rank
    digits = [case.p * scale[i] * copairing(rs, vadd(box, case.x), i) for i in range(rs.rank)]
    assert all(d.denominator == 1 for d in digits), "box value off the digit grid"
    lam = lambda_from(case, b_idx, digits)
    assert lam.value == vadd(vneg(rs.minuscule[b_idx]), box), f"{mu} does not recompose"
    return lam


def alcove_inequality_fraction(lam, case) -> bool:
    """(p*box + rho_check, theta_L) <= p, with rho instead of rho_check in the
    super family, paired on root coordinates."""
    rs = case.rs
    box = vadd(lam.value, lam.bullet_up)
    shift_vec = rs.rho_check if case.variant is Variant.NONSUPER else rs.rho
    return rs.pairing(vadd(vscale(case.p, box), shift_vec), rs.theta_L) <= case.p


# ---------------------------------------------------------------------------
# dominant root-lattice weights and the p = 1 lattice sum
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cone_shell(rs, height: int) -> tuple:
    """Root-lattice vectors with nonnegative coordinates summing to height,
    as Fraction tuples in lexicographic order: the cone whose dominant part
    ft_char's walk and the CLI's alpha scans list."""
    r = rs.rank

    def rec(i: int, remaining: int):
        if i == r - 1:
            yield (remaining,)
            return
        for c in range(remaining + 1):
            for rest in rec(i + 1, remaining - c):
                yield (c,) + rest

    return tuple(tuple(Fraction(c) for c in coords) for coords in rec(0, height))


def dominant_alphas(rs, max_height: int) -> list:
    """The dominant root-lattice weights of height <= max_height, in root
    coordinates, by height and then lexicographically: the dominant part of
    the cone."""
    return [alpha for h in range(max_height + 1) for alpha in cone_shell(rs, h)
            if rs.is_dominant(alpha)]


def height_bound_sqrt(case, lam, limit) -> int:
    """A height of dominant alpha past which no term of beta = alpha +
    bullet sits at e/den <= limit over the tail, by Fraction square roots:
    a dot term's e/den is |B - p*w(beta + rho)|^2/2p, at least (p*|beta +
    rho| - |B|)^2/2p, and |beta + rho| >= (h + s0)/|rho_check| by
    Cauchy-Schwarz at height h; |B| and |rho_check| are rounded up."""
    def sqrt_above(x: Fraction) -> Fraction:  # within 2^-32 of sqrt(x)
        return Fraction(math.isqrt((x.numerator << 64) // x.denominator) + 1, 1 << 32)

    rs, p = case.rs, case.p
    table, (quad, den, flow) = system(case), _form(case)
    b = [x + f for x, f in zip(table._u[table.index(lam.key())], flow)]
    b0 = sqrt_above(Fraction(2 * p * sum(x * sum(map(mul, row, b)) for x, row in zip(b, quad)),
                             den))
    rho_chk = sqrt_above(rs.norm2(rs.rho_check))
    s0 = rs.pairing(lam.bullet_up, rs.rho_check) + rs.pairing(rs.rho, rs.rho_check)
    for h in range(1, 10**6):
        lower = max(Fraction(0), p * (h + s0) / rho_chk - b0)
        if lower * lower / (2 * p) > limit:
            return h
    raise RuntimeError("height bound scan failed to terminate")


def lattice_theta_char(case, lam, order: int) -> QSeries:
    """sum over nu in bullet + Q of q^(|nu|^2/2 - c/24), times the tail
    (eta^-rank, with the free fermion in the super family) from its leading
    term: the character that ft_char is expected to give at p = 1, where the
    construction is the lattice VOA of Q.

    Every term below the cutoff has |nu|^2 <= 2 * order, and each root
    coordinate is nu_i = (nu, omega_i^vee), so by Cauchy-Schwarz
    |nu_i| <= sqrt(2 * order) |omega_i^vee|.  The scan runs on u = det * nu
    with the integer form lacing * gram."""
    rs, r = case.rs, case.rank
    det, lac = rs.cartan_adjugate[1], rs.lacing
    gram = [[int(lac * g) for g in row] for row in rs.gram]
    top = 2 * order * lac * det * det  # bound on u.gram.u
    shift = [int(det * b) for b in lam.bullet_up]
    ranges = []
    for b, w in zip(shift, rs.fund_coweights):
        bound = math.isqrt(math.floor(2 * order * det * det * rs.norm2(w)))
        # det * a + b within [-bound, bound], a an integer
        ranges.append(range(-((bound + b) // det), (bound - b) // det + 1))
    coeffs = [0] * (top + 1)
    for a in product(*ranges):
        u = [det * x + b for x, b in zip(a, shift)]
        n = sum(u[i] * sum(map(mul, gram[i], u)) for i in range(r))
        if n <= top:
            coeffs[n] += 1
    base = -case.central_charge / 24
    theta = QSeries.make(base, 2 * lac * det * det, coeffs, base + order)
    tail = _tail(case, order)
    return theta.mul(tail.qshift(-tail.base))


# ---------------------------------------------------------------------------
# test-only character and alcove helpers
# ---------------------------------------------------------------------------


def dot_action(case, w, beta):
    """w o beta = w(beta + rho) - rho, w acting by the matrix of its word."""
    rs = case.rs
    return vsub(weyl_apply_matrix(rs, w, vadd(beta, rs.rho)), rs.rho)


def alternating_sum(case, lam, beta, order: int) -> QSeries:
    """characters._alternating_sum at the Fraction weight beta: the * action,
    whose terms live on the moved cosets."""
    return _alternating_sum(case, lam, case.rs.integral_labels(beta), order)


def alternating_sum_dot(case, lam, beta, order: int) -> QSeries:
    """The alternating sum at the Fraction weight beta through the dot action
    on the fixed coset, over all of W (dot_walk)."""
    num = _numerator(case, dot_walk(case, lam, case.rs.integral_labels(beta))[1])
    return _times_tail(case, num, _tail(case, order))


def displayed_norm_exponent(case, lam, alpha, w) -> Fraction:
    """Closed-form exponent of one alternating-sum term as a squared norm."""
    rs = case.rs
    box = vadd(lam.value, lam.bullet_up)
    inner = weyl_apply_matrix(rs, w, vadd(alpha, vadd(lam.bullet_up, rs.rho)))
    shift_vec = rs.rho_check if case.variant is Variant.NONSUPER else rs.rho
    v = vadd(vneg(vscale(case.p, inner)), vadd(vscale(case.p, box), shift_vec))
    return rs.norm2(v) / (2 * case.p)


def walg_vacuum_superchar_oracle(case, order: int) -> QSeries:
    """Supertrace analogue of the rank-1 super vacuum oracle (odd modes
    signed)."""
    check_order(order)
    if case.variant is not Variant.SUPER or case.rank != 1:
        raise UnsupportedCaseError("supertrace oracle only for super rank 1")
    base = -case.central_charge / 24
    n2 = 2 * order
    coeffs = [1] + [0] * n2
    for n in range(2, order + 1):
        for k in range(2 * n, n2 + 1):
            coeffs[k] += coeffs[k - 2 * n]
    for twok in range(3, n2 + 1, 2):
        for k in range(n2, twok - 1, -1):
            coeffs[k] -= coeffs[k - twok]
    return QSeries.make(base, 2, coeffs, base + order)


def affine_identity(case) -> AffineWeylElt:
    return AffineWeylElt(case.rs.identity_element(), vzero(case.rank))


def strong_w0_target(lam, case):
    """Closed form of w0 ^ lam on the strong region: -rho, or -alpha on the
    frozen digit of a rank-1 wall coset (the fixed-point rule)."""
    rs = case.rs
    if any(is_fixed(i, lam, case) for i in range(rs.rank)):
        if rs.rank != 1:
            raise AssertionError(f"strong coset {lam.label()} has a frozen digit")
        return vneg(rs.simple_roots[0])
    return vneg(rs.rho)


# ---------------------------------------------------------------------------
# the Weyl orbit and the character walk, term by term
# ---------------------------------------------------------------------------


def dot_walk(case, lam, labels):
    """The full-walk reference for characters._below: one pass over W
    (enumeration order) for the alternating sum at the weight beta with these
    Dynkin labels, giving the labels t of w(beta + rho) and the exponent
    numerators Q(b - p*t) (see characters._form) of the dot terms, with
    b = p*labels(box + x) + flow.

    Q being W-invariant, Q(b - p*t) is c0 - g.t with g = 2p quad.b and
    c0 = Q(b - p*t_id) + g.t_id.  Its point w o beta = w(beta + rho) - rho
    stays in beta + Q, whose class key and box are those of beta, so the
    coset check runs once, on beta."""
    sys, quad, p = system(case), _form(case)[0], case.p
    l_idx = sys.index(lam.key())
    sys.check_point(labels, l_idx)
    b = _coset_vector(case, l_idx)
    g = [2 * p * sum(map(mul, row, b)) for row in quad]
    orbit = sys.orbit(tuple(c + 1 for c in labels))
    c0 = _value(quad, _identity_point(case, b, labels)) + sum(map(mul, g, orbit[0]))
    return orbit, [c0 - sum(map(mul, g, t)) for t in orbit]


def reflect_labels_dense(a, i, col):
    """Labels of sigma_i(mu) from those a of mu, along the whole column i
    of the Cartan matrix, zeros included."""
    c = a[i]
    return tuple(x - c * y for x, y in zip(a, col))


def orbit_reference(sys, labels, count=None):
    """Labels of w(mu) over the first ``count`` elements of W (default all)
    in enumeration order: element k = s_i * w' is the dense reflection of
    w'(mu) along the whole of column i."""
    pos = {w.word: k for k, w in enumerate(sys.weyl)}
    out = [tuple(labels)]
    for w in sys.weyl[1:count]:
        i = w.word[0]
        out.append(reflect_labels_dense(out[pos[w.word[1:]]], i, sys.cols[i]))
    return out


@lru_cache(maxsize=None)
def orbit_row(sys, l_idx):
    """(indices of w * lambda, labels of w ^ lambda) over W for coset l_idx,
    each cell found on its own, not by the cocycle: w ^ lambda = w(box + x) -
    (box' + x) = w(bullet) - bullet', as box + x = lambda + x + bullet and w
    is linear, where bullet' is the bullet that locate finds for w(lambda +
    x).  The orbits of lambda + x = box + x - bullet and of the bullet are
    walked along the enumeration; the row is cached per (system, coset)."""
    p, u, bullet = sys.case.p, sys._u[l_idx], sys.rs.minuscule_labels[sys._b[l_idx]]
    act, bullets = locate(sys, sys.orbit(tuple(v - p * c for v, c in zip(u, bullet))))
    return act, [tuple(map(sub, wb, c)) for wb, c in zip(sys.orbit(bullet), bullets)]


@lru_cache(maxsize=None)
def left_table(rs, count=None):
    """left[i][k]: the position in W's enumeration of s_i * w, for w the k-th
    element (of the first ``count``, default all), found by reflecting the
    labels of w(rho) and looking them up."""
    table, cols = rs.weyl_table(), rs.reflect_cols()
    return tuple(tuple(table.index[reflect_labels(w.labels, i, cols[i])]
                       for w in table.elements[:count]) for i in range(rs.rank))


@lru_cache(maxsize=None)
def packed_numbering(table) -> dict:
    """Packed key -> coset index of the layout's cosets, numbered over the
    digit grid (digit_grid), not read off the layout's box labels: the class
    key of the bullet, then the box labels k_i x_i of the digits radix p + 1
    (each in 1..p); AssertionError if two cosets share a key."""
    case = table.case
    p, x = case.p, _grid(case)[0]
    numbering = {}
    for _, bullet, digits in digit_grid(case):
        key = table._class_key(bullet)
        for k, s in zip(digits, x):
            key = key * (p + 1) + k * s
        if key in numbering:
            raise AssertionError(f"two cosets of {case.case_id()} share a packed key")
        numbering[key] = len(numbering)
    return numbering


def locate(table, points) -> tuple[list[int], list[list[int]]]:
    """(coset indices, bullet labels) of the points mu with a = p *
    labels(mu + x), one pass per point: the canonical decomposition mu =
    -bullet + box has bullet labels (p - a) // p, and u = p * labels(box
    + x) = a + p * bullet lies in (0, p]; the coset's key is the bullet's
    class followed by u, radix p + 1 (packed_numbering)."""
    p, coset, class_key = table.case.p, packed_numbering(table), table._class_key
    found, bullets = [], []
    for a in points:
        bullet = [(p - v) // p for v in a]
        key = class_key(bullet)
        for v, c in zip(a, bullet):
            key = key * (p + 1) + v + p * c
        try:
            found.append(coset[key])
        except KeyError:
            u = [v + p * c for v, c in zip(a, bullet)]
            raise AssertionError(f"box labels {u}/{p} are off the digit grid") from None
        bullets.append(bullet)
    return found, bullets


def locate_point(table, a):
    """(coset index, bullet labels) of the one point with a = p * labels(mu +
    x), in separate passes: the bullet labels (p - a) // p, the box labels u
    = a + p * bullet in (0, p], the bullet's class key, then u packed radix
    p + 1 after it and looked up (packed_numbering)."""
    p = table.case.p
    bullet = [(p - v) // p for v in a]
    u = [v + p * c for v, c in zip(a, bullet)]
    key = table._class_key(bullet)
    for v in u:
        key = key * (p + 1) + v
    target = packed_numbering(table).get(key)
    if target is None:
        raise AssertionError(f"box labels {u}/{p} are off the digit grid")
    return target, bullet


def conditions_per_call(case, lam):
    """(weak, strong, labels of w0 ^ lam, telescoped strong) on the canonical
    word, recomputed on every call from orbit_row's rows over W: the weak
    pairings one by one, the word's prefix elements walked through left_table,
    w0 ^ lam composed by the cocycle from the rows' simple cells along the
    word and checked against the row's w0 cell, the last of the table, and
    each prefix's cell against the plain sum of the simple cells along it."""
    sys = system(case)
    left = left_table(case.rs)
    l_idx, simple_idx = sys.index(lam.key()), [row[0] for row in left]
    act, shift = orbit_row(sys, l_idx)
    weak = True
    for j, sj in enumerate(simple_idx):
        if act[sj] != l_idx and any(c != (-1 if i == j else 0)
                                    for i, c in enumerate(shift[sj])):
            weak = False
    word, prefixes = case.rs.longest_element().word, [0]
    for letter in reversed(word):
        prefixes.append(left[letter][prefixes[-1]])
    strong = all(shift[prefixes[step]][letter] == 0
                 for step, letter in enumerate(reversed(word)))
    acc = running = (0,) * case.rank
    at, telescoped = l_idx, True
    for prefix, letter in zip(prefixes[1:], reversed(word)):
        moved, up = orbit_row(sys, at)
        up = up[simple_idx[letter]]
        acc = tuple(a + b for a, b in zip(
            reflect_labels(acc, letter, sys.reflect_cols[letter]), up))
        running = tuple(a + b for a, b in zip(running, up))
        telescoped = telescoped and shift[prefix] == running
        at = moved[simple_idx[letter]]
    if acc != shift[len(sys.weyl) - 1]:
        raise AssertionError("cocycle composition disagrees with the direct shift")
    return weak, strong, acc, telescoped


def walk_two_pass(table, l_idx, word):
    """ShiftSystem.walk's (strong, telescoped, labels of w0 ^ lambda, first
    prefix whose composed shift is not the direct one, or None) along a word
    of w0 read from its right end, in two passes over per-prefix lists: the
    simple shifts composed by the cocycle and summed plainly, then the direct
    shift ceil(w(u)/p) - 1 of each prefix w from its own reflections of u."""
    cols, p, strong = table.reflect_cols, table.case.p, True
    acc, at = (0,) * table.case.rank, l_idx
    composed, sums = [], [acc]
    for i in reversed(word):
        act, shift = table.simple(at)
        strong = strong and acc[i] == 0
        acc = tuple(map(add, reflect_labels(acc, i, cols[i]), shift[i]))
        composed.append(acc)
        sums.append(tuple(map(add, sums[-1], shift[i])))
        at = act[i]
    v, direct = table._u[l_idx], []
    for i in reversed(word):
        v = reflect_labels(v, i, cols[i])
        direct.append(tuple((y - 1) // p for y in v))
    bad = next((k for k, (c, d) in enumerate(zip(composed, direct)) if c != d), None)
    return strong, sums[1:] == direct, composed[-1], bad


@lru_cache(maxsize=None)
def _w0_words(rs) -> tuple:
    return tuple(rs.all_reduced_words(rs.longest_element()))


def strong_on_every_word(lam, case) -> bool:
    """The strong condition walked along every reduced word of w0, which are
    enumerated (D4 has 2,316 and A4 768, so rank 4 at most); AssertionError
    if two words give different verdicts."""
    verdicts = {check_strong(lam, case, word) for word in _w0_words(case.rs)}
    if len(verdicts) != 1:
        raise AssertionError(f"the strong condition of {lam.label()} in {case.case_id()} "
                             "depends on the reduced word")
    return verdicts.pop()


# A label vector v packs to the integer sum_k v_k R^k.  With every label below
# the guard R/16 in size and Cartan entries of at most 3, the two sides of a
# packed cocycle comparison differ by less than R/2 in every coordinate, so
# equal integers mean equal vectors.
PACK_RADIX = 1 << 16
PACK_GUARD = PACK_RADIX // 16


def pack(vectors) -> list[int]:
    """Each label vector as one balanced radix-PACK_RADIX integer; raises
    AssertionError for a label of size PACK_GUARD or more."""
    if max(max(map(max, vectors)), -min(map(min, vectors))) >= PACK_GUARD:
        raise AssertionError(f"a label reaches the packing guard {PACK_GUARD}")
    places = [PACK_RADIX ** k for k in range(len(vectors[0]))]
    return [sum(map(mul, places, v)) for v in vectors]


def axioms_over_w(case) -> dict:
    """verify_axioms's JSON dict without its case, by the exhaustive walk
    over Lambda x W x Pi on orbit_row's rows: the identity, the simple
    dichotomy and pair sum per (coset, i), and per (coset, element, letter)
    the cocycle s_i w ^ lam = w ^ lam - c alpha_i + s_i ^ (w * lam), c = (w ^
    lam)_i, as one packed comparison, and the sign of c against whether s_i
    w is longer.  counts["checks"] counts 3 per (coset, i) and 2 per
    (coset, element, letter).  The tables, filled when every check passes,
    are those of conditions_per_call and alcove_inequality_fraction."""
    sys = system(case)
    nW, r, rs = len(sys.weyl), case.rank, case.rs
    out = {"counts": {"checks": 0}, "failures": [], "weak": [], "strong": [], "alcove": [],
           "w0_shift": []}

    def fail(check, label, **witness):
        out["failures"].append({"check": check, "lambda": label, **witness})

    cols, left = sys.cols, left_table(rs)
    simple_idx = [row[0] for row in left]
    lengths = [w.length for w in sys.weyl]
    alphas = pack(cols)
    simple = [pack([orbit_row(sys, l)[1][s] for s in simple_idx])
              for l in range(len(sys.lambdas))]
    for l_idx, lam in enumerate(sys.lambdas):
        label = lam.label()
        act, shift = orbit_row(sys, l_idx)
        packed = pack(shift)
        if act[0] != l_idx or shift[0] != (0,) * r:
            fail("identity", label)
        for i in range(r):
            si = simple_idx[i]
            fixed, up_i = act[si] == l_idx, shift[si]
            if fixed and up_i != tuple(-c for c in cols[i]):
                fail("fixed-shift", label, i=i + 1, got=str(rs.from_labels(up_i)))
            elif not fixed and up_i[i] != -1:
                fail("pairing-minus-one", label, i=i + 1, got=str(up_i[i]))
            k = -2 if fixed else -1
            if any(a + b != k * c
                   for a, b, c in zip(up_i, orbit_row(sys, act[si])[1][si], cols[i])):
                fail("pair-sum", label, i=i + 1)
            out["counts"]["checks"] += 3
        for w_idx in range(nW):
            up_w, moved = shift[w_idx], simple[act[w_idx]]
            for i in range(r):
                iw, c = left[i][w_idx], up_w[i]
                if packed[iw] != packed[w_idx] - c * alphas[i] + moved[i]:
                    fail("cocycle", label, i=i + 1, word=list(sys.weyl[w_idx].word))
                ascent = lengths[iw] == lengths[w_idx] + 1
                if ascent == (c < 0):
                    fail("ascent-nonnegative" if ascent else "descent-negative", label,
                         i=i + 1, word=list(sys.weyl[w_idx].word), pairing=str(c))
                out["counts"]["checks"] += 2
    if not out["failures"]:
        for lam in sys.lambdas:
            weak, strong, shift0, _ = conditions_per_call(case, lam)
            for key, ok in [("weak", weak), ("strong", strong),
                            ("alcove", alcove_inequality_fraction(lam, case))]:
                out[key].append({"lambda": lam.label(), "ok": ok})
            out["w0_shift"].append({"lambda": lam.label(),
                                    "value": [str(v) for v in rs.from_labels(shift0)]})
    return out


def walk_reference(case, lam, beta, moved=False):
    """dot_walk and characters._star_walk term by term: the labels of beta from Fraction
    copairings, every dot exponent as the full form Q(u + flow) of
    u = b_lam - p*labels(w(beta + rho)), every * exponent as Q(v + w(flow)),
    and the coset check on every dot term as on every * term."""
    sys, (quad, _, flow), p, r = system(case), _form(case), case.p, case.rank
    labels = tuple(copairing(case.rs, beta, i) for i in range(r))
    if any(c.denominator != 1 for c in labels):
        raise ValueError(f"{beta} is not an integral weight")
    labels = tuple(int(c) for c in labels)
    l_idx = sys.index(lam.key())
    orbit = orbit_reference(sys, tuple(c + 1 for c in labels))
    act, shift = sys.row(l_idx) if moved else (None, None)
    flows = orbit_reference(sys, flow) if moved else None
    dot, mov = [], []
    for w, top in enumerate(orbit):
        sys.check_point(tuple(c - 1 for c in top), l_idx)
        u = [x + f - p * y for x, f, y in zip(sys._u[l_idx], flow, top)]
        dot.append(sum(x * sum(map(mul, row, u)) for x, row in zip(u, quad)))
        if moved:
            point = tuple(c - s for c, s in zip(labels, shift[w]))
            sys.check_point(point, act[w])
            v = [x + f - p * (y + 1)
                 for x, f, y in zip(sys._u[act[w]], flows[w], point)]
            mov.append(sum(x * sum(map(mul, row, v)) for x, row in zip(v, quad)))
    return orbit, dot, mov


def affine_input(case, alpha, lam) -> AffineWeight:
    """The input weight of (alpha, lam) on Fraction coordinates:
    -p(alpha + bullet + rho') + p*box + level_in*Lambda_0, with rho' = rho for
    the nonsuper family and rho_check for the super one."""
    inner = case.rs.rho if case.variant is Variant.NONSUPER else case.rs.rho_check
    fin = vscale(case.p, vsub(lam.value, vadd(alpha, inner)))  # box = value + bullet
    return AffineWeight(fin, _family(case).level_in, Fraction(0))


def rho_hat_fin(case):
    """The finite part of rho_hat, p * x."""
    return vscale(case.p, case.x)


def affine_elt_fraction(case, finite, translation) -> AffineWeylElt:
    """The element (finite, translation), refused unless every root
    coordinate of the translation is a multiple of the lattice scale."""
    scale = _family(case).lattice_scale
    if any((x / scale).denominator != 1 for x in translation):
        raise ValueError(f"translation {translation} is not in {scale}*Q")
    return AffineWeylElt(finite, translation)


def dot_act_fraction(w, mu, case) -> AffineWeight:
    """Circle action w o mu = (s t_B)(mu + rho_hat) - rho_hat on Fraction
    coordinates: Gram-form pairings and the matrix of the finite part's
    word."""
    fam = _family(case)
    rs = case.rs
    affine_elt_fraction(case, w.finite_part, w.translation)
    fin = vadd(mu.finite, rho_hat_fin(case))
    level = mu.level + fam.rho_hat_level
    delta = mu.delta_coeff
    scale = fam.trans_scale(mu)
    b = w.translation
    if any(x != 0 for x in b):
        u = Fraction(1, fam.lattice_scale)
        delta = delta - u * rs.pairing(fin, b) - u * scale / 2 * rs.norm2(b)
        fin = vadd(fin, vscale(scale, b))
    fin = weyl_apply_matrix(rs, w.finite_part, fin)
    return AffineWeight(vsub(fin, rho_hat_fin(case)), level - fam.rho_hat_level, delta)


def chamber_position(mu, case):
    """(is_inside, is_on_wall) of mu against the shifted chamber, on Fraction
    copairings of g = mu + rho_hat: (g, alpha_i^vee) >= 0 for every i and
    (g, theta_s^vee) <= lattice_scale * scale."""
    fam = _family(case)
    rs = case.rs
    g = vadd(mu.finite, rho_hat_fin(case))
    pairs = [copairing(rs, g, i) for i in range(rs.rank)]
    top = 2 * rs.pairing(g, rs.theta_s) / rs.norm2(rs.theta_s)
    bound = fam.lattice_scale * fam.trans_scale(mu)
    if min(pairs) < 0 or top > bound:
        return False, False
    return True, 0 in pairs or top == bound


@lru_cache(maxsize=None)
def dominant_reduce_fraction(mu, case) -> ReduceResult:
    """alcove.dominant_reduce with the translation and the reduced weight in
    Fraction coordinates: the same walk on n * labels of g = mu + rho_hat and
    of sigma(rho), and the same least reducer under (length, word) among the
    finite parts the end point's walls reach; b = (sigma^-1(g_f) - g) / scale
    summed over the fundamental weights, checked in the translation lattice
    by affine_elt, and w o mu by the Fraction circle action."""
    fam = _family(case)
    rs = case.rs
    a0, n, _ = fam.walk_labels(mu)
    scale = fam.trans_scale(mu)
    if scale <= 0:
        raise ValueError("nonpositive shifted level; reduction undefined")
    bound = int(n * fam.lattice_scale * scale)
    a, sigma = a0, (1,) * rs.rank
    while True:
        i = next((i for i, x in enumerate(a) if x < 0), None)
        if i is None and fam.top(a) <= bound:
            break
        a, sigma = fam.reflect(a, i, bound), fam.reflect(sigma, i)
    walls = [i for i, x in enumerate(a) if x == 0] + ([None] if fam.top(a) == bound else [])
    seen, frontier = {sigma}, {sigma}
    while frontier:
        frontier = {fam.reflect(s, i) for s in frontier for i in walls} - seen
        seen |= frontier
    sigma = min(map(rs.element_from_labels, seen), key=lambda e: (e.length, e.word))
    back = rs.reflect_along(sigma.word[::-1], a)  # sigma^-1(g_f)
    diff = [(x - y) / (n * scale) for x, y in zip(back, a0)]
    b = tuple(sum(d * w[j] for d, w in zip(diff, rs.fund_weights)) for j in range(rs.rank))
    elt = affine_elt_fraction(case, sigma, b)
    wall = len(seen) > 1
    reduced = dot_act_fraction(elt, mu, case)
    if chamber_position(reduced, case) != (True, wall):
        raise AssertionError(f"reduced weight {reduced} left the chamber or changed wall")
    return ReduceResult(elt, reduced, wall)


def mu_lambda_fraction(alpha, lam, case) -> AffineWeight:
    """alcove.mu_lambda on the Fraction input weight affine_input."""
    return dominant_reduce_fraction(affine_input(case, alpha, lam), case).weight


def y_alpha_fraction(alpha, bullet_index, case) -> AffineWeylElt:
    """alcove.y_alpha on the Fraction input weights of the strong cosets of
    the bullet: the first candidate reducer (interior-derived first) that
    keeps every input in the chamber under the Fraction circle action,
    inverted by affine_inv_fraction."""
    strong = [lam for lam in enumerate_lambda(case)
              if lam.bullet_index == bullet_index and alcove_inequality(lam, case)]
    if not strong:
        raise WallReductionError(
            f"no strong representative with minuscule index {bullet_index} "
            f"in {case.case_id()}")
    inputs = [affine_input(case, alpha, lam) for lam in strong]
    candidates = []
    for mu in inputs:
        res = dominant_reduce_fraction(mu, case)
        if all(res.elt != elt for _, elt in candidates):
            candidates.append((res.on_wall, res.elt))
    candidates.sort(key=lambda pair: pair[0])
    for _, reducer in candidates:
        if all(chamber_position(dot_act_fraction(reducer, mu, case), case)[0]
               for mu in inputs):
            return affine_inv_fraction(case, reducer)
    raise DigitDependenceError(
        f"reducer depends on the box digits for bullet {bullet_index} "
        f"in {case.case_id()}")


def affine_mul_fraction(case, a, b) -> AffineWeylElt:
    """(s_a t_A)(s_b t_B) = (s_a s_b) t_{s_b^{-1} A + B}, s_b^{-1} acting by
    the matrix of its word."""
    rs = case.rs
    trans = vadd(weyl_apply_matrix(rs, rs.weyl_inv(b.finite_part), a.translation),
                 b.translation)
    return AffineWeylElt(rs.weyl_mul(a.finite_part, b.finite_part), trans)


def affine_inv_fraction(case, a) -> AffineWeylElt:
    """(s t_A)^{-1} = s^{-1} t_{-s(A)}."""
    rs = case.rs
    return AffineWeylElt(rs.weyl_inv(a.finite_part),
                         vneg(weyl_apply_matrix(rs, a.finite_part, a.translation)))


def y_sigma_fraction(w, alpha, bullet_index, case) -> AffineWeylElt:
    """t_{c(beta - w o beta)} y_alpha_fraction with beta = alpha + bullet, on
    Fraction coordinates."""
    rs = case.rs
    beta = vadd(alpha, rs.minuscule[bullet_index])
    trans = vscale(_family(case).lattice_scale, vsub(beta, dot_action(case, w, beta)))
    return affine_mul_fraction(case, AffineWeylElt(rs.identity_element(), trans),
                               y_alpha_fraction(alpha, bullet_index, case))


def closed_form_y_super_fraction(alpha, bullet_index, case) -> AffineWeylElt:
    """The super closed form: the translation by -(alpha + rho_check), for the
    spin coset composed with (w0 * w0(J))^-1, J the nodes but the last."""
    rs = case.rs
    t_elt = AffineWeylElt(rs.identity_element(), vneg(vadd(alpha, rs.rho_check)))
    if bullet_index == 0:
        return t_elt
    v = rs.weyl_mul(rs.longest_element(), rs.parabolic_longest(range(rs.rank - 1)))
    return affine_mul_fraction(case, t_elt, AffineWeylElt(rs.weyl_inv(v), vzero(rs.rank)))


# ---------------------------------------------------------------------------
# eta powers and free-fermion characters
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def euler_coeffs(order: int) -> tuple[int, ...]:
    """Coefficients of prod_{n>=1} (1 - q^n) up to q^order, from Euler's
    pentagonal number theorem."""
    out = [0] * (order + 1)
    k = 0
    while True:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > order:
                break
            out[g] += (-1) ** k
            if k == 0:
                break
        if k * (3 * k - 1) // 2 > order:
            break
        k += 1
    return tuple(out)


@lru_cache(maxsize=None)
def partition_coeffs(order: int) -> tuple[int, ...]:
    """Partition numbers p(0..order) via the pentagonal recurrence."""
    p = [0] * (order + 1)
    p[0] = 1
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return tuple(p)


def power_coeffs(base, r: int, order: int) -> list[int]:
    """The r-th power of a series with constant term 1, to q^order, by
    square-and-multiply over convolve."""
    out = [1] + [0] * order
    base = list(base)
    while r:
        if r & 1:
            out = convolve(out, base, order + 1)
        r >>= 1
        if r:
            base = convolve(base, base, order + 1)
    return out


def eta_inv_pow_reference(r: int, order: int) -> QSeries:
    coeffs = power_coeffs(partition_coeffs(order), r, order)
    return QSeries.make(Fraction(-r, 24), 1, coeffs, Fraction(-r, 24) + order)


def eta_pow_reference(r: int, order: int) -> QSeries:
    coeffs = power_coeffs(euler_coeffs(order), r, order)
    return QSeries.make(Fraction(r, 24), 1, coeffs, Fraction(r, 24) + order)


def binomial_product(order2: int, sign: int, offsets) -> list[int]:
    """prod (1 + sign*q^(k/2)) over the half-exponent positions in ``offsets``."""
    out = [0] * (order2 + 1)
    out[0] = 1
    top = 0
    for k in offsets:
        if k > order2:
            break
        top = min(top + k, order2)
        for i in range(top, k - 1, -1):
            out[i] += sign * out[i - k]
    return out


def fermion_char_reference(kind, order: int) -> QSeries:
    if kind is FermionKind.R_TWISTED:
        coeffs = binomial_product(order, +1, range(1, order + 1))
        return QSeries.make(Fraction(1, 24), 1, [2 * c for c in coeffs],
                            Fraction(1, 24) + order)
    sign = 1 if kind is FermionKind.NS_CH else -1
    coeffs = binomial_product(2 * order, sign, range(1, 2 * order + 1, 2))
    return QSeries.make(Fraction(-1, 48), 2, coeffs, Fraction(-1, 48) + order)


def _times(coeffs: list[int], sign: int, ks) -> list[int]:
    """coeffs times prod_{k in ks} (1 + sign*q^k), in place, to len(coeffs)."""
    for k in ks:
        for i in range(len(coeffs) - 1, k - 1, -1):
            coeffs[i] += sign * coeffs[i - k]
    return coeffs


def _over(coeffs: list[int], ks) -> list[int]:
    """coeffs over prod_{k in ks} (1 - q^k), in place, to len(coeffs)."""
    for k in ks:
        for i in range(k, len(coeffs)):
            coeffs[i] += coeffs[i - k]
    return coeffs


def euler_tail_in_place(r: int, kind, order: int) -> QSeries:
    """eta^-r times the fermion character of ``kind`` (1 for None), to depth
    ``order``, on the tail's grid: the fermion product factor by factor,
    then r divisions by prod (1 - q^n), each in place."""
    if kind is None:
        base, grid, coeffs = Fraction(0), 1, [1] + [0] * order
    elif kind is FermionKind.R_TWISTED:
        base, grid, coeffs = Fraction(1, 24), 1, _times([2] + [0] * order, 1, range(1, order + 1))
    else:
        sign = 1 if kind is FermionKind.NS_CH else -1
        base, grid = Fraction(-1, 48), 2
        coeffs = _times([1] + [0] * (2 * order), sign, range(1, 2 * order + 1, 2))
    _over(coeffs, [*range(grid, len(coeffs), grid)] * r)
    base -= Fraction(r, 24)
    return QSeries.make(base, grid, coeffs, base + order)


def resample(s, t) -> QSeries:
    """The series s with q replaced by q^t, for a positive rational t."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("resample factor must be positive")
    if s.is_zero:
        return QSeries.zero(s.cutoff * t)
    step = t / s.grid
    return QSeries.make(s.base * t, step.denominator, _spread(s.coeffs, step.numerator),
                        s.cutoff * t)


def scale(s, c) -> QSeries:
    """The series s times the rational c, which must keep every coefficient
    an integer."""
    c = Fraction(c)
    if c == 0:
        return QSeries.zero(s.cutoff)
    scaled = [c * x for x in s.coeffs]
    if any(v.denominator != 1 for v in scaled):
        raise ValueError(f"scaling by {c} does not keep integer coefficients")
    return QSeries(s.base, s.grid, tuple(int(v) for v in scaled), s.cutoff)


def from_json_dict(d) -> QSeries:
    """The series that QSeries.to_json_dict rendered as d."""
    return QSeries.make(Fraction(d["base"]), d["grid"], [int(c) for c in d["coeffs"]],
                        Fraction(d["cutoff"]))
