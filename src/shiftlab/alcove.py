"""Affine Weyl combinatorics for the two screening families.

The nonsuper family works in the Langlands-dual affine group W x lacing*Q
(translations indexed by lacing times the root lattice); the super family in
the twisted group W x Q.  In both, the shifted fundamental chamber on the
finite part is cut out by dominance together with one affine wall against the
coroot of the highest short root, and reduction is a monotone alcove walk
across violated walls.

Affine weights carry (finite part, Lambda_0 coefficient, delta coefficient);
the circle action is w o mu = w(mu + rho_hat) - rho_hat.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .liealg import CapExceededError, RootSystem, Vec, WeylElement, reflect_labels
from .shift import LambdaParam, ShiftCase, Variant, _cosets, _grid


class AffineWeight(NamedTuple):
    finite: Vec
    level: Fraction          # coefficient of Lambda_0
    delta_coeff: Fraction

    def describe(self) -> dict:
        return {
            "finite": [str(x) for x in self.finite],
            "level": str(self.level),
            "delta": str(self.delta_coeff),
        }


class AffineWeylElt(NamedTuple):
    finite_part: WeylElement
    translation: Vec

    def describe(self) -> dict:
        return {
            "word": [i + 1 for i in self.finite_part.word],
            "translation": [str(x) for x in self.translation],
        }


class ReduceResult(NamedTuple):
    elt: AffineWeylElt
    weight: AffineWeight
    on_wall: bool


class _Family:
    """Per-case affine conventions shared by all operations."""

    def __init__(self, case: ShiftCase):
        rs = self.rs = case.rs
        # translations live in lattice_scale*Q; a level scales them by
        # level_factor times its rho-shifted value; the input weight's rho'
        # has labels inner_labels, and its walk has n = 1 and k = m or p
        if case.variant is Variant.NONSUPER:
            self.lattice_scale, self.level_factor = rs.lacing, 1
            self.rho_hat_level = Fraction(rs.dual_coxeter_L)
            self.level_in = Fraction(case.m - rs.dual_coxeter_L)
            self.inner_labels, self.k_in = (1,) * rs.rank, case.m
        else:
            self.lattice_scale, self.level_factor = 1, 2
            self.rho_hat_level = Fraction(2 * rs.rank + 1, 2)
            self.level_in = Fraction(case.m - rs.rank - 1)
            self.inner_labels, self.k_in = rs.rho_check_labels, case.p
        self.form, self.form_den = rs.label_form()
        # labels of theta_s and the integer marks c of its coroot,
        # theta_s^vee = theta_L = sum c_i alpha_i^vee, so (g, theta_s^vee) = sum c_i a_i
        self.marks = rs.theta_L_marks
        self.reflect_cols = rs.reflect_cols()
        self.theta_s_labels = rs.theta_s_labels
        # rho_hat = p * x on the finite part
        self.rho_hat_labels = _grid(case)[0]

    def trans_scale(self, mu: AffineWeight) -> Fraction:
        """Multiplier applied to a translation vector at this weight's level
        (computed on the rho-shifted weight)."""
        return self.level_factor * (mu.level + self.rho_hat_level)

    def walk_labels(self, mu: AffineWeight) -> tuple[tuple[int, ...], int, int]:
        """(n * labels of g = mu + rho_hat, n, k = n * scale): n is the least
        common denominator of those labels and of the translation scale, so
        that a walk on n * labels stays on integers."""
        scale = self.trans_scale(mu)
        a, d = self.rs.scaled_labels(mu.finite)
        a = tuple(x + d * y for x, y in zip(a, self.rho_hat_labels))
        n = lcm(scale.denominator, *(d // gcd(x, d) for x in a))
        return tuple(x * n // d for x in a), n, int(n * scale)

    def shift_labels(self, sigma: WeylElement, t, a, k) -> tuple[int, ...]:
        """n * labels of w o mu + rho_hat = sigma(g + scale*b) for w = (sigma,
        b), b with labels t, from a = n * labels(g) at k = n * scale."""
        return self.rs.reflect_along(sigma.word, tuple(x + k * y for x, y in zip(a, t)))

    def weight(self, sigma: WeylElement, t, a, n: int, k: int, level, delta) -> AffineWeight:
        """w o mu from shift_labels' arguments and mu's level and delta
        coefficient; the delta term (g, b) + scale |b|^2 / 2 over the lattice
        scale reads the label form: (g, b) = a.form.t / (n form_den) and
        |b|^2 = t.form.t / form_den."""
        if any(t):
            ft = [sum(map(mul, row, t)) for row in self.form]
            delta -= Fraction(2 * sum(map(mul, a, ft)) + k * sum(map(mul, t, ft)),
                              2 * n * self.form_den * self.lattice_scale)
        end = self.shift_labels(sigma, t, a, k)
        fin = self.rs.from_labels(tuple(x - n * y for x, y in zip(end, self.rho_hat_labels)), n)
        return AffineWeight(fin, level, delta)

    def top(self, a) -> int:
        """(g, theta_s^vee) from the labels of g."""
        return sum(c * x for c, x in zip(self.marks, a))

    def position(self, a, k):
        """(is_inside, is_on_wall) against the shifted chamber of the weight
        g - rho_hat, from a = n * labels(g) at k = n * scale."""
        top, bound = self.top(a), self.lattice_scale * k
        if min(a) < 0 or top > bound:
            return False, False
        return True, 0 in a or top == bound

    def reflect(self, a, i, bound=0):
        """Labels after the simple wall i, or for i None after the affine wall
        (g, theta_s^vee) = bound; bound 0 gives the linear part alone."""
        if i is not None:
            return reflect_labels(a, i, self.reflect_cols[i])
        c = self.top(a) - bound
        return a if c == 0 else tuple(x - c * y for x, y in zip(a, self.theta_s_labels))

    def check_translation(self, t):
        """b in lattice_scale*Q, on its labels t: adj * t = det * b."""
        adj, det = self.rs.cartan_adjugate
        if any(sum(map(mul, row, t)) % (det * self.lattice_scale) for row in adj):
            raise ValueError(f"translation with labels {t} is not in {self.lattice_scale}*Q")


@lru_cache(maxsize=None)
def _family(case: ShiftCase) -> _Family:
    return _Family(case)


# ---------------------------------------------------------------------------
# group elements and the circle action
# ---------------------------------------------------------------------------

def _elt(rs: RootSystem, sigma: WeylElement, t) -> AffineWeylElt:
    """The record of (sigma, t_b), b with labels t: elements compose on
    labels, and only the record holds root coordinates."""
    return AffineWeylElt(sigma, rs.from_labels(t))


def _compose(rs: RootSystem, sa, ta, sb, tb) -> tuple[WeylElement, tuple[int, ...]]:
    """(s_a t_A)(s_b t_B) = (s_a s_b) t_{s_b^{-1} A + B}, on the labels of A and B."""
    return rs.weyl_mul(sa, sb), tuple(map(add, rs.reflect_along(sb.word[::-1], ta), tb))


def _inverse(rs: RootSystem, sigma: WeylElement, t) -> tuple[WeylElement, tuple[int, ...]]:
    """(s t_b)^{-1} = s^{-1} t_{-s(b)}, on the labels of b."""
    return rs.weyl_inv(sigma), tuple(-x for x in rs.reflect_along(sigma.word, t))


def affine_mul(case: ShiftCase, a: AffineWeylElt, b: AffineWeylElt) -> AffineWeylElt:
    """The product of the affine Weyl group (see _compose)."""
    rs = case.rs
    return _elt(rs, *_compose(rs, a.finite_part, rs.integral_labels(a.translation),
                              b.finite_part, rs.integral_labels(b.translation)))


def affine_inv(case: ShiftCase, a: AffineWeylElt) -> AffineWeylElt:
    rs = case.rs
    return _elt(rs, *_inverse(rs, a.finite_part, rs.integral_labels(a.translation)))


def dot_act(w: AffineWeylElt, mu: AffineWeight, case: ShiftCase) -> AffineWeight:
    """Circle action w o mu = (s t_B)(mu + rho_hat) - rho_hat, on labels."""
    fam, t = _family(case), case.rs.integral_labels(w.translation)
    fam.check_translation(t)
    return fam.weight(w.finite_part, t, *fam.walk_labels(mu), mu.level, mu.delta_coeff)


# ---------------------------------------------------------------------------
# chamber membership and reduction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)  # alcove_json reduces its coset in y_alpha and in mu_lambda
def _reduce(case: ShiftCase, a0: tuple[int, ...], k: int):
    """(sigma, t, on_wall): the affine element (sigma, b), b with labels t,
    that takes a0 = n * labels(g) of g = mu + rho_hat at k = n * scale into
    the closed shifted chamber, found by reflecting across violated walls.

    The walk carries the labels of g and of sigma(rho); b is read off g_f, as
    sigma(g + scale*b) = g_f, and checked by recomputing g_f.  For
    regular input the element is unique.  On a wall the valid reducers are
    the finite parts that the wall reflections through g_f reach from sigma;
    the canonical one is the minimal one under (finite length, word), which
    agrees with the unique reducer of nearby regular inputs.
    """
    fam = _family(case)
    rs = case.rs
    if k <= 0:
        raise ValueError("nonpositive shifted level; reduction undefined")
    bound = fam.lattice_scale * k
    a, sigma, steps = a0, (1,) * rs.rank, 100000
    for _ in range(steps):
        i = next((i for i, x in enumerate(a) if x < 0), None)
        if i is None and fam.top(a) <= bound:
            break
        a, sigma = fam.reflect(a, i, bound), fam.reflect(sigma, i)
    else:  # the walk's length grows with the weight's distance from the chamber
        raise CapExceededError(f"the alcove walk did not reach the chamber in {steps} steps")
    walls = [i for i, x in enumerate(a) if x == 0] + ([None] if fam.top(a) == bound else [])
    seen, frontier = {sigma}, {sigma}
    while frontier:
        frontier = {fam.reflect(s, i) for s in frontier for i in walls} - seen
        seen |= frontier
    sigma = min(map(rs.element_from_labels, seen), key=lambda e: (e.length, e.word))
    back = rs.reflect_along(sigma.word[::-1], a)  # sigma^-1(g_f) = g + scale*b
    t, rests = zip(*(divmod(x - y, k) for x, y in zip(back, a0)))
    if any(rests):
        raise AssertionError(f"the translation from {a0} at k={k} has non-integral labels")
    fam.check_translation(t)
    wall = len(seen) > 1
    if fam.shift_labels(sigma, t, a0, k) != a or fam.position(a, k) != (True, wall):
        raise AssertionError(f"reduced labels {a} left the chamber or changed wall")
    return sigma, t, wall


def dominant_reduce(mu: AffineWeight, case: ShiftCase) -> ReduceResult:
    """The affine element w with w o mu in the closed shifted chamber, and
    w o mu (see _reduce)."""
    fam = _family(case)
    a0, n, k = fam.walk_labels(mu)
    sigma, t, wall = _reduce(case, a0, k)
    return ReduceResult(_elt(case.rs, sigma, t),
                        fam.weight(sigma, t, a0, n, k, mu.level, mu.delta_coeff), wall)


# ---------------------------------------------------------------------------
# the distinguished elements attached to (alpha, lambda)
# ---------------------------------------------------------------------------

def _input_labels(case: ShiftCase, alpha_labels, l_idx: int) -> tuple[int, ...]:
    """Labels of g = mu + rho_hat for the input weight mu = -p(alpha + bullet
    + rho') + p*box + level_in*Lambda_0 of (alpha, coset l_idx), whose
    reduction drives the decomposition bookkeeping (rho' = rho for the
    nonsuper family and rho_check for the super one): the coset's box labels
    u = p * labels(box + x) less p * labels(bullet + alpha + rho')."""
    table = _cosets(case)
    return tuple(u - case.p * (c + y + z) for u, c, y, z in zip(
        table._u[l_idx], case.rs.minuscule_labels[table._b[l_idx]], alpha_labels,
        _family(case).inner_labels))


class WallReductionError(RuntimeError):
    """Raised when a y-element is requested outside the strong region."""


class DigitDependenceError(AssertionError):
    """Raised when no reducer is common to the strong cosets of one bullet."""


@lru_cache(maxsize=None)
def _strong_cosets(case: ShiftCase, bullet_index: int) -> tuple[int, ...]:
    table = _cosets(case)
    return tuple(i for i, b in enumerate(table._b) if b == bullet_index and table.alcove(i))


def mu_lambda(alpha: Vec, lam: LambdaParam, case: ShiftCase) -> AffineWeight:
    """The chamber representative of the input weight for (alpha, lam)."""
    fam = _family(case)
    a0 = _input_labels(case, case.rs.integral_labels(alpha), _cosets(case).index(lam.key()))
    sigma, t, _ = _reduce(case, a0, fam.k_in)
    return fam.weight(sigma, t, a0, 1, fam.k_in, fam.level_in, Fraction(0))


def y_alpha(alpha: Vec, bullet_index: int, case: ShiftCase) -> AffineWeylElt:
    """Inverse of the common chamber reducer over the strong region.

    Regular inputs determine their reducer uniquely; on the walls reached by
    boundary digits many reducers are valid, so the canonical one is the first
    of the inputs' own reducers, in coset order, that works for every strong
    coset with the given minuscule part.  If any input is regular, its
    reducer is the only one that can work for all, so the order matters only
    when every input lies on a wall.  Digit independence fails loudly if no
    common reducer exists.
    """
    return _elt(case.rs, *_y_alpha_labels(case, case.rs.integral_labels(alpha), bullet_index))


def _y_alpha_labels(case: ShiftCase, alpha_labels, bullet_index: int):
    """y_alpha on labels: (finite part, labels of its translation)."""
    strong = _strong_cosets(case, bullet_index)
    if not strong:
        raise WallReductionError(
            f"no strong representative with minuscule index {bullet_index} "
            f"in {case.case_id()}")
    fam, k = _family(case), _family(case).k_in
    inputs = [_input_labels(case, alpha_labels, l_idx) for l_idx in strong]
    candidates: list[tuple[WeylElement, tuple[int, ...]]] = []
    for a0 in inputs:
        if (cand := _reduce(case, a0, k)[:2]) not in candidates:
            candidates.append(cand)
    # w o mu keeps mu's level, so its chamber position is read at mu's k
    for sigma, t in candidates:
        if all(fam.position(fam.shift_labels(sigma, t, a0, k), k)[0] for a0 in inputs):
            return _inverse(case.rs, sigma, t)
    raise DigitDependenceError(
        f"reducer depends on the box digits for bullet {bullet_index} "
        f"in {case.case_id()}")


def y_sigma(w: WeylElement, alpha: Vec, bullet_index: int,
            case: ShiftCase) -> AffineWeylElt:
    """t_{c(beta - w o beta)} y_{alpha, bullet} with beta = alpha + bullet and
    c the translation-lattice scale of the family; beta - w o beta =
    (beta + rho) - w(beta + rho)."""
    rs, c = case.rs, _family(case).lattice_scale
    alpha_labels = rs.integral_labels(alpha)
    top = tuple(x + y + 1 for x, y in zip(alpha_labels, rs.minuscule_labels[bullet_index]))
    trans = tuple(c * (x - y) for x, y in zip(top, rs.reflect_along(w.word, top)))
    base = _y_alpha_labels(case, alpha_labels, bullet_index)
    return _elt(rs, *_compose(rs, rs.identity_element(), trans, *base))


def closed_form_y_super(alpha: Vec, bullet_index: int,
                        case: ShiftCase) -> AffineWeylElt:
    """Closed forms in the twisted family: a pure translation by
    -(alpha + rho_check) for trivial minuscule part; for the spin coset the
    translation composed with the minuscule element v^-1, v = w0 * w0(J), J
    the nodes stabilizing the spin weight: t_B v^-1 = v^-1 t_{v(B)}.  At
    rank 1 the latter is the single simple reflection."""
    if case.variant is Variant.NONSUPER:
        raise ValueError("closed forms are for the super family")
    rs = case.rs
    # the twisted family's inner weight is rho_check
    trans = tuple(-x - y for x, y in zip(rs.integral_labels(alpha), _family(case).inner_labels))
    if bullet_index == 0:
        return _elt(rs, rs.identity_element(), trans)
    v = rs.weyl_mul(rs.longest_element(), rs.parabolic_longest(range(rs.rank - 1)))
    return _elt(rs, rs.weyl_inv(v), rs.reflect_along(v.word, trans))


def alcove_json(case: ShiftCase, alpha: Vec, lam: LambdaParam) -> dict:
    y = y_alpha(alpha, lam.bullet_index, case)
    red = mu_lambda(alpha, lam, case)
    return {
        "family": "twisted" if case.variant.is_super else "untwisted-dual",
        "case": case.case_id(),
        "alpha": [str(x) for x in alpha],
        "lambda": lam.label(),
        "lambda_bullet": lam.bullet_index,
        "y": y.describe(),
        "mu_lambda": red.describe(),
    }
