"""Shift systems on rescaled root lattices: coset representatives, the Weyl
action, the carry-over (shift) map, and the weak/strong screening conditions.

Two families are supported on the quotient (1/p)Q*/Q.  They differ only in p
and the twist p*x, which ``make_case`` fixes once; every other layer reads
``case.x`` and the background charge ``case.gamma = rho - x``:

* ``NONSUPER``      p = lacing * m, any simple type; p*x = rho_check, and
                    the digit box uses the fundamental coweights.
* ``SUPER``         p = 2m - 1 odd, series B only; p*x = rho, digit box on
                    the fundamental weights with a parity constraint tied to
                    the short simple root.
* ``SUPER_RAMOND``  same combinatorial data as SUPER; it differs only in the
                    conformal grading used by the character layer.

Every representative is the unique element -bullet + box of its coset with
``bullet`` minuscule and ``0 < (box + x, alpha_i^vee) <= 1`` for all i.  One
``ShiftSystem`` per layout holds the cosets.  The screening conditions, the axiom
checks and the * climb read its simple shifts, ``w_act`` and ``shift_map`` its carry
(on E7 and E8 too), and ``verify walls`` alone its rows over W (``system``).
Its ``rows``, one per coset, are the tables of its ``ShiftReport``s, not copied.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import prod
from numbers import Rational
from operator import add, floordiv, mul, sub
from typing import NamedTuple

from .liealg import (
    CapExceededError,
    RootSystem,
    SimpleLieType,
    Vec,
    WeylElement,
    _close_roots,
    build_root_system,
    reflect_labels,
    weyl_order,
)

COSET_CAP = 10**6  # the most cosets a layout may hold; it bounds their count, not memory:
# `lambda --algebra A2 --m 100` peaks at 136 MB (`info`: 15 MB) over its 30,000 cosets


class Variant(enum.Enum):
    NONSUPER = "nonsuper"
    SUPER = "super"
    SUPER_RAMOND = "ramond"

    @property
    def is_super(self) -> bool:
        return self is not Variant.NONSUPER


class InvalidCaseError(ValueError):
    """Raised for (type, variant, m) combinations outside the two families."""


class WordDependenceError(AssertionError):
    """Raised when the canonical word's strong verdict is not every word's."""


class ShiftCase(NamedTuple):
    rs: RootSystem
    variant: Variant
    m: int
    p: int
    x: Vec                    # twist vector: rho_check/p (nonsuper) or rho/p (super)
    gamma: Vec                # background charge over sqrt(p): gamma = rho - x
    central_charge: Fraction

    def __hash__(self) -> int:
        # type, variant and m fix every other field; hashing them all is slow,
        # and so is Enum.__hash__, which the variant's value stands in for
        return hash((self.rs.lie_type, self.variant._value_, self.m))

    @property
    def rank(self) -> int:
        return self.rs.rank

    def case_id(self) -> str:
        return f"{self.rs.lie_type}:{self.variant.value}:m={self.m}"


def make_case(lie_type: SimpleLieType | str, variant: Variant | str, m: int) -> ShiftCase:
    if isinstance(lie_type, str):
        lie_type = SimpleLieType.parse(lie_type)
    if isinstance(variant, str):
        variant = Variant(variant)
    if m < 1:
        raise InvalidCaseError("m must be a positive integer")
    rs = build_root_system(lie_type)
    # p * labels(x), and twice the central charge before the background charge
    if variant is Variant.NONSUPER:
        p, px, c2 = rs.lacing * m, rs.rho_check_labels, 2 * rs.rank
    elif lie_type.series != "B":
        raise InvalidCaseError(f"variant {variant.value} requires series B, got {lie_type}")
    else:
        p, px, c2 = 2 * m - 1, (1,) * rs.rank, 2 * rs.rank + 1
    # u = p * labels(gamma), as rho's labels are all 1; c = c2/2 - 12 p |gamma|^2
    (g, n), u = rs.label_form(), [p - v for v in px]
    q = sum(y * sum(map(mul, row, u)) for y, row in zip(u, g))
    return ShiftCase(rs, variant, m, p, rs.from_labels(px, p), rs.from_labels(u, p),
                     Fraction(c2 * n * p - 24 * q, 2 * n * p))


class Walk(NamedTuple):
    strong: bool            # every prefix's shift pairs to zero with the next letter's coroot
    telescoped: bool        # every prefix's direct shift is the plain sum of its simple shifts
    shift: tuple[int, ...]  # the labels of w0 ^ lambda
    bad: int | None         # the first prefix whose composed shift is not the direct one


class LambdaParam(NamedTuple):
    bullet_index: int          # index into rs.minuscule
    bullet_up: Vec             # the minuscule weight itself
    digits: tuple[int, ...]
    value: Vec                 # -bullet_up + box, an element of (1/p)Q*

    def key(self) -> tuple:
        return (self.bullet_index, self.digits)

    def label(self) -> str:
        return ",".join(str(x) for x in (self.bullet_index,) + self.digits)


# ---------------------------------------------------------------------------
# decomposition and enumeration
# ---------------------------------------------------------------------------

def _scaled_point(mu: Vec, case: ShiftCase) -> list[int]:
    """p * labels(mu + x) for mu in (1/p)Q*: p * (mu, alpha_i) = p * ell_i *
    labels_i / lacing is integral for all i, and then so is p * labels_i."""
    rs, p = case.rs, case.p
    labels, n = rs.scaled_labels(mu)
    if any(p * e * v % (rs.lacing * n) for e, v in zip(rs.ell, labels)):
        raise ValueError(f"{mu} is not in (1/p)Q* for p={p}")
    return [p * v // n + s for v, s in zip(labels, _grid(case)[0])]


def canonical_decompose(mu: Vec, case: ShiftCase) -> tuple[Vec, Vec]:
    """Unique (bullet, box) with mu = -bullet + box, bullet integral,
    and 0 < (box + x, alpha_i^vee) <= 1 for every i: the bullet -t that
    ShiftSystem.carry reads off a = p * labels(mu + x); p * labels(box) is
    a - p * t - p * labels(x)."""
    a = _scaled_point(mu, case)
    t = _cosets(case).carry(0, a)[1]
    box = [v - case.p * c - s for v, c, s in zip(a, t, _grid(case)[0])]
    return case.rs.from_labels([-c for c in t]), case.rs.from_labels(box, case.p)


@lru_cache(maxsize=None)
def _grid(case: ShiftCase) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x, bounds): x = p * labels(x), which also scales digit k_i to k_i *
    x_i = p * labels(box + x)_i, so that k_i runs up to p / x_i (p * d_i in
    the nonsuper family, p in the super one)."""
    p, (x, n) = case.p, case.rs.scaled_labels(case.x)
    if any(p * v % n for v in x):
        raise AssertionError(f"the twist of {case.case_id()} has labels off the 1/{p} grid")
    x = tuple(p * v // n for v in x)
    if any(p % t for t in x):
        raise AssertionError(f"p={p} does not clear the root lengths")
    return x, tuple(p // t for t in x)


def lambda_from(case: ShiftCase, bullet_index: int, digits) -> LambdaParam:
    """The transversal's record of (bullet_index, digits), once they pass the checks."""
    digits = tuple(digits)
    # an int passes before the first (slow) abstract-base check
    if not all(isinstance(v, int) or isinstance(v, Rational) and v.denominator == 1
               for v in (bullet_index, *digits)):
        raise ValueError(f"minuscule index {bullet_index} or digits {digits} not all integers")
    bullet_index, digits = int(bullet_index), tuple(map(int, digits))
    if len(digits) != case.rank:
        raise ValueError("digit tuple has wrong length")
    bounds, bullets = _grid(case)[1], case.rs.minuscule_labels
    if not 0 <= bullet_index < len(bullets):
        raise ValueError(f"minuscule index {bullet_index} outside 0..{len(bullets) - 1}")
    for d, b in zip(digits, bounds):
        if not 1 <= d <= b:
            raise ValueError(f"digit {d} outside 1..{b}")
    bullet = bullets[bullet_index]
    if case.variant.is_super and (digits[-1] + bullet[-1]) % 2 == 0:
        raise ValueError(f"digits {digits} violate the parity rule for {case.case_id()}")
    table = _cosets(case)
    return table.record(table.index((bullet_index, digits)))


def enumerate_lambda(case: ShiftCase) -> tuple[LambdaParam, ...]:
    """The full transversal of (1/p)Q*/Q, ordered by (minuscule index, digits)."""
    return _cosets(case).lambdas


def lambda_of_value(case: ShiftCase, mu: Vec) -> LambdaParam:
    """Canonical representative in Lambda of the coset mu + Q, located from
    the p-scaled Dynkin labels of mu + x."""
    table = _cosets(case)
    return table.record(table.carry(0, _scaled_point(mu, case))[0])


# ---------------------------------------------------------------------------
# cached per-case machinery
# ---------------------------------------------------------------------------

class ShiftSystem:
    """The shift system of one coset layout Lambda: per coset its bullet index, its box
    labels u = p * labels(box + x), whose digits are u // x, and its record (built on
    request).  The cosets are numbered mixed radix over each bullet's digit ranges, and one
    rule, the carry, moves, locates and numbers them.  Internally an ambient vector is kept as its
    Dynkin labels scaled by p, which makes every vector of (1/p)Q* and the twist x
    integral.  The screening conditions, the axiom checks and the characters' * climb
    read its simple shifts, and w_act and shift_map its carry, with no Weyl group; only
    verify walls' full * sum reads the rows over W (``row``), on the enumeration that
    ``system`` attaches (``weyl``, ``_steps``).  Root coordinates appear only at the
    public boundary."""

    def __init__(self, case: ShiftCase):
        self.case = case
        rs = self.rs = case.rs
        p, r = case.p, case.rank
        self.cols = rs.root_labels()
        x, bullets = _grid(case)[0], rs.minuscule_labels
        # the class in P/Q is det * C^{-1} applied to the labels, modulo det;
        # the fewest rows of it that tell the minuscule weights apart give it
        adj, self._det = rs.cartan_adjugate
        self._class_rows = next(
            (rows for k in range(r + 1) for rows in combinations(adj, k)
             if len({tuple(sum(map(mul, row, b)) % self._det for row in rows)
                     for b in bullets}) == len(bullets)), adj)
        # the class key is constant on mu + Q, which the characters' checks rely on
        if any(self._class_key(col) for col in self.cols):
            raise AssertionError(f"a simple root of {rs.lie_type} has a nonzero class key")
        self._bullet_of = {self._class_key(b): b_idx for b_idx, b in enumerate(bullets)}
        if len(self._bullet_of) != len(bullets):
            raise AssertionError(f"two bullets of {rs.lie_type} share a class key")
        # per bullet index (a dict, which refuses any other index), the first
        # coset's number and the ranges of u_i = k_i x_i = p * labels(box + x)_i,
        # k_i x_i <= p; a super bullet's last label sets the last digit's parity.
        # A range starts at s = x_i or 2 s, so p * labels(box)_i = u_i - s is in
        # [0, p): ceil(-nu) = beta on every point nu = box - beta of a coset
        sup, self._boxes, count = case.variant.is_super, {}, 0
        for b_idx, bullet in enumerate(bullets):
            ranges = [range(s, p + 1, s) for s in x[:-1]] \
                + [range(x[-1] * (1 + (sup and bullet[-1] % 2)), p + 1, x[-1] * (1 + sup))]
            self._boxes[b_idx] = count, ranges
            count += prod((p - d.start) // d.step + 1 for d in ranges)  # len overflows past 2**63
        if count > COSET_CAP:
            raise CapExceededError(f"{case.case_id()}: {count} cosets exceed the cap {COSET_CAP}")
        # per coset in (minuscule index, digits) order: its bullet index and u
        self._b, self._u = [], []
        for b_idx, (start, ranges) in self._boxes.items():
            self._u += product(*ranges)
            self._b += [b_idx] * (len(self._u) - start)
        self.reflect_cols, self._x = rs.reflect_cols(), x
        self._records = [None] * len(self._u)
        self._simple, self._conditions, self._report = {}, {}, None
        self.weyl, self._act, self._shift = None, {}, {}

    def record(self, l_idx: int) -> LambdaParam:
        """Coset l_idx's record, built on its first request, when its weight
        round-trips: p * labels(value) = u - x - p * bullet."""
        if (lam := self._records[l_idx]) is None:
            b_idx, u, p, rs = self._b[l_idx], self._u[l_idx], self.case.p, self.rs
            bullet = rs.minuscule_labels[b_idx]
            a = [v - s - p * c for v, s, c in zip(u, self._x, bullet)]
            lam = LambdaParam(b_idx, rs.from_labels(bullet), tuple(map(floordiv, u, self._x)),
                              rs.from_labels(a, p))
            labels, n = rs.scaled_labels(lam.value)
            if any(p * v != n * w for v, w in zip(labels, a)):
                raise AssertionError(f"{lam.label()} does not round-trip")
            self._records[l_idx] = lam
        return lam

    @cached_property
    def lambdas(self) -> tuple[LambdaParam, ...]:
        """Every coset's record, in order (enumerate_lambda)."""
        return tuple(map(self.record, range(len(self._u))))

    def label(self, l_idx: int) -> str:
        """Coset l_idx's record label: its bullet index and digits u // x."""
        return ",".join(map(str, (self._b[l_idx], *map(floordiv, self._u[l_idx], self._x))))

    def alcove(self, l_idx: int) -> bool:
        """(p*box + rho_check, theta_L) <= p, with rho instead of rho_check in the super
        family, on u = p * labels(box + x), whose theta_L marks are c_j."""
        return sum(map(mul, self.rs.theta_L_marks, self._u[l_idx])) <= self.case.p

    def _class_key(self, labels) -> int:
        key = 0
        for row in self._class_rows:
            key = key * self._det + sum(map(mul, row, labels)) % self._det
        return key

    def index(self, key) -> int:
        """The number of the coset with key (bullet index, digits) (see carry)."""
        return self._number(key[0], [k * s for k, s in zip(key[1], self._x)])

    def _number(self, b_idx: int, u) -> int:
        """The number of the coset with bullet b_idx and box labels u: after the
        cosets of the bullets before it, mixed radix over the bullet's ranges."""
        n, (start, ranges) = 0, self._boxes[b_idx]
        try:
            for v, d in zip(u, ranges):
                n = n * len(d) + d.index(v)
        except ValueError:
            raise AssertionError(f"box labels {u}/{self.case.p} are off the digit grid") from None
        return start + n

    def carry(self, b_idx: int, v) -> tuple[int, tuple[int, ...]]:
        """(number of w * lambda, labels t of w ^ lambda) for v = w(u), u = p *
        labels(box + x) of a coset with bullet b_idx: t = ceil(v/p) - 1 brings
        v - p*t into (0, p], the box labels of w * lambda, whose bullet has the
        class of bullet - t (w ^ lambda = w(bullet) - bullet', and w(bullet) -
        bullet is in Q).  carry(0, a) locates the point mu with a = p *
        labels(mu + x): its bullet is -t."""
        p, bullet = self.case.p, self.rs.minuscule_labels[b_idx]
        t = tuple((y - 1) // p for y in v)
        b_idx = self._bullet_of[self._class_key(tuple(map(sub, bullet, t)))]
        return self._number(b_idx, [y - p * c for y, c in zip(v, t)]), t

    # -- the shift map and the screening conditions --------------------------

    def simple(self, l_idx: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """(indices of s_i * lambda, labels of s_i ^ lambda) per i; carried on first use."""
        if l_idx not in self._simple:
            u, b_idx = self._u[l_idx], self._b[l_idx]
            act, shift = zip(*(self.carry(b_idx, reflect_labels(u, i, col))
                               for i, col in enumerate(self.reflect_cols)))
            self._simple[l_idx] = list(act), list(shift)
        return self._simple[l_idx]

    def w0_word(self, word=None) -> tuple[int, ...]:
        """The canonical word of w0 (its lex-minimal one), or the given word
        once checked: N letters, each a node, whose product takes the labels
        of rho to those of w0(rho), which makes it reduced."""
        if word is None:
            return self.rs.longest_element().word
        word, r = tuple(word), self.case.rank
        if (len(word) != len(self.rs.roots) or not set(word) <= set(range(r))
                or self.rs.reflect_along(word, (1,) * r) != (-1,) * r):
            raise ValueError("word is not a reduced word of the longest element")
        return word

    def walk(self, l_idx: int, word=None) -> Walk:
        """Along a word of w0 (w0_word) read from its right end, the simple
        shifts composed by the cocycle s_i w ^ lambda = s_i(w ^ lambda) + s_i ^
        (w * lambda), each prefix checked in the same pass against its direct
        shift ceil(w(u)/p) - 1 (carry)."""
        p, cols, v = self.case.p, self.reflect_cols, self._u[l_idx]
        strong, telescoped, bad = True, True, None
        acc = total = (0,) * self.case.rank
        for k, i in enumerate(reversed(self.w0_word(word))):
            act, shift = self.simple(l_idx)
            strong = strong and acc[i] == 0
            acc = tuple(map(add, reflect_labels(acc, i, cols[i]), shift[i]))
            total = tuple(map(add, total, shift[i]))
            v = reflect_labels(v, i, cols[i])
            direct = tuple((y - 1) // p for y in v)
            telescoped = telescoped and total == direct
            if bad is None and acc != direct:
                bad = k
            l_idx = act[i]
        return Walk(strong, telescoped, acc, bad)

    def conditions(self, l_idx: int) -> tuple[bool, bool, tuple[int, ...], bool]:
        """(weak, strong, labels of w0 ^ lambda, telescoped strong) of coset
        l_idx on the canonical word, computed once; raises if it does not compose."""
        if l_idx not in self._conditions and self._walked(l_idx) is not None:
            raise AssertionError("cocycle composition disagrees with the direct shift")
        return self._conditions[l_idx]

    def _walked(self, l_idx: int) -> int | None:
        """The first prefix of the canonical word whose composed shift is not
        the direct one, or None, when conditions' entries are stored."""
        if l_idx not in self._conditions:
            (act, shift), r = self.simple(l_idx), self.case.rank
            weak = all(act[j] == l_idx or shift[j] == tuple(-(i == j) for i in range(r))
                       for j in range(r))
            walked = self.walk(l_idx)
            if walked.bad is not None:
                return walked.bad
            self._conditions[l_idx] = weak, walked.strong, walked.shift, walked.telescoped
        return None

    @cached_property
    def rows(self) -> tuple[tuple[str, bool, bool, bool, tuple[str, ...]], ...]:
        """Per coset (label, weak, strong, alcove, root coordinates of w0 ^
        lambda as str), read off the condition table once per layout, each
        w0 shift formatted once; every report of the layout shares it."""
        coords, rows = {}, []
        for l_idx in range(len(self._u)):
            weak, strong, shift, _ = self.conditions(l_idx)
            if shift not in coords:
                coords[shift] = tuple(map(str, self.rs.from_labels(shift)))
            rows.append((self.label(l_idx), weak, strong, self.alcove(l_idx), coords[shift]))
        return tuple(rows)

    def root_shifts(self, l_idx: int) -> list[tuple[int, int]]:
        """(t(beta), t(-beta)) per positive root beta of _coroots (see _verify)."""
        p, u = self.case.p, self._u[l_idx]
        return [((y - 1) // p, (-y - 1) // p)
                for y in (sum(map(mul, co, u)) for _, co in _coroots(self.rs))]

    def check_point(self, point, l_idx: int):
        """The coset check of a Cartan weight, on its labels: the weight lies
        in the Cartan support coset of coset l_idx, which has that coset's box
        and class (the box's ceiling holds by the digit ranges, see __init__)."""
        if self._bullet_of.get(self._class_key(point)) != self._b[l_idx]:
            raise ValueError(f"weight with labels {point} is not in the Cartan support "
                             f"coset of {self.record(l_idx).label()}")

    # -- the action and the shift map over W (system) ------------------------

    def row(self, l_idx: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """(indices of w * lambda, labels of w ^ lambda) over W, in enumeration
        order."""
        if l_idx not in self._act:
            self._act[l_idx], self._shift[l_idx] = self._fill(l_idx)
        return self._act[l_idx], self._shift[l_idx]

    def orbit(self, labels: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Dynkin labels of w(mu) for every Weyl element w in enumeration
        order, from those of mu; one simple reflection per element."""
        cols, out = self.reflect_cols, [labels]
        for i, j in self._steps:
            out.append(reflect_labels(out[j], i, cols[i]))
        return out

    def _fill(self, l_idx: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Element k = s_i * element j of the enumeration: s_i w * lambda =
        s_i * (w * lambda), and by the cocycle s_i w ^ lambda = s_i(w ^ lambda)
        + s_i ^ (w * lambda), from the simple shifts of the coset w * lambda."""
        cols, act, shift = self.reflect_cols, [l_idx], [(0,) * self.case.rank]
        for i, j in self._steps:
            moved, up = self.simple(act[j])
            act.append(moved[i])
            shift.append(tuple(map(add, reflect_labels(shift[j], i, cols[i]), up[i])))
        return act, shift

    def act_index(self, w_idx: int, l_idx: int) -> int:
        return self.row(l_idx)[0][w_idx]

    def shift_value(self, w_idx: int, l_idx: int) -> Vec:
        return self.rs.from_labels(self.row(l_idx)[1][w_idx])


@lru_cache(maxsize=None)
def _cosets(case: ShiftCase) -> ShiftSystem:
    """The case's shift system, with no Weyl group; a Ramond case reads super's."""
    if case.variant is Variant.SUPER_RAMOND:
        return _cosets(case._replace(variant=Variant.SUPER))
    return ShiftSystem(case)


@lru_cache(maxsize=None)
def system(case: ShiftCase) -> ShiftSystem:
    """The case's shift system (_cosets) with W's enumeration, for verify walls' rows."""
    table = _cosets(case)
    table.weyl, _, table._steps = table.rs.weyl_table()
    return table


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _carried(w: WeylElement, lam: LambdaParam, case: ShiftCase) -> tuple[int, tuple[int, ...]]:
    """ShiftSystem.carry of w(u) on lam's coset; ValueError unless w is one of W's."""
    table, rs = _cosets(case), case.rs
    if len(w.labels) != rs.rank or rs.element_from_labels(w.labels) != w:
        raise ValueError(f"{w} is not an element of W({rs.lie_type})")
    l_idx = table.index(lam.key())
    return table.carry(table._b[l_idx], rs.reflect_along(w.word, table._u[l_idx]))


def w_act(w: WeylElement, lam: LambdaParam, case: ShiftCase) -> LambdaParam:
    return _cosets(case).record(_carried(w, lam, case)[0])


def shift_map(w: WeylElement, lam: LambdaParam, case: ShiftCase) -> Vec:
    return case.rs.from_labels(_carried(w, lam, case)[1])


def is_fixed(i: int, lam: LambdaParam, case: ShiftCase) -> bool:
    """Whether sigma_i fixes lam; equivalently the i-th digit sits at its bound."""
    table = _cosets(case)
    l_idx = table.index(lam.key())
    return table.simple(l_idx)[0][i] == l_idx


def check_weak(lam: LambdaParam, case: ShiftCase) -> bool:
    """For all (i, j): lam fixed by sigma_j, or (sigma_j ^ lam, alpha_i^vee) = -delta_ij."""
    table = _cosets(case)
    return table.conditions(table.index(lam.key()))[0]


def check_strong(lam: LambdaParam, case: ShiftCase, word=None) -> bool:
    """Vanishing of every prefix pairing along a reduced word of w0."""
    table = _cosets(case)
    l_idx = table.index(lam.key())
    return table.conditions(l_idx)[1] if word is None else table.walk(l_idx, word).strong


def check_strong_all_words(lam: LambdaParam, case: ShiftCase) -> bool:
    """The strong condition on every reduced word of w0, walking none;
    WordDependenceError if the canonical word's verdict (check_strong)
    differs.  Reading a reduced word i_1 ... i_N of w0 from its right end,
    the walk pairs w_k ^ lambda, w_k = s_{i_{k+1}} ... s_{i_N}, with
    alpha_{i_k}^vee; label i of w ^ lambda is t(w^-1 alpha_i) (_verify), so
    that pairing is t(beta_k) for the word's k-th inversion root beta_k =
    w_k^-1 alpha_{i_k}.  A reduced word's inversion roots are the positive
    roots its product sends to negative ones, each once; for w0 that is all
    of Phi+.  So every word's verdict is t(beta) = 0 for every beta > 0
    (ShiftSystem.root_shifts)."""
    table, strong = _cosets(case), check_strong(lam, case)
    if strong != all(t == 0 for t, _ in table.root_shifts(table.index(lam.key()))):
        raise WordDependenceError(
            f"strong condition depends on the reduced word for {lam.label()} "
            f"in {case.case_id()}")
    return strong


def check_strong_alt(lam: LambdaParam, case: ShiftCase, word=None) -> bool:
    """Telescoped form: the direct shift of every prefix equals the plain
    sum of the simple shifts along it."""
    table = _cosets(case)
    l_idx = table.index(lam.key())
    return table.conditions(l_idx)[3] if word is None else table.walk(l_idx, word).telescoped


def alcove_inequality(lam: LambdaParam, case: ShiftCase) -> bool:
    """The alcove inequality of lam's coset (ShiftSystem.alcove)."""
    table = _cosets(case)
    return table.alcove(table.index(lam.key()))


def w0_shift(lam: LambdaParam, case: ShiftCase) -> Vec:
    """w0 ^ lam, computed along the canonical word and checked against the
    closed formula for the shift map (once per coset, see conditions)."""
    table = _cosets(case)
    return case.rs.from_labels(table.conditions(table.index(lam.key()))[2])


def screening_degree(i: int, lam: LambdaParam, case: ShiftCase) -> int | None:
    """Number of screening-current insertions in direction i, normalized into
    1..bound-1 for the digit bound p / x_i with x_i = p * (x, alpha_i^vee);
    None marks the sigma_i-fixed case (residue 0).  The screening pairing
    p * (lam + x, alpha_i^vee) / x_i is k_i - bound_i * bullet_i on the
    digits, so the degree is the digit modulo its bound."""
    s = lam.digits[i] % _grid(case)[1][i]
    if (s == 0) != is_fixed(i, lam, case):
        raise AssertionError("zero residue off a fixed point" if s == 0
                             else "fixed point with a nonzero residue")
    return s or None


# ---------------------------------------------------------------------------
# the verification report
# ---------------------------------------------------------------------------

class ShiftReport:
    """A layout's counts, failure records and rows: the layout's own
    ShiftSystem.rows, not copied, once the checks pass, and () before."""

    def __init__(self, case_id: str, counts: dict, rows: tuple):
        self.case_id, self.counts, self.rows = case_id, counts, rows
        self.failures: list = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_id,
            "counts": self.counts,
            "failures": self.failures,
            "weak": [{"lambda": k, "ok": wk} for k, wk, _, _, _ in self.rows],
            "strong": [{"lambda": k, "ok": st} for k, _, st, _, _ in self.rows],
            "alcove": [{"lambda": k, "ok": al} for k, _, _, al, _ in self.rows],
            "w0_shift": [{"lambda": k, "value": list(sh)} for k, _, _, _, sh in self.rows],
        }

    def to_csv(self) -> str:
        rows = ["lambda,weak,strong,alcove,w0_shift"]
        rows += [f"\"{k}\",{int(wk)},{int(st)},{int(al)},\"{list(sh)}\""
                 for k, wk, st, al, sh in self.rows]
        return "\n".join(rows) + "\n"


def _fail(report: ShiftReport, check: str, label: str, **witness):
    report.failures.append({"check": check, "lambda": label, **witness})


def _repro(case: ShiftCase, *command: str) -> str:
    """The shiftlab command with the case's flags."""
    return (f"shiftlab {' '.join(command)} --algebra {case.rs.lie_type} "
            f"--variant {case.variant.value} --m {case.m}")


def verify_axioms(case: ShiftCase) -> ShiftReport:
    """The shift-map axioms (_verify) with reproducible witnesses, and when
    they pass the layout's rows.  They run once per layout, shared by a super
    case and its Ramond case; each call gets a copy of the counts and failures."""
    table = _cosets(case)
    if table._report is None:
        table._report = _verify(table)
    report = ShiftReport(case.case_id(), dict(table._report.counts),
                         table.rows if table._report.ok else ())
    report.failures = [{k: list(v) if isinstance(v, list) else v for k, v in f.items()}
                       for f in table._report.failures]
    return report


@lru_cache(maxsize=None)
def _coroots(rs: RootSystem) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(simple-root, coroot coordinates ell_j beta_j / ell(beta)) of each
    positive root beta, ell being the length classes of liealg._close_roots."""
    return tuple((beta, tuple(e * b // n for e, b in zip(rs.ell, beta)))
                 for beta, n in _close_roots(rs.cartan, rs.ell).items() if min(beta) >= 0)


def _root_word(cartan, beta: tuple[int, ...], negative: int) -> tuple[int, list]:
    """(i, word of a w with w^-1 alpha_i = beta, or -beta if negative): a
    positive root beta reflected at a simple root it pairs positively with
    descends to alpha_i; w is the reflections' product, times s_i for -beta."""
    word = []
    while sum(beta) > 1:
        j, c = next((j, c) for j, c in enumerate(sum(map(mul, r, beta)) for r in cartan) if c > 0)
        beta, word = beta[:j] + (beta[j] - c,) + beta[j + 1:], [j] + word
    return beta.index(1), [beta.index(1)] * negative + word


def _verify(table: ShiftSystem) -> ShiftReport:
    """The checks of verify_axioms on one layout, without W: counts and
    failures.  Per coset, the identity acts and shifts trivially; per simple
    direction, the simple shift's dichotomy and its sum with the moved
    coset's.  Label i of w ^ lambda = ceil(w(u)/p) - 1 (ShiftSystem.carry) is t(beta)
    := ((u, beta^vee) - 1) // p, beta = w^-1 alpha_i; s_i w > w exactly when
    beta > 0, and every root is some w^-1 alpha_i.  So "ascent => pairing >=
    0, descent => pairing < 0" over Lambda x W x Pi is "t(beta) >= 0 exactly
    when beta > 0" over Lambda x Phi, with a w of beta as the witness
    (_root_word).  The cocycle holds identically for that closed form; left
    is that the simple shifts compose by it to the direct shift at every
    prefix of w0's canonical word (_walked).  Per coset, 1 + 3 r + 2 N + N
    checks, N = |Phi+| (counts["checks"])."""
    case, rs, roots, word = table.case, table.rs, _coroots(table.rs), table.w0_word()
    report = ShiftReport(case.case_id(), {
        "lambdas": len(table._u), "weyl": weyl_order(rs.lie_type), "rank": case.rank,
        "checks": len(table._u) * (1 + 3 * (case.rank + len(roots)))}, ())
    for l_idx, (b_idx, u) in enumerate(zip(table._b, table._u)):
        label = table.label(l_idx)
        if table.carry(b_idx, u) != (l_idx, (0,) * case.rank):
            _fail(report, "identity", label)
        act, shift = table.simple(l_idx)
        for i, col in enumerate(table.cols):
            fixed, up_i = act[i] == l_idx, shift[i]
            if fixed and up_i != tuple(-c for c in col):
                _fail(report, "fixed-shift", label, i=i + 1, got=str(rs.from_labels(up_i)))
            elif not fixed and up_i[i] != -1:
                _fail(report, "pairing-minus-one", label, i=i + 1, got=str(up_i[i]))
            k, partner = -2 if fixed else -1, table.simple(act[i])[1][i]
            if any(u + v != k * c for u, v, c in zip(up_i, partner, col)):
                _fail(report, "pair-sum", label, i=i + 1)
        for (beta, _), pair in zip(roots, table.root_shifts(l_idx)):
            for negative, t in enumerate(pair):
                if (t < 0) != negative:
                    i, w = _root_word(rs.cartan, beta, negative)
                    _fail(report, "descent-negative" if negative else "ascent-nonnegative",
                          label, i=i + 1, word=w, pairing=str(t))
        if (bad := table._walked(l_idx)) is not None:
            _fail(report, "cocycle", label, i=word[-1 - bad] + 1,
                  word=list(word[len(word) - bad:]))
    return report


def condition_report(case: ShiftCase, all_words: bool = False) -> ShiftReport:
    """Weak/strong/alcove tables, with the strong <=> alcove equivalence
    enforced; with all_words, a coset whose canonical strong verdict is not
    every reduced word's (check_strong_all_words) is a failure record.  It
    reads no Weyl group."""
    table = _cosets(case)
    report = ShiftReport(case.case_id(), {
        "lambdas": len(table._u), "weyl": weyl_order(case.rs.lie_type),
        "checks": 3 * len(table._u), "all_words": all_words}, table.rows)
    for l_idx, (label, _, strong, alc, got) in enumerate(report.rows):
        _, _, shift, telescoped = table.conditions(l_idx)
        if all_words and strong != all(t == 0 for t, _ in table.root_shifts(l_idx)):
            _fail(report, "strong-word-dependence", label)
        if strong != alc:
            _fail(report, "strong-alcove-mismatch", label, strong=strong, alcove=alc)
        if telescoped != strong:
            _fail(report, "strong-alt-mismatch", label)
        if strong:
            # the closed form of w0 ^ lambda: a non-fixed coset's simple
            # shifts pair with their own coroot to -1, which telescopes to
            # -rho in both families; a frozen digit, strong only in rank 1
            # (digit = p), gives -alpha_1 by the fixed-point rule
            frozen = l_idx in table.simple(l_idx)[0]
            if frozen and case.rank != 1:
                raise AssertionError(f"strong coset {label} has a frozen digit")
            want = tuple(-c for c in table.cols[0]) if frozen else (-1,) * case.rank
            if shift != want:
                _fail(report, "w0-shift-target", label, got=list(got))
    return report
