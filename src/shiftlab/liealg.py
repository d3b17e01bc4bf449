"""Exact root-system, lattice, and Weyl-group layer for the finite simple Lie types.

Everything is computed exactly, over ``fractions.Fraction`` and integers; no
floating point enters at any stage.  The root-system record is built and
stored on integers (the Cartan matrix, its adjugate, the roots with their
length classes, the Dynkin labels of the weights its readers use); its
``Fraction`` vectors in the simple-root basis, whose pairings reduce to exact
linear algebra against the Gram matrix, are derived on first read.  A Weyl
element is its lex-minimal reduced word together with the integer Dynkin
labels of w(rho); it acts by the simple reflections along its word.

Normalization: the invariant bilinear form is scaled so long roots have
squared length 2.  B1 is admitted as the rank-1 member of the B series; by
series convention its single root is short (squared length 1, lacing 2),
which is what the odd-lattice constructions downstream require.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

Vec = tuple[Fraction, ...]
IntMat = tuple[tuple[int, ...], ...]

_SERIES = "ABCDEFG"

_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}

_WEYL_ORDER_EXCEPTIONAL = {
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
    "F4": 1152,
    "G2": 12,
}

DEFAULT_WEYL_CAP = 10**6
DEFAULT_WORD_CAP = 10**4


class InvalidTypeError(ValueError):
    """Raised for (series, rank) pairs that do not name a simple Lie algebra."""


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


# ---------------------------------------------------------------------------
# small exact linear algebra helpers
# ---------------------------------------------------------------------------

def reflect_labels(a: tuple[int, ...], i: int,
                   col: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Dynkin labels of sigma_i(mu) from those ``a`` of mu; ``col`` holds the
    nonzero labels (k, c) of alpha_i, i.e. of column i of the Cartan matrix
    (RootSystem.reflect_cols)."""
    c = a[i]
    if not c:
        return a
    a = list(a)
    for k, y in col:
        a[k] -= c * y
    return tuple(a)


@lru_cache(maxsize=None)
def _reflect_cols(cartan: IntMat) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(tuple((k, row[i]) for k, row in enumerate(cartan) if row[i])
                 for i in range(len(cartan)))


@lru_cache(maxsize=None)
def adjugate(m: IntMat) -> tuple[IntMat, int]:
    """(adj, det) of a square integer matrix whose leading principal minors
    are nonzero, as those of every finite-type Cartan matrix are, so that
    m^-1 = adj / det.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [m | I]: every
    division is exact, and the left half ends as det * I, the right as adj.
    """
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = aug[k][k]
        if piv == 0:
            raise ValueError("a leading principal minor vanishes")
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(piv * x - f * y) // prev for x, y in zip(aug[i], aug[k])]
        prev = piv
    adj = tuple(tuple(row[n:]) for row in aug)
    if any(sum(map(mul, row, col)) != prev * (i == j)
           for i, row in enumerate(m) for j, col in enumerate(zip(*adj))):
        raise AssertionError("adjugate check m * adj = det * I failed")
    return adj, prev


# ---------------------------------------------------------------------------
# Dynkin data
# ---------------------------------------------------------------------------

class _LieTypeFields(NamedTuple):
    series: str
    rank: int


class SimpleLieType(_LieTypeFields):
    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        if len(series) != 1 or series not in _SERIES:
            raise InvalidTypeError(f"unknown series {series!r}")
        ok = {
            "A": rank >= 1,
            "B": rank >= 1,
            "C": rank >= 2,
            "D": rank >= 3,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }[series]
        if not ok:
            raise InvalidTypeError(f"invalid rank {rank} for series {series}")
        return super().__new__(cls, series, rank)

    @classmethod
    def parse(cls, s: str) -> "SimpleLieType":
        s = s.strip()
        if len(s) < 2 or s[0].upper() not in _SERIES or not s[1:].isdigit():
            raise InvalidTypeError(f"cannot parse Lie type {s!r}")
        return cls(s[0].upper(), int(s[1:]))

    def __str__(self):
        return f"{self.series}{self.rank}"


def _dynkin_edges(t: SimpleLieType) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram, 0-indexed node pairs."""
    r = t.rank
    chain = [(i, i + 1) for i in range(r - 1)]
    if t.series in ("A", "B", "C", "F", "G"):
        return chain
    if t.series == "D":
        # chain 1..r-2 with both r-1 and r attached to r-2
        return [(i, i + 1) for i in range(r - 3)] + [(r - 3, r - 2), (r - 3, r - 1)]
    # E series: chain 1-2-3-5-6(-7(-8)) with the branch node 4 attached to 3
    edges = [(0, 1), (1, 2), (2, 3), (2, 4)]
    edges += [(i, i + 1) for i in range(4, r - 1)]
    return edges


def _length_classes(t: SimpleLieType) -> tuple[int, ...]:
    """ell_i = lacing * |alpha_i|^2 / 2 per node: lacing on a long simple
    root, 1 on a short one."""
    r, lac = t.rank, _lacing(t)
    if t.series in ("A", "D", "E"):
        return (1,) * r
    if t.series == "B":
        return (lac,) * (r - 1) + (1,)
    if t.series == "C":
        return (1,) * (r - 1) + (lac,)
    if t.series == "F":
        return (lac, lac, 1, 1)
    return (lac, 1)  # G2: alpha_1 long, alpha_2 short


def _lacing(t: SimpleLieType) -> int:
    return {"A": 1, "D": 1, "E": 1, "B": 2, "C": 2, "F": 2, "G": 3}[t.series]


def weyl_order(t: SimpleLieType) -> int:
    r = t.rank
    if t.series == "A":
        return factorial(r + 1)
    if t.series in ("B", "C"):
        return 2**r * factorial(r)
    if t.series == "D":
        return 2 ** (r - 1) * factorial(r)
    return _WEYL_ORDER_EXCEPTIONAL[str(t)]


def exponents_of(t: SimpleLieType) -> tuple[int, ...]:
    r = t.rank
    if t.series == "A":
        return tuple(range(1, r + 1))
    if t.series in ("B", "C"):
        return tuple(range(1, 2 * r, 2))
    if t.series == "D":
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return _EXPONENTS[str(t)]


# ---------------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------------

class WeylElement(NamedTuple):
    """A Weyl-group element: its lex-minimal reduced word and the Dynkin
    labels of w(rho), each of which determines the element.

    ``word`` reads left to right as a composition, i.e. the last letter acts
    first on a vector.  Label i of w(rho) is negative exactly when i is a
    left descent.
    """

    word: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        raise TypeError("compose Weyl elements through RootSystem.weyl_mul")


# ---------------------------------------------------------------------------
# the root system proper
# ---------------------------------------------------------------------------

def _derived(fn):
    """A field derived from the integer data on its first read, once per
    root system."""
    return property(lru_cache(maxsize=None)(fn))


def _frac(v) -> Vec:
    return tuple(map(Fraction, v))


def _unit(r: int) -> IntMat:
    return tuple(tuple(int(j == i) for j in range(r)) for i in range(r))


# the record's fields as it prints them: the Fraction vectors among them are
# derived from the integer fields on first read
FIELDS = ("lie_type", "gram", "cartan", "simple_roots", "simple_coroots", "fund_weights",
          "fund_coweights", "rho", "rho_check", "theta", "theta_s", "theta_L", "theta_L_marks",
          "lacing", "coxeter", "dual_coxeter", "dual_coxeter_L", "exponents", "positive_roots",
          "minuscule", "half_lengths", "cartan_adjugate")


class RootSystem(NamedTuple):
    """The integer root data of one type, and the Fraction vectors in the
    simple-root basis that are derived from it on their first read."""

    lie_type: SimpleLieType
    cartan: IntMat                  # cartan[i][j] = (alpha_j, alpha_i^vee)
    cartan_adjugate: tuple[IntMat, int]  # (adj, det): C^-1 = adj / det
    lacing: int
    ell: tuple[int, ...]            # lacing * |alpha_i|^2 / 2: 1 short, lacing long
    roots: tuple[tuple[int, ...], ...]   # positive roots by height, simple-root coordinates
    rho_check_labels: tuple[int, ...]    # lacing // ell_i; rho's labels are all 1
    theta_s_labels: tuple[int, ...]
    theta_L_marks: tuple[int, ...]  # theta_L = theta_s^vee = sum c_i alpha_i^vee
    minuscule_labels: tuple[tuple[int, ...], ...]  # transversal of P/Q, zero first
    coxeter: int
    dual_coxeter: int
    dual_coxeter_L: int
    exponents: tuple[int, ...]

    gram = _derived(lambda rs: tuple(tuple(Fraction(n * c, rs.lacing) for c in row)
                                     for n, row in zip(rs.ell, rs.cartan)))
    simple_roots = _derived(lambda rs: tuple(map(_frac, _unit(rs.rank))))
    simple_coroots = _derived(lambda rs: tuple(
        tuple(Fraction(rs.lacing * x, n) for x in row) for n, row in zip(rs.ell, _unit(rs.rank))))
    # the coordinates of the i-th fundamental weight form column i of C^-1;
    # those of the i-th fundamental coweight row i of gram^-1 = C^-1 D^-1
    fund_weights = _derived(lambda rs: tuple(map(rs.from_labels, _unit(rs.rank))))
    fund_coweights = _derived(lambda rs: tuple(
        tuple(Fraction(rs.lacing * c, rs.cartan_adjugate[1] * n) for c, n in zip(row, rs.ell))
        for row in rs.cartan_adjugate[0]))
    rho = _derived(lambda rs: rs.from_labels((1,) * rs.rank))
    rho_check = _derived(lambda rs: rs.from_labels(rs.rho_check_labels))
    theta = _derived(lambda rs: _frac(rs.roots[-1]))
    theta_s = _derived(lambda rs: rs.from_labels(rs.theta_s_labels))
    # the highest root of the dual system, as a coroot vector
    theta_L = _derived(lambda rs: tuple(Fraction(rs.lacing * c, n)
                                        for c, n in zip(rs.theta_L_marks, rs.ell)))
    positive_roots = _derived(lambda rs: tuple(map(_frac, rs.roots)))
    minuscule = _derived(lambda rs: tuple(map(rs.from_labels, rs.minuscule_labels)))
    half_lengths = _derived(lambda rs: tuple(Fraction(n, rs.lacing) for n in rs.ell))

    def __repr__(self) -> str:
        return f"RootSystem({', '.join(f'{k}={getattr(self, k)!r}' for k in FIELDS)})"

    def __hash__(self) -> int:
        # the type fixes every other field; hashing them all is slow
        return hash(self.lie_type)

    # -- basic pairings ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def pairing(self, mu: Vec, nu: Vec) -> Fraction:
        """(mu, nu) under the normalized invariant form."""
        if len(mu) != self.rank or len(nu) != self.rank:
            raise ValueError("rank mismatch")
        g = self.gram
        return sum(mu[i] * sum(g[i][j] * nu[j] for j in range(self.rank))
                   for i in range(self.rank))

    def norm2(self, mu: Vec) -> Fraction:
        return self.pairing(mu, mu)

    @lru_cache(maxsize=None)
    def label_form(self) -> tuple[IntMat, int]:
        """(g, n): the form on Dynkin labels, (mu, nu) = l_mu.g.l_nu / n, read
        off (omega_i, omega_j) = d_i adj_ij / det; computed once per root system."""
        adj, det = self.cartan_adjugate
        return (tuple(tuple(n * c for c in row) for n, row in zip(self.ell, adj)),
                self.lacing * det)

    def from_labels(self, labels, scale: int = 1) -> Vec:
        """Simple-root coordinates of the weight with Dynkin labels
        labels / scale."""
        adj, det = self.cartan_adjugate
        return tuple(Fraction(sum(map(mul, row, labels)), det * scale) for row in adj)

    def scaled_labels(self, mu: Vec) -> tuple[tuple[int, ...], int]:
        """(n * labels, n): the Dynkin labels of mu times the least common
        denominator n of its coordinates, in integer arithmetic."""
        if len(mu) != self.rank:
            raise ValueError(f"weight {mu} has {len(mu)} coordinates, not {self.rank}")
        n = lcm(*(x.denominator for x in mu))
        nums = [x.numerator * (n // x.denominator) for x in mu]
        return tuple(sum(map(mul, row, nums)) for row in self.cartan), n

    def integral_labels(self, mu: Vec) -> tuple[int, ...]:
        """The Dynkin labels of an integral weight, as integers."""
        labels, n = self.scaled_labels(mu)
        if any(x % n for x in labels):
            raise ValueError(f"{mu} is not an integral weight")
        return tuple(x // n for x in labels)

    def is_dominant(self, mu: Vec) -> bool:
        return min(self.scaled_labels(mu)[0]) >= 0

    def in_root_lattice(self, mu: Vec) -> bool:
        return all(x.denominator == 1 for x in mu)

    # -- Weyl group --------------------------------------------------------

    def root_labels(self) -> tuple[tuple[int, ...], ...]:
        """Dynkin labels of the simple roots: the columns of the Cartan matrix."""
        return tuple(tuple(row[i] for row in self.cartan) for i in range(self.rank))

    def reflect_cols(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero labels (k, c) of each simple root, as reflect_labels
        takes them."""
        return _reflect_cols(self.cartan)

    def reflect_along(self, word, labels: tuple[int, ...]) -> tuple[int, ...]:
        """Labels of w(mu) from those of mu, for w the product of ``word``."""
        cols = self.reflect_cols()
        for i in reversed(word):
            labels = reflect_labels(labels, i, cols[i])
        return labels

    def to_dominant(self, labels) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(the dominant labels in the W-orbit of these, the word w with
        w(dominant) = these), reflecting at the least negative label first."""
        cols, word = self.reflect_cols(), []
        while (i := next((i for i, x in enumerate(labels) if x < 0), None)) is not None:
            word.append(i)
            labels = reflect_labels(labels, i, cols[i])
        return labels, tuple(word)

    def element_from_labels(self, labels) -> WeylElement:
        """The element w with these Dynkin labels of w(rho), its lex-minimal
        reduced word read off by clearing the least left descent first."""
        labels = tuple(labels)
        top, word = self.to_dominant(labels)
        if top != (1,) * self.rank:
            raise ValueError(f"{labels} are not the labels of w(rho) for any w in W")
        return WeylElement(word, labels)

    def element_from_word(self, word) -> WeylElement:
        return self.element_from_labels(self.reflect_along(word, (1,) * self.rank))

    def identity_element(self) -> WeylElement:
        return WeylElement((), (1,) * self.rank)

    def weyl_mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.element_from_labels(self.reflect_along(a.word, b.labels))

    def weyl_inv(self, a: WeylElement) -> WeylElement:
        return self.element_from_word(a.word[::-1])

    def weyl_table(self) -> WeylTable:
        return _enumerate_weyl_cached(self)

    def enumerate_weyl(self) -> tuple[WeylElement, ...]:
        return _enumerate_weyl_cached(self).elements

    def parabolic_longest(self, nodes) -> WeylElement:
        """Longest element of the standard parabolic on the given nodes: the
        greedy ascent from the identity (rho towards -rho)."""
        nodes, cols = tuple(nodes), self.reflect_cols()
        labels = (1,) * self.rank
        while (i := next((i for i in nodes if labels[i] > 0), None)) is not None:
            labels = reflect_labels(labels, i, cols[i])
        return self.element_from_labels(labels)

    @lru_cache(maxsize=None)
    def longest_element(self) -> WeylElement:
        """w0, the element with w0(rho) = -rho, found once per root system."""
        w0 = self.element_from_labels((-1,) * self.rank)
        if w0.length != len(self.roots):
            raise AssertionError(f"w0 of {self.lie_type} has length {w0.length}")
        return w0

    def all_reduced_words(self, w: WeylElement) -> list[tuple[int, ...]]:
        """Every reduced word of w, erroring past DEFAULT_WORD_CAP words."""
        cols = self.reflect_cols()
        memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {(1,) * self.rank: [()]}

        def rec(labels: tuple[int, ...]) -> list[tuple[int, ...]]:
            if labels not in memo:
                words = []
                for i, a in enumerate(labels):
                    if a < 0:
                        words.extend((i,) + u for u in rec(reflect_labels(labels, i, cols[i])))
                    if len(words) > DEFAULT_WORD_CAP:
                        raise CapExceededError(f"more than {DEFAULT_WORD_CAP} reduced words "
                                               f"for element of length {w.length}")
                memo[labels] = words
            return memo[labels]

        return rec(w.labels)

    # -- representation dimensions -----------------------------------------

    def weyl_dim(self, labels) -> int:
        """dim of the irreducible module whose highest weight beta has these
        (nonnegative) Dynkin labels l: prod (beta + rho, a^vee) / (rho, a^vee)
        over the positive roots a.  With c_j = lacing * d_j * a_j, a multiple
        of the coroot coordinates of a, each factor is
        sum c_j (l_j + 1) / sum c_j."""
        if len(labels) != self.rank or min(labels) < 0:
            raise ValueError(f"labels {labels} are not those of a dominant weight")
        num = den = 1
        for alpha in self.roots:
            c = list(map(mul, self.ell, alpha))
            num *= sum(x * (l + 1) for x, l in zip(c, labels))
            den *= sum(c)
        dim, rest = divmod(num, den)
        if rest or dim <= 0:
            raise AssertionError(f"Weyl dimension at labels {labels} came out as {num}/{den}")
        return dim

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        def rat(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        def rvec(v: Vec) -> list[str]:
            return [rat(x) for x in v]

        return {
            "type": str(self.lie_type),
            "rank": self.rank,
            "lacing": self.lacing,
            "gram": [rvec(row) for row in self.gram],
            "cartan": [list(row) for row in self.cartan],
            "rho": rvec(self.rho),
            "rho_check": rvec(self.rho_check),
            "theta": rvec(self.theta),
            "theta_s": rvec(self.theta_s),
            "theta_L": rvec(self.theta_L),
            "coxeter": self.coxeter,
            "dual_coxeter": self.dual_coxeter,
            "dual_coxeter_L": self.dual_coxeter_L,
            "exponents": list(self.exponents),
            "num_positive_roots": len(self.roots),
            "weyl_order": weyl_order(self.lie_type),
            "minuscule": [rvec(v) for v in self.minuscule],
            "fund_weights": [rvec(v) for v in self.fund_weights],
            "fund_coweights": [rvec(v) for v in self.fund_coweights],
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _close_roots(cartan: IntMat, lengths: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Every root in integer simple-root coordinates, with its length class:
    the closure of the simple roots under the simple reflections, which keep
    the class ``lengths[i]`` of the simple root each orbit starts from."""
    seen = dict(zip(_unit(len(cartan)), lengths))
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for mu, n in frontier:
            for i, row in enumerate(cartan):
                if c := sum(map(mul, row, mu)):
                    img = mu[:i] + (mu[i] - c,) + mu[i + 1:]
                    if img not in seen:
                        seen[img] = n
                        nxt.append((img, n))
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def build_root_system(t: SimpleLieType) -> RootSystem:
    """Construct the exact root-system record for a valid type.

    The build runs on integers: the Cartan matrix, its adjugate over its
    determinant for C^-1, and the roots with their length classes
    lacing*|a|^2/2 (1 for short roots, lacing for long ones).  The record's
    Fraction vectors are derived from these on first read."""
    r, lac, ell = t.rank, _lacing(t), _length_classes(t)
    # C_ij = (alpha_j, alpha_i^vee) = -max(ell_i, ell_j) / ell_i on an edge
    links = {(i, j): max(ell[i], ell[j]) for e in _dynkin_edges(t) for i, j in (e, e[::-1])}
    if any(v % ell[i] for (i, _), v in links.items()):
        raise AssertionError(f"Cartan matrix of {t} is not integral")
    cartan = tuple(tuple(2 if i == j else -links.get((i, j), 0) // ell[i] for j in range(r))
                   for i in range(r))
    adj, det_c = adjugate(cartan)

    roots = _close_roots(cartan, ell)
    positive = sorted((a for a in roots if min(a) >= 0), key=lambda a: (sum(a), a))
    theta = positive[-1]
    short = min(roots[a] for a in positive)
    theta_s = max((a for a in positive if roots[a] == short), key=sum)
    # the coroot of a has coroot coordinates ell_i a_i / ell(a); theta_L is
    # the highest coroot, the highest root of the dual system
    top = max(positive, key=lambda a: sum(map(mul, ell, a)) // roots[a])
    marks_L = [divmod(n * x, roots[top]) for n, x in zip(ell, top)]
    minuscule = ((0,) * r,) + tuple(u for u, (c, _) in zip(_unit(r), marks_L) if c == 1)
    # dual Coxeter numbers: 1 + (rho, theta^vee), the sum of the coroot
    # coordinates of theta, and 1 + (rho_check, theta_L)/lacing, the height
    # of top over its length class
    dc, dc_rem = divmod(sum(map(mul, ell, theta)), roots[theta])
    lhv, lhv_rem = divmod(sum(top), roots[top])

    exps = exponents_of(t)
    order = 1
    for e in exps:
        order *= e + 1
    if (2 * len(positive) != len(roots) or len(minuscule) != det_c
            or any(rest for _, rest in marks_L) or dc_rem or lhv_rem
            or sum(exps) != len(positive) or order != weyl_order(t)):
        raise AssertionError(f"inconsistent root data for {t}")

    return RootSystem(
        lie_type=t,
        cartan=cartan,
        cartan_adjugate=(adj, det_c),
        lacing=lac,
        ell=ell,
        roots=tuple(positive),
        rho_check_labels=tuple(lac // n for n in ell),
        theta_s_labels=tuple(sum(map(mul, row, theta_s)) for row in cartan),
        theta_L_marks=tuple(c for c, _ in marks_L),
        minuscule_labels=minuscule,
        coxeter=sum(theta) + 1,
        dual_coxeter=dc + 1,
        dual_coxeter_L=lhv + 1,
        exponents=exps,
    )


class WeylTable(NamedTuple):
    """W laid out by its enumeration: the elements, and their positions."""

    elements: tuple[WeylElement, ...]
    index: dict[tuple[int, ...], int]          # labels of w(rho) -> position
    steps: tuple[tuple[int, int], ...]         # element k >= 1 is s_i * element j: (i, j)


@lru_cache(maxsize=None)
def _enumerate_weyl_cached(rs: RootSystem) -> WeylTable:
    """W by length, each element keyed by the Dynkin labels of w(rho).

    Prepending the least generator first to a level in lex order yields the
    next level in lex order of lex-minimal words; s_i w is longer than w
    exactly when label i of w(rho) is positive."""
    order = weyl_order(rs.lie_type)
    if order > DEFAULT_WEYL_CAP:
        raise CapExceededError(
            f"|W({rs.lie_type})| = {order} exceeds the enumeration cap {DEFAULT_WEYL_CAP}")
    r = rs.rank
    cols = rs.reflect_cols()
    ident = rs.identity_element()
    index = {ident.labels: 0}
    out, steps, level = [ident], [], range(1)
    while level:
        start = len(out)
        for i in range(r):
            for j in level:
                w = out[j]
                if w.labels[i] > 0:
                    key = reflect_labels(w.labels, i, cols[i])
                    if index.setdefault(key, len(out)) == len(out):
                        out.append(WeylElement((i,) + w.word, key))
                        steps.append((i, j))
        level = range(start, len(out))
    if len(out) != order:
        raise AssertionError(f"enumerated {len(out)} elements of W({rs.lie_type}), "
                             f"expected {order}")
    return WeylTable(tuple(out), index, tuple(steps))
