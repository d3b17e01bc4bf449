"""Characters of screening kernels on rescaled root lattices.

All series are CFT-normalized: a module character starts at
``q^(Delta_min - c/24)``.  Lattice directions are kept unscaled (a physical
lattice vector is sqrt(p) times the stored one), which keeps every exponent
rational.  Every term is priced by one integer quadratic form on Dynkin
labels (``_form``) over its tail, whose base is the whole constant.

The alternating Weyl sums run on integer Dynkin labels: the dot action on the
fixed coset and the * action on moved cosets both climb from the identity
term to the cutoff with no Weyl table, and the two sparse numerators are
checked against each other before one is multiplied by the shared tail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm
from operator import add, mul, sub

from .liealg import CapExceededError, Vec, reflect_labels
from .qseries import (DEFAULT_GRID_CAP, FermionKind, GridBoundError, QSeries,
                      _eta_inv_fermion, check_order)
from .shift import (
    LambdaParam,
    ShiftCase,
    Variant,
    _cosets,
    system,
)


class UnsupportedCaseError(ValueError):
    """Raised where no exact construction is available (and none is claimed)."""


def fock_delta(nu: Vec, case: ShiftCase) -> Fraction:
    """Conformal weight (p/2)|nu|^2 - p(nu, gamma) of the lattice point
    sqrt(p)*nu under the conformal vector shifted by the background charge."""
    rs, p = case.rs, case.p
    return Fraction(p, 2) * rs.norm2(nu) - p * rs.pairing(nu, case.gamma)


# ---------------------------------------------------------------------------
# the pricing form and weight-space characters
# ---------------------------------------------------------------------------

_TAIL_KIND = {Variant.NONSUPER: None, Variant.SUPER: FermionKind.NS_CH,
              Variant.SUPER_RAMOND: FermionKind.R_TWISTED}


def _tail(case: ShiftCase, order: int) -> QSeries:
    """eta(q)^-rank, times the free-fermion character in the super family."""
    return _eta_inv_fermion(case.rank, _TAIL_KIND[case.variant], order)


@lru_cache(maxsize=None)
def _form(case: ShiftCase):
    """(quad, den, flow): a term whose point nu has u = p*nu - p*gamma with
    integer Dynkin labels u sits at q^(Q(u + flow)/den) times its tail, where
    Q(v) = v.quad.v = den |v|^2/2p.  flow is the Ramond spectral flow
    nu -> nu + omega_r/p, the unit label e_r, and zero elsewhere.

    The tail's base is the whole constant: the background charge lowers
    Delta by p|gamma|^2/2 and c/24 by the same, so Delta - c/24 keeps only
    -c0/24 (c0 = rank, plus 1/2 with the NS fermion) and, in the Ramond
    sector, the fermionic ground-state energy 1/16."""
    (g, n), p, r = case.rs.label_form(), case.p, case.rank
    flow = (0,) * r
    if case.variant is Variant.SUPER_RAMOND:
        if r > 2:
            raise UnsupportedCaseError(f"Ramond weights of {case.case_id()} (rank {r}) are not "
                                       f"checked against any independent construction")
        flow = tuple(int(i == r - 1) for i in range(r))
    # quad = g/(2pn) over the least common denominator of its entries
    k = gcd(2 * p * n, *(c for row in g for c in row))
    return tuple(tuple(c // k for c in row) for row in g), 2 * p * n // k, flow


def _value(quad, v) -> int:
    """Q(v) = v.quad.v."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, quad))


def _coset_vector(case: ShiftCase, l_idx: int) -> list[int]:
    """b = p*labels(box + x) + flow of coset l_idx (see _form)."""
    return list(map(add, _cosets(case)._u[l_idx], _form(case)[2]))


def _identity_point(case: ShiftCase, b, labels) -> list[int]:
    """v = p*labels(beta + rho) - b: Q(v) prices beta's identity dot term."""
    return [case.p * (y + 1) - x for x, y in zip(b, labels)]


def weight_space_char(lam: LambdaParam, beta: Vec, case: ShiftCase,
                      order: int) -> QSeries:
    """CFT-normalized character of the Cartan weight space at ``beta``, priced
    as beta's identity dot term.  beta's labels are checked against lam's
    class in P/Q; the box's ceiling holds by the layout's digit ranges."""
    table, (quad, den, _) = _cosets(case), _form(case)
    l_idx = table.index(lam.key())
    b, labels = _coset_vector(case, l_idx), case.rs.integral_labels(beta)
    table.check_point(labels, l_idx)
    return _tail(case, order).qshift(Fraction(_value(quad, _identity_point(case, b, labels)), den))


def _check_multiplet_inputs(case: ShiftCase, alpha: Vec,
                            lam: LambdaParam) -> tuple[tuple[int, ...], int]:
    """(the Dynkin labels of beta = alpha + bullet, for alpha in Q with beta
    dominant; the number of lam's coset)."""
    rs, table = case.rs, _cosets(case)
    if rs.in_root_lattice(alpha):
        labels = tuple(map(add, rs.integral_labels(alpha), rs.minuscule_labels[lam.bullet_index]))
        if min(labels) >= 0:
            table.check_point(labels, l_idx := table.index(lam.key()))
            return labels, l_idx
    raise ValueError(f"alpha {','.join(map(str, alpha))} is not a root-lattice weight "
                     f"with alpha + bullet dominant")


# ---------------------------------------------------------------------------
# the orbit walks
# ---------------------------------------------------------------------------

def _below(case: ShiftCase, b, labels: tuple[int, ...], top: int):
    """(e, sign, t) per point t = labels(w(beta + rho)), beta dominant with
    these labels, whose dot term's numerator e = Q(b - p*t) (see _form) is at
    most top; sign is (-1)^len(w) and b is the coset vector.  As Q is
    W-invariant, s_i moves e by t_i * 2p alpha_i.quad.b, which is not negative
    on an ascent (t_i > 0) for b dominant, so the climb from labels + 1 stops
    above top (any other b is refused: the climb would drop terms).  Each
    point is reached once, from s_i of it, i its least descent."""
    quad, p, cols = _form(case)[0], case.p, case.rs.reflect_cols()
    rise = [2 * p * sum(c * sum(map(mul, quad[k], b)) for k, c in col) for col in cols]
    if min(rise) < 0:
        raise AssertionError(f"coset vector {b} is not dominant: pruning would drop terms")
    e = _value(quad, _identity_point(case, b, labels))
    stack = [(e, 1, tuple(c + 1 for c in labels))] if e <= top else []
    while stack:
        e, sign, t = stack.pop()
        yield e, sign, t
        for i, x in enumerate(t):
            if x > 0 and e + x * rise[i] <= top:
                up = reflect_labels(t, i, cols[i])
                if i == 0 or min(up[:i]) > 0:
                    stack.append((e + x * rise[i], -sign, up))


def _star_walk(case: ShiftCase, lam: LambdaParam, labels: tuple[int, ...]) -> list[int]:
    """The exponent numerators of the * terms over W, in enumeration order:
    v = b_{w*lam} - p*labels(beta + rho - w^lam), with the full form and the
    coset check (check_point) per term.  The Ramond flow adds w(e_r) to the
    moved point: Q(v + w(e_r)) = Q(v) + 2 w(e_r).quad.v + Q(e_r)."""
    sys, (quad, _, flow), p, r = system(case), _form(case), case.p, case.rank
    act, shift = sys.row(sys.index(lam.key()))
    flows = sys.orbit(flow) if case.variant is Variant.SUPER_RAMOND else None
    q_flow = quad[r - 1][r - 1]
    mov = []
    for w, (target, up) in enumerate(zip(act, shift)):
        point = list(map(sub, labels, up))
        sys.check_point(point, target)
        v = [x - p * (y + 1) for x, y in zip(sys._u[target], point)]
        qv = [sum(map(mul, row, v)) for row in quad]
        mov.append(sum(map(mul, v, qv))
                   + (2 * sum(map(mul, flows[w], qv)) + q_flow if flows else 0))
    return mov


def _star_below(case: ShiftCase, l_idx: int, labels: tuple[int, ...], top: int):
    """(e, sign) per * term (priced as in _star_walk, check_point included)
    whose numerator e is at most top, with no Weyl table: w climbs from the
    identity by w -> s_i w, reached at its least left descent (the least
    negative label of t = w(rho), as in _below), carrying w * lam, w ^ lam by
    the cocycle (s_i w) ^ lam = s_i(w ^ lam) + s_i ^ (w * lam) (ShiftSystem.simple),
    w(e_r) and the sign.  As v = w(b) - p(beta + rho), an ascent does not lower
    e for b dominant (_below checks it), so a term above top ends its branch."""
    table, (quad, _, flow), p, r = _cosets(case), _form(case), case.p, case.rank
    cols = table.reflect_cols
    stack = [(l_idx, (0,) * r, flow, 1, (1,) * r)]
    while stack:
        target, up, flow, sign, t = stack.pop()
        point = list(map(sub, labels, up))
        table.check_point(point, target)
        e = _value(quad, [x - p * (y + 1) + f
                          for x, y, f in zip(table._u[target], point, flow)])
        if e > top:
            continue
        yield e, sign
        act, shift = table.simple(target)
        for i, x in enumerate(t):
            if x > 0:
                nxt = reflect_labels(t, i, cols[i])
                if i == 0 or min(nxt[:i]) > 0:
                    stack.append((act[i], tuple(map(add, reflect_labels(up, i, cols[i]), shift[i])),
                                  reflect_labels(flow, i, cols[i]), -sign, nxt))


def _numerator(case: ShiftCase, exps: list[int]) -> dict[int, int]:
    """Exponent numerator -> coefficient over W, signs (-1)^len, zeros kept."""
    num = dict.fromkeys(exps, 0)
    for e, w in zip(exps, system(case).weyl):
        num[e] += -1 if w.length % 2 else 1
    return num


def _times_tail(case: ShiftCase, num: dict[int, int], tail: QSeries) -> QSeries:
    """The sparse numerator times the shared tail, up to the cutoff of its
    lowest term, cancelled or not; a numerator e moves the tail by e/den."""
    den = _form(case)[1]
    lo = min(num)
    base = tail.base + Fraction(lo, den)
    live = [(e - lo, c) for e, c in num.items() if c]
    grid = lcm(tail.grid, den // gcd(den, *(e for e, _ in live)))
    if grid > DEFAULT_GRID_CAP:
        raise GridBoundError(f"required exponent grid {grid} exceeds cap {DEFAULT_GRID_CAP}")
    out = [0] * (floor((tail.cutoff - tail.base) * grid) + 1)
    step = grid // tail.grid
    for e, c in live:
        off = e * grid // den
        end = min(len(out), off + len(tail.coeffs) * step)
        out[off:end:step] = [x + c * t for x, t in zip(out[off:end:step], tail.coeffs)]
    return QSeries.make(base, grid, out, base + tail.cutoff - tail.base)


def _alternating_sum(case: ShiftCase, lam: LambdaParam, labels: tuple[int, ...],
                     order: int) -> QSeries:
    """sum over W of (-1)^len q^(weight of the dot-moved Cartan weight) at the
    weight with these labels, by the * route: it shows a wall's cancellation."""
    return _times_tail(case, _numerator(case, _star_walk(case, lam, labels)),
                       _tail(case, order))


def _reach(case: ShiftCase, b, labels: tuple[int, ...], tail: QSeries) -> int:
    """The last numerator reaching a series over this tail: the identity term's plus its span."""
    quad, den = _form(case)[:2]
    return _value(quad, _identity_point(case, b, labels)) + floor((tail.cutoff - tail.base) * den)


def multiplet_char(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                   order: int) -> QSeries:
    """Character of the multiplicity space attached to (alpha, lam)."""
    labels, l_idx = _check_multiplet_inputs(case, alpha, lam)
    tail, b, dot, mov = _tail(case, order), _coset_vector(case, l_idx), {}, {}
    top = _reach(case, b, labels, tail)
    for e, sign, _ in _below(case, b, labels, top):
        dot[e] = dot.get(e, 0) + sign
    for e, sign in _star_below(case, l_idx, labels, top):
        mov[e] = mov.get(e, 0) + sign
    # the routes share the tail, whose leading coefficient is nonzero: their
    # series agree up to top exactly when the numerators do
    if any(dot.get(e, 0) != mov.get(e, 0) for e in dot.keys() | mov.keys()):
        raise AssertionError("the two alternating-sum routes disagree")
    return _times_tail(case, dot, tail)


def multiplet_superchar(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                        order: int) -> QSeries:
    """Signed (supertrace) variant; only meaningful in the super family."""
    if case.variant is not Variant.SUPER:
        raise UnsupportedCaseError("supercharacters require the super variant")
    labels, l_idx = _check_multiplet_inputs(case, alpha, lam)
    r, rs, b = case.rank, case.rs, _coset_vector(case, l_idx)
    # the NS supercharacter tail has the NS character tail's base
    tail, num = _eta_inv_fermion(r, FermionKind.NS_SCH, order), {}
    # extra sign floor((w o beta, alpha_r)), where w o beta = w(beta + rho) - rho
    for e, sign, t in _below(case, b, labels, _reach(case, b, labels, tail)):
        flip = rs.ell[-1] * (t[r - 1] - 1) // rs.lacing % 2
        num[e] = num.get(e, 0) + (-sign if flip else sign)
    return _times_tail(case, num, tail)


def multiplet_ramond_char(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                          order: int) -> QSeries:
    """Twisted-sector character (rank <= 2, see _form)."""
    if case.variant is not Variant.SUPER_RAMOND:
        raise UnsupportedCaseError("Ramond characters require the ramond variant")
    return multiplet_char(alpha, lam, case, order)


# ---------------------------------------------------------------------------
# full construction characters
# ---------------------------------------------------------------------------

def dominant_down_set(rs, inside) -> list[tuple[int, ...]]:
    """The Dynkin labels l >= 0 of the dominant root-lattice weights with
    inside(l), for an inside that stays true when a label is lowered.  Each l
    is reached once from 0, by raising a label at or after the last one
    raised, and a branch ends at its first l outside; l lies in Q exactly
    when adj.l = 0 mod det."""
    (adj, det), zero = rs.cartan_adjugate, (0,) * rs.rank
    found, stack = [], [(zero, 0)] if inside(zero) else []
    while stack:
        labels, last = stack.pop()
        if not any(sum(map(mul, row, labels)) % det for row in adj):
            found.append(labels)
        for j in range(last, rs.rank):
            if inside(up := (*labels[:j], labels[j] + 1, *labels[j + 1:])):
                stack.append((up, j))
    return found


def _weights(case: ShiftCase, b, bullet, top: int) -> list[tuple[int, ...]]:
    """The labels of beta = alpha + bullet, alpha dominant in Q, whose identity
    term Q(v), v = p*labels(beta + rho) - b, is at most top.  v0 = v + flow =
    p*(alpha + 1) - u is not negative and quad's entries are positive, so Q(v0)
    grows in every label; as ||v|| >= ||v0|| - ||flow||, a walk's branch ends once
    Q(v0) > (sqrt(top) + sqrt(Q(flow)))^2, which is Q(v) > top outside the Ramond sector."""
    quad, _, flow = _form(case)
    u, q_flow = [x - f - case.p * y for x, f, y in zip(b, flow, bullet)], _value(quad, flow)

    def inside(alpha):
        gap = _value(quad, _identity_point(case, u, alpha)) - top - q_flow
        return gap <= 0 or gap * gap <= 4 * top * q_flow

    betas = (tuple(map(add, alpha, bullet)) for alpha in dominant_down_set(case.rs, inside))
    return [beta for beta in betas
            if not q_flow or _value(quad, _identity_point(case, b, beta)) <= top]


# ft_char refuses to sum more dominant weights than this below one cutoff
ALPHA_CAP = 10**4


def ft_char(lam: LambdaParam, case: ShiftCase, order: int) -> QSeries:
    """Character of the full construction: the dimension-weighted sum of the
    multiplicity-space characters over dominant root-lattice weights.

    As b and beta + rho are dominant, each sum's least term is its identity
    term: a weight is included exactly when that term clears the cutoff with
    a safety margin of 2, and these weights form a down-set on the labels
    (_weights).  The included weights' dot terms within that margin (_below),
    weighted by dimension, are summed and multiplied by the shared tail once;
    no Weyl table is read.
    """
    check_order(order)
    rs, table = case.rs, _cosets(case)
    l_idx = table.index(lam.key())
    cutoff, tail = order - case.central_charge / 24, _tail(case, order)
    # a numerator e puts its term at q^(tail base + e/den)
    top = floor((cutoff + 2 - tail.base) * _form(case)[1])
    b, bullet = _coset_vector(case, l_idx), rs.minuscule_labels[lam.bullet_index]
    kept = _weights(case, b, bullet, top)
    if len(kept) > ALPHA_CAP:
        raise CapExceededError(f"more than {ALPHA_CAP} dominant weights below the cutoff")
    num: dict[int, int] = {}  # zero coefficients kept: they fix the cutoff
    for labels in kept:
        table.check_point(labels, l_idx)
        dim = rs.weyl_dim(labels)
        for e, sign, _ in _below(case, b, labels, top):
            num[e] = num.get(e, 0) + dim * sign
    if not num:
        return QSeries.zero(cutoff)
    return _times_tail(case, num, tail).truncate(cutoff)


# ---------------------------------------------------------------------------
# independent oracles and Verma characters
# ---------------------------------------------------------------------------

def walg_vacuum_oracle(case: ShiftCase, order: int) -> QSeries:
    """Vacuum character of the corresponding principal W-(super)algebra,
    built directly from its free generators.

    Nonsuper: one bosonic tower per exponent e_j, modes from e_j + 1 up.
    Super rank 1: the rank-1 super-Virasoro vacuum (one even generator with
    modes from 2, one odd with half-integer modes from 3/2).  Higher super
    ranks have no independently constructed oracle and are rejected.
    """
    check_order(order)
    rs = case.rs
    base = -case.central_charge / 24
    if case.variant is Variant.NONSUPER:
        coeffs = [1] + [0] * order
        for e in rs.exponents:
            # multiply by 1/prod_{n > e} (1 - q^n)
            for n in range(e + 1, order + 1):
                for k in range(n, order + 1):
                    coeffs[k] += coeffs[k - n]
        return QSeries.make(base, 1, coeffs, base + order)
    if case.variant is not Variant.SUPER or rs.rank != 1:
        raise UnsupportedCaseError(
            "no independent vacuum oracle beyond the rank-1 super case")
    n2 = 2 * order
    coeffs = [1] + [0] * n2
    for n in range(2, order + 1):  # even generator, integer modes >= 2
        for k in range(2 * n, n2 + 1):
            coeffs[k] += coeffs[k - 2 * n]
    for twok in range(3, n2 + 1, 2):  # odd generator, modes 3/2, 5/2, ...
        for k in range(n2, twok - 1, -1):
            coeffs[k] += coeffs[k - twok]
    return QSeries.make(base, 2, coeffs, base + order)


def verma_char_super(mu: Vec, case: ShiftCase, order: int) -> QSeries:
    """Verma-module character over the super W-algebra, parametrized so that
    mu = p*(lam - alpha) matches the weight space at alpha + bullet: its
    lowest weight is fock_delta(mu/p) - c/24, read through the Gram form."""
    if case.variant is not Variant.SUPER:
        raise UnsupportedCaseError("Verma characters are for the super variant")
    delta = fock_delta(tuple(Fraction(x, case.p) for x in mu), case)
    tail = _tail(case, order)
    return tail.qshift(delta - case.central_charge / 24 - tail.base)
