"""Characters of screening kernels on rescaled root lattices.

All series are CFT-normalized: a module character starts at
``q^(Delta_min - c/24)``.  Lattice directions are kept unscaled (a physical
lattice vector is sqrt(p) times the stored one), which keeps every exponent
rational.

The alternating Weyl sums are evaluated in two ways, via the dot action on
the fixed coset and via the * action on moved cosets, each a walk over W on
integer Dynkin labels; the two sparse numerators are checked against each
other before one of them is multiplied by the shared tail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import floor, gcd, isqrt, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .liealg import (
    CapExceededError,
    Vec,
    vadd,
    vscale,
    vsub,
)
from .qseries import (DEFAULT_GRID_CAP, FermionKind, GridBoundError, QSeries,
                      _eta_inv_fermion, check_order)
from .shift import (
    LambdaParam,
    ShiftCase,
    Variant,
    _cosets,
    _grid,
    system,
)


class UnsupportedCaseError(ValueError):
    """Raised where no exact construction is available (and none is claimed)."""


# ---------------------------------------------------------------------------
# conformal weights of lattice points
# ---------------------------------------------------------------------------

def fock_delta(nu: Vec, case: ShiftCase) -> Fraction:
    """Conformal weight (p/2)|nu|^2 - p(nu, gamma) of the lattice point
    sqrt(p)*nu under the conformal vector shifted by the background charge."""
    rs, p = case.rs, case.p
    return Fraction(p, 2) * rs.norm2(nu) - p * rs.pairing(nu, case.gamma)


def norm_shift(case: ShiftCase) -> Fraction:
    """Constant p|gamma|^2/2 completing fock_delta to the squared norm
    |p*nu - p*gamma|^2 / 2p."""
    return case.p * case.rs.norm2(case.gamma) / 2


class FockPoint(NamedTuple):
    nu: Vec          # unscaled lattice direction, nu in lambda + Q
    coset: LambdaParam
    weight: Vec      # Cartan weight: ceil(-nu) against the simple coroots


def fock_point(case: ShiftCase, lam: LambdaParam, beta: Vec) -> FockPoint:
    """The unique lattice point of the lam-module with Cartan weight beta:
    beta's labels are checked against lam's class in P/Q, the box's ceiling
    check having run once per coset when the coset table was built."""
    table = _cosets(case)
    table.check_point(case.rs.integral_labels(beta), table.index[lam.key()])
    return FockPoint(vsub(vadd(lam.value, lam.bullet_up), beta), lam, beta)


# ---------------------------------------------------------------------------
# the Ramond sector
# ---------------------------------------------------------------------------

def _check_ramond(case: ShiftCase) -> None:
    if not case.variant.is_super:
        raise UnsupportedCaseError("Ramond weights exist only for the super family")
    if case.rank > 2:
        raise UnsupportedCaseError(
            f"Ramond weights of {case.case_id()} (rank {case.rank}) are not "
            f"checked against any independent construction")


def ramond_delta(nu: Vec, case: ShiftCase) -> Fraction:
    """Twisted-sector conformal weight of the point sqrt(p)*nu: the spectral
    flow nu -> nu + fund_weight_r/p of the untwisted weight, plus the
    fermionic ground-state energy 1/16."""
    _check_ramond(case)
    flow = vscale(Fraction(1, case.p), case.rs.fund_weights[case.rank - 1])
    return fock_delta(vadd(nu, flow), case) + Fraction(1, 16)


# ---------------------------------------------------------------------------
# weight-space characters
# ---------------------------------------------------------------------------

_TAIL_KIND = {Variant.NONSUPER: None, Variant.SUPER: FermionKind.NS_CH,
              Variant.SUPER_RAMOND: FermionKind.R_TWISTED}


def _tail(case: ShiftCase, order: int) -> QSeries:
    """eta(q)^-rank, times the free-fermion character in the super family."""
    return _eta_inv_fermion(case.rank, _TAIL_KIND[case.variant], order)


def weight_space_char(lam: LambdaParam, beta: Vec, case: ShiftCase,
                      order: int) -> QSeries:
    """CFT-normalized character of the Cartan weight space at ``beta``."""
    pt = fock_point(case, lam, beta)
    twisted = case.variant is Variant.SUPER_RAMOND
    delta = ramond_delta(pt.nu, case) if twisted else fock_delta(pt.nu, case)
    base = delta - case.central_charge / 24
    tail = _tail(case, order)
    return tail.qshift(base - tail.base)


def _check_multiplet_inputs(case: ShiftCase, alpha: Vec, lam: LambdaParam) -> tuple[int, ...]:
    """The Dynkin labels of beta = alpha + bullet, for alpha in Q with beta
    dominant."""
    rs = case.rs
    if rs.in_root_lattice(alpha):
        labels = rs.integral_labels(vadd(alpha, lam.bullet_up))
        if min(labels) >= 0:
            return labels
    raise ValueError(f"alpha {','.join(map(str, alpha))} is not a root-lattice weight "
                     f"with alpha + bullet dominant")


# ---------------------------------------------------------------------------
# the integer orbit walk
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _form(case: ShiftCase):
    """(quad, lin, den, const): a term whose point nu has u = p*nu - gamma'
    with integer Dynkin labels u (gamma' = p*gamma) sits at
    q^(const + (u.quad.u + lin.u)/den); lin is the Ramond flow correction,
    zero elsewhere."""
    rs, p, r = case.rs, case.p, case.rank
    # fock_delta = |u|^2/2p - norm_shift, with the form read on Dynkin labels:
    # (omega_i, omega_j) = d_i (C^-1)_ij
    adj, det = rs.cartan_adjugate
    quad = [[d * c / (2 * p * det) for c in row] for d, row in zip(rs.half_lengths, adj)]
    lin = [Fraction(0)] * r
    const = -norm_shift(case) - case.central_charge / 24
    if case.variant is Variant.SUPER_RAMOND:
        # the flow nu -> nu + fund_weight_r/p moves u by the unit label e_r
        _check_ramond(case)
        lin = [2 * c for c in quad[r - 1]]
        const += quad[r - 1][r - 1] + Fraction(1, 16)
    den = lcm(*(c.denominator for c in lin + sum(quad, [])))
    return (tuple(tuple(int(c * den) for c in row) for row in quad),
            tuple(int(c * den) for c in lin), den, const)


def _walk(case: ShiftCase, lam: LambdaParam, labels: tuple[int, ...]):
    """One pass over W (enumeration order) for the alternating sum at the
    weight beta with these Dynkin labels: the labels t of w(beta + rho) and
    the exponent numerators (see _form) of the dot terms, u = b_lam - p*t;
    b = p*labels(box + x).

    Q being W-invariant, a dot numerator Q(u) + lin.u is c0 - g.t with
    g = p*(2 quad.b + lin) and c0 = Q(b) + lin.b + p^2 Q(t_id).  Its point
    w o beta = w(beta + rho) - rho stays in beta + Q, whose class key
    (ShiftSystem checks it on the simple roots) and box are those of beta, so
    fock_point's checks run once, on beta."""
    sys, (quad, lin, _, _), p = system(case), _form(case), case.p
    l_idx = sys.index[lam.key()]
    sys.check_point(labels, l_idx)
    b = sys._start[l_idx][1]
    top = tuple(c + 1 for c in labels)
    qb = [sum(map(mul, row, b)) for row in quad]
    g = [p * (2 * x + y) for x, y in zip(qb, lin)]
    c0 = sum(map(mul, b, qb)) + sum(map(mul, lin, b)) \
        + p * p * sum(x * sum(map(mul, row, top)) for x, row in zip(top, quad))
    orbit = sys.orbit(top)
    return orbit, [c0 - sum(map(mul, g, t)) for t in orbit]


def _star_walk(case: ShiftCase, lam: LambdaParam, labels: tuple[int, ...]) -> list[int]:
    """The exponent numerators of the * terms over W, in enumeration order:
    v = b_{w*lam} - p*labels(beta + rho - w^lam), with the full form and
    fock_point's coset check (check_point) per term.  The Ramond flow adds
    w(e_r) to the moved point: Q(v + w(e_r)) - Q(e_r) = Q(v) + 2 w(e_r).quad.v."""
    sys, (quad, _, _, _), p, r = system(case), _form(case), case.p, case.rank
    act, shift = sys.row(sys.index[lam.key()])
    flows = (sys.orbit(tuple(int(i == r - 1) for i in range(r)))
             if case.variant is Variant.SUPER_RAMOND else None)
    mov = []
    for w, (target, up) in enumerate(zip(act, shift)):
        point = list(map(sub, labels, up))
        sys.check_point(point, target)
        v = [x - p * (y + 1) for x, y in zip(sys._start[target][1], point)]
        qv = [sum(map(mul, row, v)) for row in quad]
        mov.append(sum(map(mul, v, qv)) + (2 * sum(map(mul, flows[w], qv)) if flows else 0))
    return mov


def _numerator(case: ShiftCase, exps: list[int], signs=None) -> dict[int, int]:
    """Exponent numerator -> coefficient (signs (-1)^len by default), zeros kept."""
    num = dict.fromkeys(exps, 0)
    for e, s in zip(exps, signs or [(-1) ** w.length for w in system(case).weyl]):
        num[e] += s
    return num


def _times_tail(case: ShiftCase, num: dict[int, int], tail: QSeries) -> QSeries:
    """The sparse numerator times the shared tail, up to the cutoff of its
    lowest term, cancelled or not."""
    _, _, den, const = _form(case)
    lo = min(num)
    base = const + Fraction(lo, den)
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


def _alternating_sum(case: ShiftCase, lam: LambdaParam, beta: Vec, order: int) -> QSeries:
    """sum over W of (-1)^len q^(weight of the dot-moved Cartan weight),
    sharing one tail series across the orbit."""
    num = _numerator(case, _walk(case, lam, case.rs.integral_labels(beta))[1])
    return _times_tail(case, num, _tail(case, order))


def _checked_numerator(case: ShiftCase, lam: LambdaParam, labels: tuple[int, ...],
                       dot: list[int], tail: QSeries) -> dict[int, int]:
    """The dot route's numerator at the weight with these labels, after
    checking the * route against it."""
    dot, mov = _numerator(case, dot), _numerator(case, _star_walk(case, lam, labels))
    # the routes share the tail, whose leading coefficient is nonzero: their
    # series agree up to the smaller cutoff exactly when the numerators do
    top = min(min(dot), min(mov)) + floor((tail.cutoff - tail.base) * _form(case)[2])
    if ({e: c for e, c in dot.items() if c and e <= top}
            != {e: c for e, c in mov.items() if c and e <= top}):
        raise AssertionError("the two alternating-sum routes disagree")
    return dot


def multiplet_char(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                   order: int) -> QSeries:
    """Character of the multiplicity space attached to (alpha, lam)."""
    labels = _check_multiplet_inputs(case, alpha, lam)
    tail = _tail(case, order)
    num = _checked_numerator(case, lam, labels, _walk(case, lam, labels)[1], tail)
    return _times_tail(case, num, tail)


def multiplet_superchar(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                        order: int) -> QSeries:
    """Signed (supertrace) variant; only meaningful in the super family."""
    if case.variant is not Variant.SUPER:
        raise UnsupportedCaseError("supercharacters require the super variant")
    labels = _check_multiplet_inputs(case, alpha, lam)
    r, d = case.rank, case.rs.half_lengths[-1]
    orbit, dot = _walk(case, lam, labels)
    # extra sign floor((w o beta, alpha_r)), where w o beta = w(beta + rho) - rho
    signs = [-1 if (w.length + d.numerator * (top[r - 1] - 1) // d.denominator) % 2 else 1
             for w, top in zip(system(case).weyl, orbit)]
    return _times_tail(case, _numerator(case, dot, signs),
                       _eta_inv_fermion(r, FermionKind.NS_SCH, order))


def multiplet_ramond_char(alpha: Vec, lam: LambdaParam, case: ShiftCase,
                          order: int) -> QSeries:
    """Twisted-sector character (rank <= 2, see ramond_delta)."""
    if case.variant is not Variant.SUPER_RAMOND:
        raise UnsupportedCaseError("Ramond characters require the ramond variant")
    return multiplet_char(alpha, lam, case, order)


# ---------------------------------------------------------------------------
# full construction characters
# ---------------------------------------------------------------------------

def _height_bound(case: ShiftCase, lam: LambdaParam, cutoff: Fraction) -> int:
    """Height past which no dominant alpha can contribute below the cutoff.

    For dominant alpha of height h, every term exponent is at least
    (1/2p)(p*|alpha + bullet + rho| - B)^2 - shift - c/24 with a fixed B, and
    |alpha + bullet + rho| >= (h + s0)/|rho_check| by Cauchy-Schwarz.  Minimal
    weights therefore grow quadratically in h; a rational scan, with B and
    |rho_check| rounded up, finds the first height clearing it by 2.
    """
    def sqrt_above(x: Fraction) -> Fraction:  # within 2^-32 of sqrt(x)
        return Fraction(isqrt((x.numerator << 64) // x.denominator) + 1, 1 << 32)

    rs, p = case.rs, case.p
    box_x = vadd(vadd(lam.value, lam.bullet_up), case.x)
    b0 = sqrt_above(rs.norm2(vscale(p, box_x)))
    if case.variant is Variant.SUPER_RAMOND:
        b0 += sqrt_above(rs.norm2(rs.fund_weights[rs.rank - 1]))
    rho_chk = sqrt_above(rs.norm2(rs.rho_check))
    s0 = rs.pairing(vadd(lam.bullet_up, rs.rho), rs.rho_check)
    target = cutoff + 2 + norm_shift(case) + case.central_charge / 24
    for h in range(1, 10**6):
        lower = max(Fraction(0), p * (h + s0) / rho_chk - b0)
        if lower * lower / (2 * p) > target:
            return h
    raise RuntimeError("height bound scan failed to terminate")  # pragma: no cover


# ft_char refuses to sum more dominant weights than this below one cutoff
ALPHA_CAP = 10**4


def ft_char(lam: LambdaParam, case: ShiftCase, order: int) -> QSeries:
    """Character of the full construction: the dimension-weighted sum of the
    multiplicity-space characters over dominant root-lattice weights.

    Dominant weights are scanned by height up to a proven quadratic-growth
    bound; each is included only if the minimal conformal weight of its orbit
    clears the cutoff with a safety margin of 2 (an exact per-weight check).
    The included numerators, each checked against its * route, are summed
    and multiplied by the shared tail once.
    """
    check_order(order)
    rs = case.rs
    cutoff = order - case.central_charge / 24
    _, _, den, const = _form(case)
    bullet = _grid(case)[2][lam.bullet_index]
    num: dict[int, int] = {}  # zero coefficients kept: they fix the cutoff
    tail = None
    n_terms = 0
    for height in range(_height_bound(case, lam, cutoff) + 1):
        for alpha in dominant_shell(rs, height):
            labels = tuple(map(add, alpha, bullet))
            _, dot = _walk(case, lam, labels)
            if const + Fraction(min(dot), den) > cutoff + 2:
                continue
            n_terms += 1
            if n_terms > ALPHA_CAP:
                raise CapExceededError(
                    f"more than {ALPHA_CAP} dominant weights below the cutoff")
            if tail is None:
                tail = _tail(case, order)
            dim = rs.weyl_dim(labels)
            for e, c in _checked_numerator(case, lam, labels, dot, tail).items():
                num[e] = num.get(e, 0) + dim * c
    if not num:
        return QSeries.zero(cutoff)
    return _times_tail(case, num, tail).truncate(cutoff)


@lru_cache(maxsize=None)
def dominant_shell(rs, height: int) -> tuple[tuple[int, ...], ...]:
    """The Dynkin labels l >= 0 of the dominant root-lattice weights of this
    height, in lexicographic order of their root coordinates adj.l / det.

    Column j of the adjugate sums to h_j = det * height(omega_j), so the
    height fixes sum h_j l_j = det * height, and with it the last label; the
    weight lies in Q exactly when adj.l = 0 mod det."""
    adj, det = rs.cartan_adjugate
    *h, h_last = [sum(col) for col in zip(*adj)]
    found = []
    for head in product(*(range(det * height // x + 1) for x in h)):
        last, rest = divmod(det * height - sum(map(mul, h, head)), h_last)
        coords = [sum(map(mul, row, (*head, last))) for row in adj]
        if last >= 0 and not rest and not any(x % det for x in coords):
            found.append((coords, (*head, last)))
    return tuple(labels for _, labels in sorted(found))


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
    mu = p*(lam - alpha) matches the weight space at alpha + bullet."""
    if case.variant is not Variant.SUPER:
        raise UnsupportedCaseError("Verma characters are for the super variant")
    v = vsub(mu, vscale(case.p, case.gamma))
    exponent = case.rs.norm2(v) / (2 * case.p) - norm_shift(case) \
        - case.central_charge / 24
    tail = _tail(case, order)
    return tail.qshift(exponent - tail.base)
