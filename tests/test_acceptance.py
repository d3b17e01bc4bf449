"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer/rational equality); run standalone via

    pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction
from itertools import product

from oracles import (
    alternating_sum,
    dominant_alphas,
    dot_action,
    strong_on_every_word,
    strong_w0_target,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
)

from shiftlab.characters import (
    multiplet_char,
    verma_char_super,
    walg_vacuum_oracle,
    weight_space_char,
)
from shiftlab.alcove import (
    WallReductionError,
    closed_form_y_super,
    y_alpha,
)
from shiftlab.qseries import QSeries
from shiftlab.shift import (
    alcove_inequality,
    enumerate_lambda,
    make_case,
    verify_axioms,
    w0_shift,
)

SWEEP_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


def sweep_cases(max_m=3, include_ramond=True):
    for name in SWEEP_TYPES:
        for m in range(1, max_m + 1):
            yield make_case(name, "nonsuper", m)
            if name.startswith("B"):
                yield make_case(name, "super", m)
                if include_ramond:
                    yield make_case(name, "ramond", m)


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_axiom_suite():
    t0 = time.time()
    total_checks = 0
    failures = []
    for case in sweep_cases():
        report = verify_axioms(case)
        total_checks += report.counts["checks"]
        if not report.ok:
            failures.append((case.case_id(), report.failures[:2]))
    elapsed = time.time() - t0
    _report(1, not failures and elapsed < 60,
            f"shift-system axioms, {total_checks} checks over "
            f"{len(list(sweep_cases()))} cases in {elapsed:.1f}s "
            f"(target < 60s); failures: {failures}")


def test_criterion_2_strong_alcove_equivalence():
    cases = list(sweep_cases(include_ramond=False)) + \
        [make_case("B1", "super", m) for m in (1, 2, 3)]
    mismatches = []
    checked = 0
    for case in cases:
        for lam in enumerate_lambda(case):
            checked += 1
            if strong_on_every_word(lam, case) != alcove_inequality(lam, case):
                mismatches.append((case.case_id(), lam.label()))
    _report(2, not mismatches,
            f"strong condition (every reduced word of w0) <=> alcove "
            f"inequality on {checked} cosets; discrepancies: {mismatches}")


def test_criterion_3_w0_shift_on_strong_region():
    bad = []
    strong_count = 0
    wall_count = 0
    for case in sweep_cases(include_ramond=False):
        for lam in enumerate_lambda(case):
            if not alcove_inequality(lam, case):
                continue
            strong_count += 1
            target = strong_w0_target(lam, case)
            if target != vneg(case.rs.rho):
                wall_count += 1
            if w0_shift(lam, case) != target:
                bad.append((case.case_id(), lam.label()))
    _report(3, not bad,
            f"w0-shift equals -rho on {strong_count} strong cosets "
            f"(-rho = -rho_check for the simply-laced members; the "
            f"{wall_count} rank-1 frozen-digit walls give -alpha per the "
            f"fixed-point axiom); mismatches: {bad}")


def test_criterion_4_triplet_vacuum():
    case = make_case("A1", "nonsuper", 2)
    lam0 = enumerate_lambda(case)[0]
    got = multiplet_char(vzero(1), lam0, case, 50)
    # independent oracle: partitions into parts >= 2 by direct DP
    n = 50
    table = [1] + [0] * n
    for part in range(2, n + 1):
        for k in range(part, n + 1):
            table[k] += table[k - part]
    ok = (case.central_charge == -2
          and got.base == Fraction(1, 12)
          and list(got.coeffs) + [0] * (n + 1 - len(got.coeffs)) == table)
    _report(4, ok,
            "triplet vacuum at p=2 equals q^(1/12) * (parts >= 2 partition "
            f"series) through q^50; central charge {case.central_charge}")


def test_criterion_5_walg_vacuum_coincidence():
    grid = [("A1", "nonsuper", 2), ("A1", "nonsuper", 3), ("A2", "nonsuper", 2),
            ("B2", "nonsuper", 2), ("B2", "nonsuper", 3), ("G2", "nonsuper", 3),
            ("B1", "super", 2), ("B1", "super", 3)]
    bad = []
    for name, variant, m in grid:
        case = make_case(name, variant, m)
        got = multiplet_char(vzero(case.rank), enumerate_lambda(case)[0], case, 30)
        want = walg_vacuum_oracle(case, 30)
        if not got.same_series(want):
            bad.append(case.case_id())
    _report(5, not bad,
            f"vacuum multiplet character = principal W-(super)algebra product "
            f"oracle to order 30 on {len(grid)} cases (exact integers); "
            f"mismatches: {bad}")


def test_criterion_6_walls_and_antisymmetry():
    cases = [make_case("A1", "nonsuper", 2), make_case("A2", "nonsuper", 2),
             make_case("B2", "nonsuper", 2), make_case("B2", "super", 3)]
    wall_checked = wall_bad = anti_checked = anti_bad = 0
    for case in cases:
        rs = case.rs
        lam = enumerate_lambda(case)[0]
        elems = rs.enumerate_weyl()
        for coords in product(range(-2, 3), repeat=rs.rank):
            if sum(abs(c) for c in coords) > 4:
                continue
            beta = vadd(tuple(Fraction(c) for c in coords), lam.bullet_up)
            total = alternating_sum(case, lam, beta, 10)
            shifted = vadd(beta, rs.rho)
            if any(rs.pairing(shifted, a) == 0 for a in rs.positive_roots):
                wall_checked += 1
                if not total.is_zero:
                    wall_bad += 1
            for tau in elems:
                anti_checked += 1
                lhs = alternating_sum(
                    case, lam, dot_action(case, tau, beta), 10)
                rhs = total if tau.length % 2 == 0 else -total
                if not lhs.same_series(rhs):
                    anti_bad += 1
    _report(6, wall_bad == 0 and anti_bad == 0 and wall_checked > 0,
            f"{wall_checked} wall points all vanish; Weyl antisymmetry exact "
            f"on {anti_checked} (tau, beta) pairs")


def test_criterion_7_positivity():
    grid = [("A1", "nonsuper", 2), ("A1", "nonsuper", 3), ("A2", "nonsuper", 2),
            ("A2", "nonsuper", 3), ("B2", "nonsuper", 2), ("B2", "nonsuper", 3),
            ("G2", "nonsuper", 3), ("B1", "super", 2), ("B1", "super", 3),
            ("B2", "super", 2), ("B2", "super", 3)]
    checked = 0
    bad = []
    for name, variant, m in grid:
        case = make_case(name, variant, m)
        alphas = dominant_alphas(case.rs, 4)
        for lam in enumerate_lambda(case):
            if not alcove_inequality(lam, case):
                continue
            for alpha in alphas:
                checked += 1
                ch = multiplet_char(alpha, lam, case, 30)
                if any(c < 0 for c in ch.coeffs):
                    bad.append((case.case_id(), lam.label(),
                                [str(x) for x in alpha]))
    _report(7, not bad and checked > 0,
            f"all coefficients nonnegative integers on {checked} strong "
            f"(alpha, lambda) pairs to order 30; violations: {bad}")


def test_criterion_8_verma_identity():
    bad = []
    checked = 0
    for name in ("B1", "B2"):
        for m in (1, 2, 3):
            case = make_case(name, "super", m)
            alphas = dominant_alphas(case.rs, 3)
            for lam in enumerate_lambda(case):
                for alpha in alphas:
                    checked += 1
                    mu = vscale(case.p, vsub(lam.value, alpha))
                    got = verma_char_super(mu, case, 30)
                    want = weight_space_char(lam, vadd(alpha, lam.bullet_up),
                                             case, 30)
                    if not got.same_series(want):
                        bad.append((case.case_id(), lam.label()))
    _report(8, not bad,
            f"super Verma character = weight-space character, term by term to "
            f"order 30, on {checked} (lambda, alpha) pairs (ranks 1-2, m <= 3); "
            f"mismatches: {bad}")


def test_criterion_9_alcove_closed_forms():
    bad = []
    checked = 0
    empty = 0
    for name in ("B1", "B2"):
        for m in (1, 2, 3):
            case = make_case(name, "super", m)
            rs = case.rs
            alphas = dominant_alphas(rs, 3)
            for b_idx in range(len(rs.minuscule)):
                for alpha in alphas:
                    try:
                        y = y_alpha(alpha, b_idx, case)  # digit independence inside
                    except WallReductionError:
                        empty += 1
                        continue
                    checked += 1
                    cf = closed_form_y_super(alpha, b_idx, case)
                    if y != cf:
                        bad.append((case.case_id(), b_idx,
                                    [str(x) for x in alpha]))
    # digit independence for the untwisted family at rank <= 2
    for name, m in (("A2", 2), ("B2", 2), ("B2", 3), ("G2", 3)):
        case = make_case(name, "nonsuper", m)
        for b_idx in range(len(case.rs.minuscule)):
            for alpha in dominant_alphas(case.rs, 3):
                try:
                    y_alpha(alpha, b_idx, case)
                    checked += 1
                except WallReductionError:
                    empty += 1
    _report(9, not bad and checked > 0,
            f"chamber reducers match the closed forms t_(-alpha-rho_check) and "
            f"t_(-alpha-rho_check)*(w0*w0_J) on {checked} inputs (the latter is "
            f"single simple reflection at rank 1; rank 2 is verified against "
            f"the unique regular reducer), with digit "
            f"independence enforced; {empty} empty strong regions skipped; "
            f"mismatches: {bad}")


def test_criterion_10_performance_floor():
    import random
    rng = random.Random(5)
    n = 5001
    a = QSeries.make(0, 1, [rng.randint(-99, 99) for _ in range(n)])
    b = QSeries.make(0, 1, [rng.randint(-99, 99) for _ in range(n)])
    t0 = time.time()
    prod = a.mul(b)
    elapsed = time.time() - t0
    spot = sum(a.coeffs[i] * b.coeffs[2500 - i] for i in range(2501))
    ok = elapsed < 1.0 and prod.coeff(2500) == spot
    _report(10, ok,
            f"grid-order-5000 series multiplication in {elapsed * 1000:.0f} ms "
            f"(target < 1000 ms), exact big-integer coefficients")
