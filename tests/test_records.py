"""Public records: immutable NamedTuples with stable reprs, and an import set
free of dataclasses."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from shiftlab.alcove import AffineWeight, AffineWeylElt, dominant_reduce
from shiftlab.liealg import InvalidTypeError, SimpleLieType, build_root_system
from shiftlab.qseries import QSeries
from shiftlab.shift import LambdaParam, lambda_from, make_case

A1 = ("RootSystem(lie_type=SimpleLieType(series='A', rank=1), gram=((Fraction(2, 1),),), "
      "cartan=((2,),), simple_roots=((Fraction(1, 1),),), simple_coroots=((Fraction(1, 1),),), "
      "fund_weights=((Fraction(1, 2),),), fund_coweights=((Fraction(1, 2),),), "
      "rho=(Fraction(1, 2),), rho_check=(Fraction(1, 2),), theta=(Fraction(1, 1),), "
      "theta_s=(Fraction(1, 1),), theta_L=(Fraction(1, 1),), theta_L_marks=(1,), "
      "lacing=1, coxeter=2, "
      "dual_coxeter=2, dual_coxeter_L=2, exponents=(1,), positive_roots=((Fraction(1, 1),),), "
      "minuscule=((Fraction(0, 1),), (Fraction(1, 2),)), half_lengths=(Fraction(1, 1),), "
      "cartan_adjugate=(((1,),), 2))")
LAM = ("LambdaParam(bullet_index=0, bullet_up=(Fraction(0, 1),), digits=(1,), "
       "value=(Fraction(0, 1),))")
WEIGHT = ("AffineWeight(finite=(Fraction(1, 1),), level=Fraction(2, 1), "
          "delta_coeff=Fraction(0, 1))")


def records():
    """(record, an equal record built separately, its repr) for every public
    record type.  The reprs are those the frozen dataclasses printed, apart
    from RootSystem's theta_L_marks and cartan_adjugate fields."""
    case = make_case("A1", "nonsuper", 2)
    rs = case.rs
    lam = lambda_from(case, 0, [1])
    weight = AffineWeight((Fraction(1),), Fraction(2), Fraction(0))
    w = build_root_system(SimpleLieType("B", 2)).element_from_word((0,))
    rows = [
        (SimpleLieType("B", 2), SimpleLieType.parse("b2"), "SimpleLieType(series='B', rank=2)"),
        (w, w._replace(), "WeylElement(word=(0,), labels=(-1, 3))"),
        (rs, build_root_system.__wrapped__(rs.lie_type), A1),
        (case, make_case("A1", "nonsuper", 2),
         f"ShiftCase(rs={A1}, variant=<Variant.NONSUPER: 'nonsuper'>, m=2, p=2, "
         "x=(Fraction(1, 4),), gamma=(Fraction(1, 4),), central_charge=Fraction(-2, 1))"),
        (lam, LambdaParam(*lam), LAM),
        (QSeries.make(Fraction(-1, 24), 1, [1, 0, 2], 3),
         QSeries.make(Fraction(-1, 24), 2, [1, 0, 0, 0, 2, 0, 0], 3),
         "QSeries(base=Fraction(-1, 24), grid=1, coeffs=(1, 0, 2), cutoff=Fraction(3, 1))"),
        (weight, AffineWeight((Fraction(1),), Fraction(2), Fraction(0)), WEIGHT),
        (AffineWeylElt(rs.element_from_word((0,)), (Fraction(2),)),
         AffineWeylElt(rs.element_from_word((0,)), (Fraction(2),)),
         "AffineWeylElt(finite_part=WeylElement(word=(0,), labels=(-1,)), "
         "translation=(Fraction(2, 1),))"),
        (dominant_reduce(weight, case), dominant_reduce(weight, case)._replace(),
         "ReduceResult(elt=AffineWeylElt(finite_part=WeylElement(word=(), labels=(1,)), "
         f"translation=(Fraction(0, 1),)), weight={WEIGHT}, on_wall=False)"),
    ]
    return [pytest.param(*row, id=type(row[0]).__name__) for row in rows]


@pytest.mark.parametrize("rec,twin,text", records())
def test_record_semantics(rec, twin, text):
    assert repr(rec) == text
    assert rec == twin and hash(rec) == hash(twin) and rec is not twin
    assert rec == tuple(rec)
    for name in (rec._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_record_guards():
    with pytest.raises(InvalidTypeError):
        SimpleLieType("C", 1)
    with pytest.raises(InvalidTypeError):
        SimpleLieType("H", 3)
    w = build_root_system(SimpleLieType("A", 2)).element_from_word((0,))
    with pytest.raises(TypeError):
        w * w
    with pytest.raises(TypeError):
        2 * QSeries.make(0, 1, [1, 2], 3)


def test_cli_import_leaves_out_dataclasses():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, shiftlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
