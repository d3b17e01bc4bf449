"""CLI surface: exit codes, flags, determinism, golden regression."""

import ast
import csv
import io
import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import test_readme

from shiftlab import alcove, cli
from shiftlab.alcove import AffineWeylElt
from shiftlab.cli import main
from shiftlab.liealg import DEFAULT_WEYL_CAP, weyl_order
from shiftlab.shift import ShiftReport, _cosets, make_case

GOLDEN = pathlib.Path(__file__).parent / "golden"
HUGE = str(2**64)  # past the largest index, 2**63 - 1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment for a `python -m shiftlab.cli` child on this checkout."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_info_exit_and_shape(capsys):
    code, out, _ = run(capsys, "info", "--algebra", "B2")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "B2"
    assert data["theta_s"] == ["1/1", "1/1"]


def test_info_skips_enumeration_for_e8(capsys):
    code, out, _ = run(capsys, "info", "--algebra", "E8")
    assert code == 0
    data = json.loads(out)
    assert data["enumerated"] is False
    assert data["weyl_order"] == 696729600


def test_usage_errors(capsys):
    code, _, err = run(capsys, "info", "--algebra", "Z9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "char", "--algebra", "A2", "--variant", "super",
                       "--m", "2", "--lambda", "0,1,1")
    assert code == 2
    code, _, err = run(capsys, "char", "--algebra", "A1", "--m", "2",
                       "--lambda", "0,1,7")
    assert code == 2
    code, _, err = run(capsys, "char", "--algebra", "A1", "--m", "2",
                       "--lambda", "0,1", "--kind", "ramond")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_check_axioms_pass(capsys):
    code, out, _ = run(capsys, "check", "axioms", "--algebra", "G2",
                       "--variant", "nonsuper", "--m", "1")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_failing_axioms_report_exits_1_in_csv(capsys):
    # a failing report leaves its tables empty; csv still prints its header,
    # and the exit code is the verification failure's.  The layout's cached
    # simple shift of coset 1 along alpha_1 is corrupted, on a fresh layout
    _cosets.cache_clear()
    try:
        _cosets(make_case("B2", "nonsuper", 2)).simple(1)[1][0] = (1, 0)
        code, out, _ = run(capsys, "check", "axioms", "--algebra", "B2", "--m", "2",
                           "--format", "csv")
    finally:
        _cosets.cache_clear()
    assert code == 1
    assert out == "lambda,weak,strong,alcove,w0_shift\n"


@pytest.mark.parametrize("algebra", ["E7", "E8"])
def test_check_axioms_reaches_e7_and_e8(capsys, algebra):
    # the axioms read no Weyl table, so W past the enumeration cap is no bar
    code, out, _ = run(capsys, "check", "axioms", "--algebra", algebra, "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["counts"]["weyl"] > DEFAULT_WEYL_CAP


def test_check_weak_strong(capsys):
    code, out, _ = run(capsys, "check", "weak-strong", "--algebra", "B2",
                       "--variant", "nonsuper", "--m", "2")
    assert code == 0
    data = json.loads(out)
    strong = {row["lambda"]: row["ok"] for row in data["strong"]}
    alc = {row["lambda"]: row["ok"] for row in data["alcove"]}
    assert strong == alc


def test_check_alcove_independence(capsys):
    code, out, _ = run(capsys, "check", "alcove-independence", "--algebra", "B2",
                       "--variant", "super", "--m", "3")
    assert code == 0


@pytest.mark.parametrize("argv,checks", [
    (["--algebra", "B2", "--variant", "super", "--m", "2"], 3),
    (["--algebra", "B2", "--variant", "super", "--m", "3"], 6),
    (["--algebra", "A2", "--m", "2"], 12),
])
def test_alcove_independence_counts_the_checks_it_runs(capsys, monkeypatch, argv, checks):
    # a (bullet, alpha) pair counts only when y_alpha runs on it, which needs
    # a strong coset with that bullet: B2 super m=2 has one on one bullet of two
    calls, y_alpha = [], alcove.y_alpha
    monkeypatch.setattr(alcove, "y_alpha", lambda *args: calls.append(args) or y_alpha(*args))
    code, out, _ = run(capsys, "check", "alcove-independence", *argv)
    assert code == 0 and json.loads(out)["counts"] == {"checks": checks} == {"checks": len(calls)}


@pytest.mark.parametrize("argv,case_id", [
    (["--algebra", "E7", "--m", "1"], "E7:nonsuper:m=1"),
    (["--algebra", "D4", "--m", "1"], "D4:nonsuper:m=1"),
    (["--algebra", "B3", "--variant", "super", "--m", "2"], "B3:super:m=2"),
])
def test_alcove_independence_without_a_strong_coset_exits_2(capsys, monkeypatch, argv, case_id):
    # no bullet has a strong coset, so no y_alpha could run: a report of 0
    # checks would read as a pass, so the layout is refused before any alpha
    # is listed, with one error line that names it
    def refuse(*_):
        raise AssertionError("an alpha was listed")

    monkeypatch.setattr(cli, "_alphas", refuse)
    monkeypatch.setattr(alcove, "y_alpha", refuse)
    code, out, err = run(capsys, "check", "alcove-independence", *argv)
    assert (code, out, err) == (2, "", f"error: no bullet of {case_id} has a strong coset, "
                                       f"so alcove-independence has no y_alpha to check\n")


def test_alcove_independence_csv(capsys, monkeypatch):
    # a passing report prints the header alone and exits 0
    code, out, _ = run(capsys, "check", "alcove-independence", "--algebra", "B2",
                       "--m", "2", "--format", "csv")
    assert code == 0
    assert out == "check,bullet,alpha,detail\n"
    # each failure record is one row, a closed-form mismatch with its got and
    # want as JSON in the detail; the exit code is the verification failure's
    wrong = AffineWeylElt(make_case("B1", "super", 2).rs.identity_element(), (Fraction(7),))
    monkeypatch.setattr(alcove, "closed_form_y_super", lambda alpha, b, case: wrong)
    argv = ["check", "alcove-independence", "--algebra", "B1", "--variant", "super",
            "--m", "2"]
    code, out, _ = run(capsys, *argv)
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "bullet", "alpha", "detail"]
    assert [row[:3] for row in rows[1:]] == \
        [[f["check"], str(f["bullet"]), ",".join(f["alpha"])] for f in failures]
    assert [json.loads(row[3]) for row in rows[1:]] == \
        [{"got": f["got"], "want": f["want"]} for f in failures]
    # each record's repro command prints the y that its got shows
    for f in failures:
        command = shlex.split(f["repro"])
        assert command[:2] == ["shiftlab", "alcove"]
        code, out, _ = run(capsys, *command[1:])
        assert code == 0 and json.loads(out)["y"] == f["got"]


def test_alcove_independence_records_digit_dependence(capsys, monkeypatch):
    # a reducer that is the identity on every input is common to no strong
    # coset whose input lies outside the chamber: the report records the
    # digit dependence, with its repro command, and exits 1
    case = make_case("B2", "super", 3)
    ident = (case.rs.identity_element(), (0, 0))
    monkeypatch.setattr(alcove, "_reduce", lambda case, a0, k: (*ident, False))
    code, out, _ = run(capsys, "check", "alcove-independence", "--algebra", "B2",
                       "--variant", "super", "--m", "3")
    failures = json.loads(out)["failures"]
    assert code == 1
    dependent = [f for f in failures if f["check"] == "digit-independence"]
    assert dependent and all("depends on the box digits" in f["detail"] for f in dependent)
    assert all(f["repro"].startswith("shiftlab alcove --algebra B2 --variant super --m 3 ")
               for f in dependent)


def test_alcove_independence_propagates_invariant_errors(capsys, monkeypatch):
    # an end point that (sigma, t) does not reproduce is a failed internal
    # check, not a digit-dependence record: exit 3 with one JSON line
    fam = alcove._family(make_case("B1", "super", 2))
    moved = fam.shift_labels
    monkeypatch.setattr(fam, "shift_labels",
                        lambda *args: tuple(x + 1 for x in moved(*args)))
    alcove._reduce.cache_clear()
    try:
        code, out, err = run(capsys, "check", "alcove-independence", "--algebra", "B1",
                             "--variant", "super", "--m", "2")
    finally:
        alcove._reduce.cache_clear()
    assert (code, out, err.count("\n")) == (3, "", 1)
    record = json.loads(err)
    assert (record["error"], record["type"]) == ("internal", "AssertionError")
    assert "left the chamber" in record["message"]


@pytest.mark.parametrize("argv,message", [
    (["alcove", "--algebra", "B2", "--lambda", "0,1,1", "--alpha", "1/2,0"],
     "--alpha 1/2,0: '1/2' is not an integer"),
    (["char", "--algebra", "A2", "--lambda", "0,1,1", "--alpha", "1.5,0"],
     "--alpha 1.5,0: '1.5' is not an integer"),
    (["char", "--algebra", "A2", "--lambda", "0,1,x"],
     "--lambda 0,1,x: 'x' is not an integer"),
])
def test_non_integer_entry_names_the_flag_and_value(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_lambda_csv(capsys):
    code, out, _ = run(capsys, "lambda", "--algebra", "A1", "--m", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,weak,strong,alcove,w0_shift"
    assert len(lines) == 5


@pytest.mark.parametrize("command", [["lambda"], ["check", "weak-strong"],
                                     ["check", "axioms"], ["check", "alcove-independence"]])
@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_csv_text_is_built_for_csv_only(capsys, monkeypatch, command, fmt):
    # with both CSV writers made to raise, a json or plain run still exits 0
    # with the same stdout: only --format csv builds the CSV text
    argv = [*command, "--algebra", "A2", "--m", "2", "--format", fmt]
    want = run(capsys, *argv)

    def refuse(*_):
        raise AssertionError(f"CSV text built for --format {fmt}")

    monkeypatch.setattr(ShiftReport, "to_csv", refuse)
    monkeypatch.setattr(cli, "_failures_csv", refuse)
    assert want[0] == 0 and run(capsys, *argv) == want


def test_verify_wchar(capsys):
    code, out, _ = run(capsys, "verify", "wchar", "--algebra", "A1",
                       "--m", "2", "--order", "50")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_verma(capsys):
    code, out, _ = run(capsys, "verify", "verma", "--algebra", "B1",
                       "--variant", "super", "--m", "2", "--order", "20")
    assert code == 0


@pytest.mark.parametrize("algebra,variant", [("A1", "nonsuper"), ("B1", "ramond")])
def test_verify_verma_outside_super_is_one_usage_error(capsys, algebra, variant):
    # the library's variant check is the only one: one line, no payload
    code, out, err = run(capsys, "verify", "verma", "--algebra", algebra,
                         "--variant", variant, "--m", "2")
    assert code == 2 and out == ""
    assert err == "error: Verma characters are for the super variant\n"


@pytest.mark.parametrize("target,check", [("wchar", "wchar"), ("walls", "wall-vanishing")])
def test_verify_failures_carry_repro(capsys, monkeypatch, target, check):
    # a vacuum oracle off by one q-power, or alternating sums that never
    # vanish, make failure records; each names the verify command with the
    # case's flags and --order, which prints the same report again
    from shiftlab import characters
    case = make_case("A2", "nonsuper", 2)
    wrong = characters.walg_vacuum_oracle(case, 6).qshift(1)
    monkeypatch.setattr(characters, "walg_vacuum_oracle", lambda case, order: wrong)
    monkeypatch.setattr(characters, "_alternating_sum", lambda *args: wrong)
    code, out, _ = run(capsys, "verify", target, "--algebra", "A2", "--m", "2", "--order", "6")
    failures = json.loads(out)["failures"]
    assert code == 1 and failures and {f["check"] for f in failures} == {check}
    repro = f"shiftlab verify {target} --algebra A2 --variant nonsuper --m 2 --order 6"
    assert {f["repro"] for f in failures} == {repro}
    assert run(capsys, *shlex.split(repro)[1:]) == (code, out, "")


def test_verify_walls(capsys):
    code, out, _ = run(capsys, "verify", "walls", "--algebra", "A2",
                       "--m", "2", "--order", "8")
    assert code == 0
    assert json.loads(out)["checks"] > 0


@pytest.mark.parametrize("m", ["2", "3"])
def test_verify_walls_ramond(capsys, m):
    # the Ramond sums are the twisted ones, and vanish on the wall weights;
    # rank 3 has no checked Ramond weights and is refused, as by char
    code, out, _ = run(capsys, "verify", "walls", "--algebra", "B2", "--variant", "ramond",
                       "--m", m)
    assert code == 0
    assert json.loads(out) == {"case": f"B2:ramond:m={m}", "target": "walls",
                               "checks": 7, "failures": []}
    code, out, err = run(capsys, "verify", "walls", "--algebra", "B3", "--variant", "ramond",
                         "--m", m)
    assert code == 2 and out == ""
    assert err.startswith("error: Ramond weights of B3") and err.count("\n") == 1


def test_char_alpha_with_dominant_beta(capsys):
    # alpha = alpha_2 on the class of w1 in A2: beta = 2w2, dominant though
    # alpha is not; the series is W at beta
    code, out, _ = run(capsys, "char", "--algebra", "A2", "--m", "1", "--alpha", "0,1",
                       "--lambda", "1,1,1", "--order", "4")
    assert code == 0
    series = json.loads(out)["series"]
    assert series["base"] == "5/4" and series["coeffs"] == ["1", "1", "3", "4", "8"]
    # a refused alpha is named as typed
    code, _, err = run(capsys, "char", "--algebra", "A2", "--m", "1", "--alpha", "1,0",
                       "--lambda", "0,1,1")
    assert code == 2
    assert err == "error: alpha 1,0 is not a root-lattice weight with alpha + bullet dominant\n"


def test_char_sch_kind(capsys):
    code, out, _ = run(capsys, "char", "--algebra", "B1", "--variant", "super",
                       "--m", "2", "--lambda", "0,1", "--kind", "sch",
                       "--order", "8")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "sch"
    assert data["strong"] is True


def test_lambda_on_e7(capsys):
    # the condition table reads no Weyl group, so lambda runs on E7, whose
    # Weyl group exceeds the enumeration cap; at m <= 2 strong <=> alcove
    # holds there only because no coset is strong and none meets the alcove
    # inequality (both sets are empty)
    code, out, _ = run(capsys, "lambda", "--algebra", "E7", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["weyl"] == 2903040 and data["failures"] == []
    assert not any(row["ok"] for row in data["strong"] + data["alcove"])


@pytest.mark.parametrize("name,order_w,coeffs", [
    ("E7", 2903040, ["1", "133", "1673", "11914"]),
    ("E8", 696729600, ["1", "248", "4124", "34752"]),
])
def test_ftchar_on_e7_e8_reads_no_weyl_group(capsys, name, order_w, coeffs):
    # ft_char climbs each alternating sum from its identity term, so it runs
    # past the enumeration cap and gives the level-1 vacuum characters; char
    # climbs both of its routes the same way, so it runs there too
    assert order_w == weyl_order(make_case(name, "nonsuper", 1).rs.lie_type) > DEFAULT_WEYL_CAP
    digits = ",".join(["1"] * int(name[1]))
    code, out, _ = run(capsys, "ftchar", "--algebra", name, "--m", "1",
                       "--lambda", f"0,{digits}", "--order", "3")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == coeffs
    code, out, _ = run(capsys, "char", "--algebra", name, "--m", "1",
                       "--lambda", f"0,{digits}", "--order", "3")
    assert code == 0 and json.loads(out)["series"]["coeffs"] == ["1", "0", "1", "1"]


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_wchar_on_e6_e8_against_the_free_generator_oracle(capsys, name):
    # verify wchar compares char at the vacuum coset with walg_vacuum_oracle,
    # the W-algebra's free-generator character, built without the lattice
    code, out, _ = run(capsys, "verify", "wchar", "--algebra", name, "--m", "1",
                       "--order", "6")
    assert code == 0 and json.loads(out)["failures"] == []


@pytest.mark.parametrize("name,m", [
    *[(name, 1) for name in ["A5", "B4", "C4", "D5", "F4", "E6"]], ("E7", 2), ("E8", 2)])
def test_weak_strong_decides_every_word_on_large_types(capsys, name, m):
    # too many reduced words of w0 to walk (A5 has 292,864): the verdict of
    # every word comes from the inversion-set identity instead
    code, out, err = run(capsys, "check", "weak-strong", "--algebra", name, "--m", str(m))
    data = json.loads(out)
    assert (code, err, data["failures"]) == (0, "", [])
    assert data["counts"]["all_words"] is True


@pytest.mark.parametrize("suite,cap", [
    ("weak-strong", "1"), ("axioms", "1"), ("alcove-independence", "1"),
    ("weak-strong", "0"), ("weak-strong", "-5")])
def test_word_cap_is_an_unknown_flag(capsys, suite, cap):
    # no command enumerates reduced words, so none takes a cap on them
    with pytest.raises(SystemExit) as exc:
        main(["check", suite, "--algebra", "A2", "--m", "2", f"--word-cap={cap}"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == (
        2, "", f"error: unrecognized arguments: --word-cap={cap}\n")


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, target):
    # a path under a directory that does not exist, and a directory
    code, out, err = run(capsys, "char", "--algebra", "A1", "--lambda", "0,1",
                         "--output", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --output: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["info", "--algebra", "B2", "--jobs", "2"],
    ["info", "--algebra", "B2", "--weyl-cap", "10"],
    ["char", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--grid-cap", "10"],
    ["check", "shift-facts", "--algebra", "B2"],
    # flags that these subcommands would ignore
    ["lambda", "--algebra", "A1", "--m", "2", "--order", "5"],
    ["alcove", "--algebra", "B1", "--variant", "super", "--m", "2", "--lambda", "0,1",
     "--word-cap", "1"],
    ["info", "--algebra", "B2", "--m", "2"],
    # csv, which only lambda and check can print
    ["info", "--algebra", "B2", "--format", "csv"],
    ["ftchar", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--format", "csv"],
    ["alcove", "--algebra", "B1", "--variant", "super", "--m", "2", "--lambda", "0,1",
     "--format", "csv"],
    ["verify", "wchar", "--algebra", "A1", "--format", "csv"],
])
def test_removed_surface_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    # a weight that is not dominant (ValueError)
    ["char", "--algebra", "A2", "--m", "2", "--lambda", "0,1,1", "--alpha=1,0"],
    # a negative truncation order
    ["char", "--algebra", "A2", "--m", "2", "--lambda", "0,1,1", "--order", "-3"],
    # a bullet class with no strong coset (WallReductionError)
    ["alcove", "--algebra", "A2", "--m", "1", "--lambda", "1,1,1"],
    # a bullet index outside 0..2, below and above
    ["char", "--algebra", "A2", "--m", "1", "--lambda=-1,1,1"],
    ["char", "--algebra", "A2", "--m", "1", "--lambda", "3,1,1"],
    # a format the subcommand does not offer (argparse's own usage error)
    ["char", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--format", "csv"],
    # a coset layout over the cap (CapExceededError), refused before it is built
    ["lambda", "--algebra", "A1", "--m", "99999999999"],
    ["check", "axioms", "--algebra", "A2", "--m", "100000"],
    # ... also where a digit range is too long for len() (past 2**63)
    *[[*command, "--algebra", "A2", "--m", HUGE, *extra]
      for command, extra in [(["lambda"], []), (["check", "axioms"], []),
                             (["char"], ["--lambda", "0,1,1"]),
                             (["ftchar"], ["--lambda", "0,1,1"]),
                             (["alcove"], ["--lambda", "0,1,1"]), (["verify", "wchar"], [])]],
    # sizes too large to allocate (OverflowError)
    ["char", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--order", HUGE],
    ["ftchar", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--order", HUGE],
    ["info", "--algebra", "A" + HUGE],
    # a weight too far from the chamber for the alcove walk's step bound
    ["alcove", "--algebra", "A1", "--m", "2", "--lambda", "0,1", "--alpha", "100000"],
    ["alcove", "--algebra", "A2", "--m", "2", "--lambda", "0,1,1", "--alpha", "100000,0"],
])
def test_bad_input_exits_2_without_traceback(argv):
    env = cli_env()
    done = subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    # each holds every coset's row and then the whole report (a 136 MB peak
    # unlimited), so it runs out of address space at 64 MiB
    ["lambda", "--algebra", "A2", "--m", "100"],
    ["check", "axioms", "--algebra", "A2", "--m", "100"],
])
def test_out_of_memory_exits_2_with_one_line(argv):
    # the limit is set in the child alone, between fork and exec
    limit = 64 << 20
    done = subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("argv,message", [
    (["--lambda", "-1,1,1"], "minuscule index -1 outside 0..2"),
    (["--lambda", "0,1,1", "--alpha", "-1,0"],
     "alpha -1,0 is not a root-lattice weight with alpha + bullet dominant"),
])
def test_negative_value_after_a_space_is_the_flags_value(capsys, argv, message):
    # argparse alone reads a token with a leading minus as an option and
    # fails with "expected one argument", which does not name the value
    code, out, err = run(capsys, "char", "--algebra", "A2", "--m", "1", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# the exit-code contract on generated argv: per subcommand, the flags it
# takes, each drawn well-formed, malformed or left out (--lambda, which
# every subcommand that takes it requires, is always given), and --format
# drawn from the subcommand's own choices
_LABELS = st.one_of(
    st.builds(lambda i, d: ",".join(map(str, [i, *d])), st.integers(0, 1),
              st.lists(st.integers(1, 3), min_size=1, max_size=2)),
    st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "x", "0,,1", "1,a", " 0 , 1 "]))
# HUGE fails at once; a large but feasible --order would make examples slow
_FLAGS = {
    "variant": st.sampled_from(["nonsuper", "super", "ramond"]),
    "m": st.one_of(st.integers(-1, 3).map(str), st.just(HUGE)),
    "order": st.one_of(st.integers(-1, 4).map(str), st.just(HUGE)),
    "lambda": _LABELS,
    "alpha": st.one_of(st.sampled_from(["0", HUGE]), _LABELS),
    "kind": st.sampled_from(["ch", "sch", "ramond"]),
    # unwritable: a missing directory, and a directory
    "output": st.sampled_from([str(GOLDEN / "no-such-dir" / "out.json"), str(GOLDEN)]),
}
_COMMANDS = {
    "info": ("output",),
    "lambda": ("variant", "m", "output"),
    "check axioms": ("variant", "m", "output"),
    "check weak-strong": ("variant", "m", "output"),
    "check alcove-independence": ("variant", "m", "output"),
    "char": ("variant", "m", "order", "lambda", "alpha", "kind", "output"),
    "ftchar": ("variant", "m", "order", "lambda", "output"),
    "alcove": ("variant", "m", "lambda", "alpha", "output"),
    "verify wchar": ("variant", "m", "order", "output"),
    "verify verma": ("variant", "m", "order", "output"),
    "verify walls": ("variant", "m", "order", "output"),
}
# the subcommands that print a table, and so offer csv besides json and plain
_CSV_COMMANDS = ("lambda", "check")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = command.split() + ["--algebra", draw(st.sampled_from(["A1", "A2", "B1", "B2"]))]
    formats = ["json", "plain"] + (["csv"] if command.split()[0] in _CSV_COMMANDS else [])
    flags = dict(_FLAGS, format=st.sampled_from(formats))
    for flag in _COMMANDS[command] + ("format",):
        value = draw(flags[flag] if flag == "lambda" else st.one_of(st.none(), flags[flag]))
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_exit_contract_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


# every verify and check argv that this file runs, parametrizations spelled
# out; the two argvs of test_out_of_memory_exits_2_with_one_line are left
# out, as that test runs them under their memory limit and asserts exit 2
_VERIFICATION_ARGVS = [
    "check axioms --algebra G2 --variant nonsuper --m 1",
    "check axioms --algebra B2 --m 2 --format csv",
    "check axioms --algebra E7 --m 2",
    "check axioms --algebra E8 --m 2",
    "check axioms --algebra B2 --variant super --m 2",
    "check axioms --algebra A2 --m 100000",
    f"check axioms --algebra A2 --m {HUGE}",
    "check weak-strong --algebra B2 --variant nonsuper --m 2",
    *[f"check weak-strong --algebra {name} --m {m}" for name, m in
      [("A5", 1), ("B4", 1), ("C4", 1), ("D5", 1), ("F4", 1), ("E6", 1), ("E7", 2), ("E8", 2)]],
    "check alcove-independence --algebra B2 --variant super --m 3",
    "check alcove-independence --algebra B2 --variant super --m 2",
    "check alcove-independence --algebra A2 --m 2",
    "check alcove-independence --algebra E7 --m 1",
    "check alcove-independence --algebra D4 --m 1",
    "check alcove-independence --algebra B3 --variant super --m 2",
    "check alcove-independence --algebra B2 --m 2 --format csv",
    "check alcove-independence --algebra B1 --variant super --m 2",
    *[f"check {suite} --algebra A2 --m 2 --format {fmt}" for suite in
      ("weak-strong", "axioms", "alcove-independence") for fmt in ("json", "plain")],
    *[f"check {suite} --algebra A2 --m 2 --word-cap={cap}" for suite, cap in
      [("weak-strong", "1"), ("axioms", "1"), ("alcove-independence", "1"),
       ("weak-strong", "0"), ("weak-strong", "-5")]],
    "check shift-facts --algebra B2",
    "check bogus --algebra B2",
    "verify wchar --algebra A1 --m 2 --order 50",
    "verify wchar --algebra A2 --m 2 --order 6",
    *[f"verify wchar --algebra {name} --m 1 --order 6" for name in ("E6", "E7", "E8")],
    "verify wchar --algebra A1 --format csv",
    f"verify wchar --algebra A2 --m {HUGE}",
    "verify verma --algebra B1 --variant super --m 2 --order 20",
    "verify verma --algebra A1 --variant nonsuper --m 2",
    "verify verma --algebra B1 --variant ramond --m 2",
    "verify walls --algebra A2 --m 2 --order 6",
    "verify walls --algebra A2 --m 2 --order 8",
    *[f"verify walls --algebra {name} --variant ramond --m {m}"
      for name in ("B2", "B3") for m in (2, 3)],
]
# and the ones in README's sh blocks
_README_VERIFICATIONS = [" ".join(line.split()[1:]) for line in test_readme.COMMANDS
                         if line.split()[1] in ("verify", "check")]
# rank 1 has no wall point in Q, so verify walls checks nothing and exits 0
# (ROADMAP items 21 and 23); mending it moves the benchmark's cli_cold digests
_CHECKING_NOTHING = [
    pytest.param(line, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP items 21 and 23: verify walls on rank 1 reports 0 checks"))
    for line in ("verify walls --algebra A1 --m 2",
                 "verify walls --algebra B1 --variant super --m 2")]


@pytest.mark.parametrize("line", [*dict.fromkeys(_VERIFICATION_ARGVS + _README_VERIFICATIONS),
                                  *_CHECKING_NOTHING])
def test_every_verification_checks_something_or_exits_2(capsys, line):
    # a verification that checked nothing and exits 0 reads as a pass
    # (ROADMAP item 23): each run, in JSON, reports a check or is a usage error
    try:
        code = main([*shlex.split(line), "--format=json"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr().out
    if code != 2:
        data = json.loads(out)
        checks = data["checks"] if "checks" in data else data["counts"]["checks"]
        assert checks >= 1, out


def test_every_flag_is_read():
    # a flag whose value no code reads as args.<dest> is an inert option
    tree = ast.parse((pathlib.Path(__file__).parent.parent / "src" / "shiftlab"
                      / "cli.py").read_text(encoding="utf-8"))
    dests = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            dests.add(next((k.value.value for k in node.keywords if k.arg == "dest"),
                           node.args[0].value.lstrip("-").replace("-", "_")))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.ctx, ast.Load)}
    assert len(dests) >= 10 and dests <= read, sorted(dests - read)


def test_deterministic_output(capsys):
    one = run(capsys, "char", "--algebra", "B2", "--m", "2",
              "--lambda", "0,1,1", "--order", "12")
    two = run(capsys, "char", "--algebra", "B2", "--m", "2",
              "--lambda", "0,1,1", "--order", "12")
    assert one == two


GOLDEN_RUNS = [
    ("info_B2.json",
     ["info", "--algebra", "B2"]),
    ("char_A1_m2_triplet.json",
     ["char", "--algebra", "A1", "--variant", "nonsuper", "--m", "2",
      "--alpha", "0", "--lambda", "0,1", "--order", "30"]),
    ("lambda_B2_super_m3.csv",
     ["lambda", "--algebra", "B2", "--variant", "super", "--m", "3",
      "--format", "csv"]),
    ("ftchar_A1_m2.json",
     ["ftchar", "--algebra", "A1", "--variant", "nonsuper", "--m", "2",
      "--lambda", "0,1", "--order", "8"]),
    ("alcove_B1_super_m2.json",
     ["alcove", "--algebra", "B1", "--variant", "super", "--m", "2",
      "--alpha", "0", "--lambda", "0,1"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS)
def test_golden_files(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == want


def cli_process(*argv, **kwargs):
    """`python -m shiftlab.cli ARGV` run to completion, output as bytes."""
    return subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=cli_env(),
                          capture_output=True, timeout=120, **kwargs)


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS)
def test_golden_files_through_the_process_entry(name, argv):
    # the process entry ends without interpreter teardown, after a flush
    done = cli_process(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, (GOLDEN / name).read_bytes(), b"")


def test_process_entry_output_file(tmp_path):
    # --output gets the whole text, and stdout nothing
    target = tmp_path / "out.json"
    done = cli_process("info", "--algebra", "B2", "--output", str(target))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == (GOLDEN / "info_B2.json").read_bytes()


@pytest.mark.parametrize("argv,listed", [
    # the whole tree: every subcommand
    (["--help"], ["{info,lambda,check,char,ftchar,alcove,verify}"]),
    # the invoked subcommand alone, with all of its flags
    (["char", "--help"], ["usage: shiftlab char", "--algebra", "--variant", "--m", "--order",
                          "--format", "--output", "--alpha", "--lambda", "--kind"]),
])
def test_process_entry_help(argv, listed):
    done = cli_process(*argv, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert all(word in done.stdout for word in listed), done.stdout


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus-command"], "argument command: invalid choice: 'bogus-command' (choose from "
                        "'info', 'lambda', 'check', 'char', 'ftchar', 'alcove', 'verify')"),
    (["info", "--algebra", "B2", "--lambda", "0,1"], "unrecognized arguments: --lambda=0,1"),
    (["check", "bogus", "--algebra", "B2"],
     "argument suite: invalid choice: 'bogus' (choose from 'axioms', 'weak-strong', "
     "'alcove-independence')"),
])
def test_process_entry_usage_error_is_one_line(argv, message):
    # a subcommand's parser is built alone, and an error names what is wrong
    # without a usage text, as with the whole tree
    done = cli_process(*argv, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_console_script_is_the_process_entry():
    # [project.scripts] names the function that `python -m shiftlab.cli` runs
    import tomllib
    root = pathlib.Path(__file__).parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["shiftlab"]
    tree = ast.parse((root / "src" / "shiftlab" / "cli.py").read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in block.body] == ["run()"]
    assert script == "shiftlab.cli:run"


@pytest.mark.parametrize("entry", [
    ["-m", "shiftlab.cli"],
    # main() returning into the interpreter's own exit, which flushes again
    ["-c", "import sys; from shiftlab import cli; sys.exit(cli.main())"],
])
@pytest.mark.parametrize("argv,keep", [
    # more than a pipe holds, closed after 10 bytes: the write fails
    (["lambda", "--algebra", "A2", "--m", "20"], 10),
    # closed before the first byte: the flush fails
    (["info", "--algebra", "B2"], 0),
])
def test_closed_stdout_is_one_usage_error(entry, argv, keep):
    # buffered, and unbuffered (python -u), where a write that the closing
    # reader cuts short returns a short count instead of raising
    env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        with subprocess.Popen([sys.executable, *entry, *argv], env={**env, **extra},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(keep)) == keep
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        assert (code, err) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n"), extra


@pytest.mark.parametrize("suite,m", [("axioms", "2"), ("alcove-independence", "3")])
def test_checks_survive_optimized_mode(suite, m):
    # invariants are raised explicitly, so python -O runs the same checks
    env = cli_env()
    argv = ["-m", "shiftlab.cli", "check", suite, "--algebra", "B2",
            "--variant", "super", "--m", m]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv], env=env,
                                       capture_output=True, text=True, timeout=120)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout != ""


ROUTE_BREAKER = """
import sys
from shiftlab import cli, shift
case = shift.make_case("B2", "ramond", 3)
table = shift._cosets(case)
shifts = table.simple(table.index(shift.lambda_from(case, 0, (1, 3)).key()))[1]
# s_1 ^ lambda moved by alpha_1: every * point the climb carries through it
# stays in its coset, so the coset check passes and the routes must catch it
shifts[0] = tuple(a + b for a, b in zip(shifts[0], table.cols[0]))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_route_check_survives_optimized_mode():
    # a corrupted simple shift makes the two alternating-sum routes disagree;
    # the check fails the same way with and without -O: exit 3 and one
    # JSON line on stderr
    env = cli_env()
    argv = ["-c", ROUTE_BREAKER, "char", "--algebra", "B2", "--variant", "ramond",
            "--m", "3", "--lambda", "0,1,3", "--kind", "ramond", "--order", "20"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv], env=env,
                                       capture_output=True, text=True, timeout=120)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 3
    assert plain.stderr == optimized.stderr and plain.stderr.count("\n") == 1
    assert json.loads(plain.stderr) == {"error": "internal", "type": "AssertionError",
                                        "message": "the two alternating-sum routes disagree"}


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; invariants must raise explicitly
    paths = sorted((pathlib.Path(__file__).parent.parent / "src" / "shiftlab").glob("*.py"))
    assert len(paths) >= 7
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
