"""tools/bench_summary.py on synthetic perfbench results."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

BENCH = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
         "per_layer": [{"name": "cli.import_s", "unit": "s", "better": "lower"}]}


def write_run(results: Path, seed: int, wall: float, sha: str, failed: int = 0,
              workload: str = "axiom_sweep"):
    run = {"workload": workload, "seed": seed, "correct": True,
           "attempted": 54, "failed": failed,
           "provenance": {"git_sha": sha, "src_lines": 100},
           "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(run))
    # ops lists are not summarized
    (results / f"{workload}-seed{seed}-trace0-ops.json").write_text("[]")


def write_traced(results: Path, seed: int, import_s: float, workload: str = "cli_cold"):
    run = {"workload": workload, "seed": seed,
           "metrics": {"cli.import_s": {"value": import_s, "unit": "s"},
                       "trace.wall_s": {"value": 1.0, "unit": "s"}}}
    (results / f"{workload}-seed{seed}-trace1.json").write_text(json.dumps(run))


def test_summary_and_pairs(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed, (b, n) in enumerate([(1.0, 0.6), (1.2, 0.7), (0.9, 0.95), (1.1, 0.6)], 1):
        write_run(base, seed, b, "aaaaaaaa")
        write_run(new, seed, n, "bbbbbbbb")
    write_run(new, 9, 0.5, "bbbbbbbb")    # unpaired seed
    entry = bench_summary.summarize(base, new, BENCH)["axiom_sweep"]
    assert entry["parent"]["seeds"] == [1, 2, 3, 4]
    assert entry["change"]["seeds"] == [1, 2, 3, 4, 9]
    assert entry["parent"]["git_sha"] == ["aaaaaaaa"]
    assert entry["change"]["src_lines"] == [100]
    wall = entry["parent"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (0.975, 1.05, 1.125)
    pairs = entry["pairs"]
    assert pairs["pairs"] == 4
    assert pairs["wall_s"]["wins"] == 3
    assert pairs["wall_s"]["base_median"] == 1.05
    assert abs(pairs["wall_s"]["new_median"] - 0.65) < 1e-12
    assert pairs["wall_s"]["within_bound"] and pairs["wall_s"]["gain_beyond_base_iqr"]


def test_failed_counts_and_one_sided_workload(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    write_run(base, 3, 0.5, "aaaaaaaa")
    write_run(new, 3, 0.4, "cccccccc", failed=1)
    write_run(new, 3, 7.0, "cccccccc", workload="cli_cold")   # no parent run
    out = bench_summary.summarize(base, new, BENCH)
    assert list(out) == ["axiom_sweep"]
    assert out["axiom_sweep"]["change"]["failed"] == [1]
    assert out["axiom_sweep"]["pairs"]["wall_s"]["wins"] == 1


def test_traced_runs_on_both_sides(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for workload in ("axiom_sweep", "cli_cold"):
        write_run(base, 3, 0.5, "aaaaaaaa", workload=workload)
        write_run(new, 3, 0.4, "bbbbbbbb", workload=workload)
    write_traced(base, 7, 0.031)
    write_traced(new, 7, 0.024)
    write_traced(new, 7, 0.5, workload="axiom_sweep")    # no parent traced run
    out = bench_summary.summarize(base, new, BENCH)
    assert "traced" not in out["axiom_sweep"]
    assert out["cli_cold"]["traced"] == {
        "parent": {"seeds": [7], "cli.import_s": [0.031]},
        "change": {"seeds": [7], "cli.import_s": [0.024]}}


_cold_spec = importlib.util.spec_from_file_location("cold_runs", ROOT / "tools" / "cold_runs.py")
cold_runs = importlib.util.module_from_spec(_cold_spec)
_cold_spec.loader.exec_module(cold_runs)


def test_cold_runs_add_to_a_summary(tmp_path):
    # both sides on this checkout: two runs each, the same output, and the
    # summary's other keys kept
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"axiom_sweep": {"pairs": {}}}))
    assert cold_runs.main([str(ROOT), str(ROOT), "info --algebra A1", "--runs", "2",
                           "--into", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["axiom_sweep"] == {"pairs": {}}
    got = data["cold_cli"]["info --algebra A1"]
    assert got["same_output"] is True
    for side in ("parent", "change"):
        assert len(got[side]["runs"]) == 2
        assert got[side]["median"] == sum(got[side]["runs"]) / 2
        # each process's own CPU time, which its wall time bounds
        assert len(got[side]["cpu"]) == 2
        assert got[side]["cpu_median"] == sum(got[side]["cpu"]) / 2
        assert all(0 < cpu <= wall for cpu, wall in zip(got[side]["cpu"], got[side]["runs"]))
        assert len(got[side]["peak_rss_mb"]) == 2
        assert all(5 < mb < 500 for mb in got[side]["peak_rss_mb"])


def test_cold_runs_compare_stderr(tmp_path):
    # the same exit code and stdout with another stderr is another output,
    # which makes the call exit 1
    for name in ("parent", "change"):
        shutil.copytree(ROOT / "src" / "shiftlab", tmp_path / name / "src" / "shiftlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "change" / "src" / "shiftlab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace("import argparse\n",
                                "import argparse\nimport sys\nsys.stderr.write('note\\n')\n", 1),
                   encoding="utf-8")
    out = tmp_path / "BENCH.json"
    assert cold_runs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                           "info --algebra A1", "--runs", "1", "--into", str(out)]) == 1
    assert json.loads(out.read_text())["cold_cli"]["info --algebra A1"]["same_output"] is False
    wall, cpu, _, output = cold_runs.run_once(tmp_path / "change", tmp_path / "pycache",
                                              ["-m", "shiftlab.cli", "info", "--algebra", "Z9"])
    assert 0 < cpu <= wall
    assert output == (2, cold_runs.sha512(b"").digest(),
                      cold_runs.sha512(b"note\nerror: cannot parse Lie type 'Z9'\n").digest())


def test_cold_runs_peak_rss_is_the_childs_own(tmp_path):
    # the tool as it runs, in a process of its own: after a command that
    # prints about 5 MB (lambda on A2 m=100), info's recorded peak RSS is a
    # lone info call's within 2 MB, since the tool keeps digests of the
    # outputs it compares, not the outputs (a child's peak is at least its
    # parent's resident set at the spawn)
    def info_peaks(*commands):
        out = tmp_path / "BENCH.json"
        subprocess.run([sys.executable, str(ROOT / "tools" / "cold_runs.py"), "--runs", "1",
                        "--into", str(out), str(ROOT), str(ROOT), *commands],
                       stdout=subprocess.DEVNULL, check=True)
        got = json.loads(out.read_text())["cold_cli"]["info --algebra A1"]
        out.unlink()
        return got["parent"]["peak_rss_mb"] + got["change"]["peak_rss_mb"]

    alone = info_peaks("info --algebra A1")
    after = info_peaks("lambda --algebra A2 --m 100", "info --algebra A1")
    assert max(after) < min(alone) + 2


@pytest.mark.parametrize("differ", [False, True])
def test_cold_runs_exit_code_follows_same_output(tmp_path, monkeypatch, differ):
    # with no process started: the file gets both commands and keeps its
    # other keys either way, and the call exits 1 exactly when some
    # command's outputs differ (here the second one's, on the parent side)
    sides = [tmp_path / name for name in ("parent", "change")]
    for side in sides:
        (side / "src" / "shiftlab").mkdir(parents=True)
    compiled = []

    def run_once(side, pycache, args):
        bad = differ and side == sides[0].resolve() and "B2" in args
        return 0.5, 0.4, 20.0, (0, b"other" if bad else b"out", b"")

    monkeypatch.setattr(cold_runs, "compile_checkout", lambda side, _: compiled.append(side))
    monkeypatch.setattr(cold_runs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"claim": "kept"}))
    code = cold_runs.main([*map(str, sides), "info --algebra A2", "info --algebra B2",
                           "--runs", "2", "--into", str(out)])
    got = json.loads(out.read_text())
    assert code == int(differ) and got["claim"] == "kept"
    assert {cmd: row["same_output"] for cmd, row in got["cold_cli"].items()} == \
        {"info --algebra A2": True, "info --algebra B2": not differ}
    assert sorted(compiled) == sorted(side.resolve() for side in sides)


def test_cold_runs_merge_by_command(tmp_path):
    # a second call with another command and run count keeps the first
    # call's command, and a command timed again replaces its own entry
    out = tmp_path / "BENCH.json"
    assert cold_runs.main([str(ROOT), str(ROOT), "info --algebra A1", "--runs", "2",
                           "--into", str(out)]) == 0
    first = json.loads(out.read_text())["cold_cli"]["info --algebra A1"]
    assert cold_runs.main([str(ROOT), str(ROOT), "lambda --algebra A1", "--runs", "1",
                           "--into", str(out)]) == 0
    data = json.loads(out.read_text())["cold_cli"]
    assert data["info --algebra A1"] == first
    assert len(data["lambda --algebra A1"]["change"]["runs"]) == 1
    assert cold_runs.main([str(ROOT), str(ROOT), "info --algebra A1", "--runs", "1",
                           "--into", str(out)]) == 0
    data = json.loads(out.read_text())["cold_cli"]
    assert sorted(data) == ["info --algebra A1", "lambda --algebra A1"]
    assert len(data["info --algebra A1"]["parent"]["runs"]) == 1


def test_cold_runs_child_environment(monkeypatch, tmp_path):
    # perfbench's rules: no PYTHON* variable of the caller, in particular no
    # PYTHONDONTWRITEBYTECODE, which would make every timed process compile
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    env = cold_runs.child_env(ROOT, tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env and "PYTHONOPTIMIZE" not in env
    assert {k: v for k, v in env.items() if k.startswith("PYTHON")} == {
        "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(tmp_path)}


def test_cold_runs_write_nothing_into_the_checkout(tmp_path):
    # the bytecode goes under a temporary prefix, and the floor is reported
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "shiftlab", checkout / "src" / "shiftlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "BENCH.json"
    assert cold_runs.main([str(checkout), str(checkout), "info --algebra A1", "--runs", "1",
                           "--into", str(out)]) == 0
    assert not list(checkout.rglob("__pycache__"))
    got = json.loads(out.read_text())["cold_cli"]["info --algebra A1"]
    assert got["same_output"] and 0 < got["floor"]["median"] == got["floor"]["runs"][0]


_lines_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_lines_spec)
_lines_spec.loader.exec_module(src_lines)


def test_src_lines_counts_and_table(tmp_path):
    # a tree read from disk, as wc -l counts it, against a made-up revision
    # that lacks one module and has one the tree dropped
    pkg = tmp_path / "src" / "shiftlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not a module\n")
    tree = src_lines.tree_counts(tmp_path)
    assert tree == {"a.py": 2, "b.py": 1}
    # the reference file's row comes below the src/ total and leaves it as it is
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "oracles.py").write_text("a = 1\n" * 7)
    oracles = src_lines.file_lines(tmp_path, src_lines.ORACLES)
    assert oracles == 7 and src_lines.file_lines(tmp_path, "tests/absent.py") == 0
    lines = src_lines.table(tree, {"a.py": 5, "old.py": 4}, "HEAD~1",
                            [(src_lines.ORACLES, 4, oracles)]).splitlines()
    assert lines[0].split() == ["module", "HEAD~1", "tree", "delta"]
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "5", "2", "-3"], ["b.py", "0", "1", "+1"], ["old.py", "4", "0", "-4"],
        ["total", "9", "3", "-6"], ["tests/oracles.py", "4", "7", "+3"]]
