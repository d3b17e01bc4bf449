"""perfbench's tracer still finds every target it patches.

A target that is renamed or removed does not fail a traced benchmark run:
the tracer lists it in ``missing`` and its metrics read as null.  This runs
the library ops of the benchmark workloads and one CLI verification under
the tracer, in a child process so that the patching stays out of the pytest
process, and asserts that nothing is missing.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:4]
from tracer import Tracer
tracer = Tracer().install()
from shiftlab import alcove, characters, shift
from oracles import affine_input, vzero
case = shift.make_case("A2", "nonsuper", 2)
shift.verify_axioms(case)
shift.condition_report(case)
# a super case and its Ramond case share one system and one verification
for variant in ("super", "ramond"):
    other = shift.make_case("B2", variant, 2)
    shift.verify_axioms(other)
    shift.condition_report(other)
# the rows over W that system attaches, read cell by cell, run its span, both
# per-cell counters and the summary's probe of the systems
for other in (case, shift.make_case("B2", "super", 2), shift.make_case("B2", "ramond", 2)):
    table = shift.system(other)
    table.act_index(len(table.weyl) - 1, 0)
    table.shift_value(len(table.weyl) - 1, 0)
lam = shift.enumerate_lambda(case)[0]
characters.multiplet_char(vzero(2), lam, case, 6)
characters.ft_char(lam, case, 3)
alcove.alcove_json(case, vzero(2), lam)
# the reducer and y_alpha called directly, as the tests and the CLI call them
alcove.dominant_reduce(affine_input(case, vzero(2), lam), case)
alcove.y_alpha(vzero(2), lam.bullet_index, case)
# the CLI's verma route, counted on its own: the counters' calls before it
# are subtracted, so a loop that the patching no longer reaches reads 0
import contextlib, io
from shiftlab import cli
before = {name: calls for name, (calls, *_) in tracer.counters.items()}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "verma", "--algebra", "B2", "--variant", "super", "--m", "2"])
summary = tracer.summary()
print(json.dumps({"missing": summary["missing"], "spans": sorted(summary["spans"]),
                  "counters": {name: calls for name, (calls, *_) in summary["counters"].items()},
                  "verma": {name: calls - before.get(name, 0)
                            for name, (calls, *_) in summary["counters"].items()},
                  "verma_code": code, "act_entries": summary["extra"]["shift.act_entries"]}))
"""


def test_every_tracer_target_is_found():
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "tests")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["missing"] == []
    # the ops ran under their spans, so the probes were exercised
    assert {"shift.verify_axioms", "shift.condition_report", "shift.system",
            "characters.multiplet_char", "characters.ft_char", "alcove.alcove_json",
            "alcove.dominant_reduce", "alcove.y_alpha"} <= set(got["spans"])
    assert got["counters"]["shift.act_index"] > 0
    assert got["counters"]["shift.shift_value"] > 0
    assert got["act_entries"] > 0
    # verify verma, run through cli.main, reaches both of its routes through
    # the patched module globals of characters
    assert got["verma_code"] == 0 and "cli.main" in got["spans"]
    assert got["verma"]["characters.fock_delta"] > 0
    assert got["verma"]["characters.weight_space_char"] > 0
