"""tools/check_digests.py on a handful of perfbench reference ops."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_digests",
                                               ROOT / "tools" / "check_digests.py")
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)

NONE_FOUND = {"differs": [], "now raises": [], "now returns": []}


def sample() -> dict:
    """The first returning op of the first case of each stratum."""
    reference = json.loads(check_digests.REFERENCE.read_text(encoding="utf-8"))
    picked: dict = {}
    for workload, strata in reference.items():
        for stratum, cases in strata.items():
            case, groups = next(iter(cases.items()))
            group, ops = next(iter(groups.items()))
            key, want = next((k, v) for k, v in ops.items() if isinstance(v, str))
            picked.setdefault(workload, {})[stratum] = {case: {group: {key: want}}}
    return picked


def test_reference_ops_keep_their_digests():
    ref = sample()
    names = {json.loads(key)[0] for strata in ref.values() for cases in strata.values()
             for groups in cases.values() for ops in groups.values() for key in ops}
    assert {"verify_axioms", "multiplet_char", "cli"} <= names
    assert check_digests.check(ref) == NONE_FOUND


def test_each_kind_is_reported():
    ops = next(iter(next(iter(sample()["char_orbit"].values())).values()))
    group = next(iter(ops.values()))
    (key, want), = group.items()
    group[key] = "0" * 16                       # a digest the op does not give
    group[json.dumps(["no_such_op", "A1", "nonsuper", 2])] = want    # raises KeyError
    cli = json.dumps(["cli", "info", "--algebra", "A1"])
    group[cli] = {"raises": "AssertionError"}  # returns
    found = check_digests.check({"char_orbit": {"s": {"c": ops}}})
    assert {kind: len(lines) for kind, lines in found.items()} == \
        {"differs": 1, "now raises": 1, "now returns": 1}
    assert found["now raises"][0].endswith("now {'raises': 'KeyError'}")
    assert found["now returns"][0].startswith(f"now returns: {cli}")


def test_every_reference_op_keeps_its_digest():
    # the whole reference, so that an output change fails here before it can
    # fail the benchmark's correctness check; the only ops that return where
    # the reference records a raise are the 245 B2 Ramond ones (219 library,
    # 26 CLI) whose dual-route check failed when it was recorded
    reference = json.loads(check_digests.REFERENCE.read_text(encoding="utf-8"))
    raised = {key for strata in reference.values() for cases in strata.values()
              for groups in cases.values() for ops in groups.values()
              for key, want in ops.items() if isinstance(want, dict)}
    assert len(raised) == 245
    assert all("B2" in op and "ramond" in op for op in map(json.loads, raised))
    found = check_digests.check(reference)
    assert found["differs"] == [] and found["now raises"] == []
    assert {line.split(": ", 1)[1].rsplit(": reference", 1)[0]
            for line in found["now returns"]} == raised
    assert len(found["now returns"]) == 245
