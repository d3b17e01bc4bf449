"""Recompute every op of perfbench/reference.json and compare it with the
recorded outcome.

    python3 tools/check_digests.py

Library ops run in this process through perfbench/worker.py's ``execute``,
with one table of cases per reference case as perfbench/reference.py builds
it; CLI ops run ``shiftlab.cli.main`` in this process.  Both are digested by
worker's ``digest`` of ``content`` or ``cli_content``.  The script prints
every op whose digest differs, every op that now raises, and every op that
now returns where the reference records a raise, then a count of each.  It
exits 1 if any op differs or now raises, and 0 otherwise.  It reads
perfbench and writes nothing.
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
sys.path.insert(0, str(ROOT / "src"))
_spec = importlib.util.spec_from_file_location("perfbench_worker",
                                               ROOT / "perfbench" / "worker.py")
worker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(worker)


def outcome(op: list, cases: dict) -> str | dict:
    """The op's digest, or ``{"raises": name}``, as the reference records it."""
    from shiftlab.cli import main

    try:
        if op[0] != "cli":
            return worker.digest(worker.content(worker.execute(op, cases)))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(op[1:])
        return worker.digest(worker.cli_content(code, out.getvalue()))
    except Exception as exc:
        return {"raises": type(exc).__name__}


def check(reference: dict) -> dict[str, list[str]]:
    """Per kind ("differs", "now raises", "now returns"), one line per op."""
    found: dict[str, list[str]] = {"differs": [], "now raises": [], "now returns": []}
    for strata in reference.values():
        for cases in strata.values():
            for groups in cases.values():
                session: dict = {}
                for ops in groups.values():
                    for key, want in ops.items():
                        got = outcome(json.loads(key), session)
                        if got == want:
                            continue
                        if isinstance(want, dict) and isinstance(got, str):
                            kind = "now returns"
                        elif isinstance(got, dict) and isinstance(want, str):
                            kind = "now raises"
                        else:
                            kind = "differs"
                        found[kind].append(f"{kind}: {key}: reference {want}, now {got}")
    return found


def main() -> int:
    found = check(json.loads(REFERENCE.read_text(encoding="utf-8")))
    for lines in found.values():
        for line in lines:
            print(line)
    print(", ".join(f"{len(lines)} {kind}" for kind, lines in found.items()))
    return 1 if found["differs"] or found["now raises"] else 0


if __name__ == "__main__":
    sys.exit(main())
