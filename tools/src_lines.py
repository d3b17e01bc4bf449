"""Print the line count of each src/shiftlab module in the work tree and at a
git revision, with the difference: the src/ line delta a change reports.

    python3 tools/src_lines.py [REF]

REF defaults to HEAD.  Lines are counted as ``wc -l`` counts them, so the
total row equals ``cat src/shiftlab/*.py | wc -l``.  Below the total, the
tests' reference file tests/oracles.py has a row of its own, so that code
moved out of src/ into it shows apart from code deleted.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/shiftlab"
ORACLES = "tests/oracles.py"


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout


def tree_counts(root: Path) -> dict[str, int]:
    """Lines per module of src/shiftlab under root."""
    return {path.name: path.read_text(encoding="utf-8").count("\n")
            for path in (root / PACKAGE).glob("*.py")}


def ref_counts(ref: str, root: Path) -> dict[str, int]:
    """Lines per module of src/shiftlab at a git revision, read by git show."""
    names = _git(root, "ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {name: _git(root, "show", f"{ref}:{PACKAGE}/{name}").count("\n")
            for name in names if name.endswith(".py")}


def file_lines(root: Path, rel: str, ref: str | None = None) -> int:
    """Lines of one file under root, or at a git revision; 0 if it is absent."""
    if ref is None:
        path = root / rel
        return path.read_text(encoding="utf-8").count("\n") if path.exists() else 0
    try:
        return _git(root, "show", f"{ref}:{rel}").count("\n")
    except subprocess.CalledProcessError:
        return 0


def table(tree: dict[str, int], ref: dict[str, int], ref_name: str, extra=()) -> str:
    """One row per module (absent on a side counts 0), then the totals, then
    the (name, ref, tree) rows of extra."""
    rows = [(name, ref.get(name, 0), tree.get(name, 0))
            for name in sorted(tree.keys() | ref.keys())]
    rows.append(("total", sum(ref.values()), sum(tree.values())))
    rows += extra
    width = max(len(ref_name), 6)
    out = [f"{'module':<16} {ref_name:>{width}} {'tree':>6} {'delta':>6}"]
    out += [f"{name:<16} {a:>{width}} {b:>6} {b - a:>+6}" for name, a, b in rows]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", default="HEAD", help="git revision (default HEAD)")
    args = ap.parse_args(argv)
    try:
        ref = ref_counts(args.ref, ROOT)
    except subprocess.CalledProcessError as exc:
        print(f"error: git could not read {PACKAGE} at {args.ref}: {exc.stderr.strip()}",
              file=sys.stderr)
        return 2
    oracles = (ORACLES, file_lines(ROOT, ORACLES, args.ref), file_lines(ROOT, ORACLES))
    sys.stdout.write(table(tree_counts(ROOT), ref, args.ref, [oracles]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
