"""The public surface of src/shiftlab holds only what something uses.

Every function and method defined in src/shiftlab must be referenced from
another place in src/ (outside its own body), be named in perfbench's code,
or be one of the paper's objects on ALLOWED, each of which README names.  A
helper that nothing calls fails here, and so does one that only the tests
call: such a helper belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftlab"

# the paper's objects, which the tests state claims about, and what
# acceptance criterion 10 reads of QSeries
ALLOWED = {
    "shift.w_act", "shift.shift_map", "shift.check_weak", "shift.screening_degree",
    "shift.canonical_decompose", "shift.lambda_of_value", "shift.w0_shift",
    "shift.check_strong_alt", "shift.check_strong_all_words", "alcove.dot_act",
    "alcove.affine_mul", "alcove.affine_inv", "alcove.y_sigma",
    "qseries.QSeries.mul", "qseries.QSeries.coeff",
}
# methods that a framework calls: argparse calls the parser's error
FRAMEWORK = {"cli._Parser.error"}


def definitions_and_references():
    """([(module.qualname, is_method)] of every function and method, {name:
    {(module.qualname of the referring scope, as_attribute)}}).  A method
    counts as referenced only as an attribute, so that a local variable of
    the same name is not taken for a call."""
    defs, refs = [], {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                    if isinstance(child, ast.FunctionDef):
                        defs.append((inner, in_class))
                    visit(child, inner, isinstance(child, ast.ClassDef))
                    continue
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    refs.setdefault(child.id, set()).add((scope, False))
                elif isinstance(child, ast.Attribute):
                    refs.setdefault(child.attr, set()).add((scope, True))
                visit(child, scope, in_class)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return defs, refs


def perfbench_names():
    """The identifiers in perfbench's code: names, attributes and the parts of
    dotted strings such as the tracer's targets, but not words of prose."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names


def test_every_definition_is_used():
    defs, refs = definitions_and_references()
    perfbench = perfbench_names()
    unused = []
    for qual, is_method in defs:
        name = qual.rsplit(".", 1)[1]
        if name.startswith("__") and name.endswith("__"):
            continue  # Python calls these
        callers = {scope for scope, attr in refs.get(name, ())
                   if (attr or not is_method)
                   and scope != qual and not scope.startswith(qual + ".")}
        if not (callers or name in perfbench or qual in ALLOWED or qual in FRAMEWORK):
            unused.append(qual)
    assert unused == []
    assert ALLOWED | FRAMEWORK <= {qual for qual, _ in defs}


def test_readme_names_every_allowed_object():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [q for q in sorted(ALLOWED)
               if f"`{q.split('.', 1)[1]}`" not in readme]
    assert missing == []
