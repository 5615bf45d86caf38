"""The public surface holds what a run uses: every name that
``strata_opt.__all__`` or ``strata_opt.mech.__all__`` exports is read by a
module of the library (the command line among them) or by a demo.  A
function that only tests call belongs in the tests, as an oracle."""

import ast
import pathlib

import strata_opt
import strata_opt.mech

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "strata_opt"
# the two modules that only re-export the names
REEXPORTS = {PACKAGE / "__init__.py", PACKAGE / "mech" / "__init__.py"}


def _names_read(path: pathlib.Path) -> set:
    """The names a module reads: loaded identifiers and attributes.  A
    definition, an import and the strings of ``__all__`` are no reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_user_outside_the_tests():
    readers = [p for p in PACKAGE.rglob("*.py") if p not in REEXPORTS]
    readers += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*map(_names_read, readers))
    exported = set(strata_opt.__all__) | set(strata_opt.mech.__all__)
    unused = sorted(exported - read)
    assert not unused, f"exported, but no module of src/, CLI command or demo reads: {unused}"
