"""Static checks on the library source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lubelastic"


def test_library_has_no_assert_statements():
    # `python -O` strips assert, and the library's checks must survive it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found, f"assert statements at {found}"


def test_cli_builds_no_library_parameter_class():
    # documents decode straight into these classes (cli.INLINE); a call in
    # cli.py would mean a field-by-field copy of a document again
    mirrored = {"ThinFilmModel", "ModelParams", "NonlinearScalingPreset"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in mirrored:
                found.append(f"{name}:{node.lineno}")
    assert not found, f"cli.py calls {found}"
