"""The README's "Library layout" table names only APIs that exist, and its
`verify rates` paragraph names every key that `rates.json` holds."""
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from lubelastic import cli

README = Path(__file__).resolve().parent.parent / "README.md"
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FILE_SUFFIXES = (".csv", ".json")
UNESCAPED_PIPE = re.compile(r"(?<!\\)\|")


def row_cells(line: str) -> list[str]:
    """The cells of a Markdown table row; an escaped pipe, \\|, stays in its cell."""
    return [c.strip() for c in UNESCAPED_PIPE.split(line.strip().strip("|"))]


def layout_rows():
    """(module name, backticked names of the contents cell) per table row."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = row_cells(line)
        if len(cells) == 2 and cells[0].startswith("`lubelastic."):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


ROWS = layout_rows()


def test_an_escaped_pipe_does_not_split_a_row():
    line = r"| `lubelastic.fsi` | `run_batch` (one operator per \|ξ\|², not per mode) |"
    assert row_cells(line) == ["`lubelastic.fsi`",
                               r"`run_batch` (one operator per \|ξ\|², not per mode)"]


def test_layout_table_has_every_module():
    modules = {name for name, _ in ROWS}
    assert {"lubelastic.thinfilm", "lubelastic.fsi", "lubelastic.verify"} <= modules


@pytest.mark.parametrize("module_name, names", ROWS, ids=[name for name, _ in ROWS])
def test_layout_names_exist(module_name, names):
    module = importlib.import_module(module_name)
    # identifiers only: no formulas such as `m − 2` and no file names
    names = [n for n in names if NAME.fullmatch(n) and not n.endswith(FILE_SUFFIXES)]
    classes = [getattr(module, n) for n in names
               if hasattr(module, n) and inspect.isclass(getattr(module, n))]
    missing = [n for n in names
               if not resolves(module, n) and not any(resolves(c, n) for c in classes)]
    assert not missing, f"{module_name} row names {missing}"


def test_rates_paragraph_names_every_rates_json_key(tmp_path):
    text = README.read_text(encoding="utf-8")
    [paragraph] = [p for p in text.split("\n\n") if p.startswith("`verify rates` writes")]
    named = set(re.findall(r"`([^`]+)`", paragraph))
    doc = {**cli.preset_config("theorem-e0-kappa2"), "eps_list": [0.125, 0.0625, 0.03125],
           "n": 8, "m": 10, "dt": 1e-3, "t_end": 0.05, "snapshot_stride": 10}
    cli.run(doc, output_dir=str(tmp_path))
    keys = set(json.loads((tmp_path / "rates.json").read_text()))
    assert keys - named == set()
