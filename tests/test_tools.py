"""The output comparison in tools/same_output.py, on two small output trees."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import same_output  # noqa: E402

_TABLE = "mode,freq,label\r\n1,1.0,a\r\n2,0.25,b\r\n"


@pytest.fixture
def trees(tmp_path):
    """Two trees, parent and change, each holding the same table and plot file."""
    sides = []
    for side in ("parent", "change"):
        top = tmp_path / side
        (top / "exp1").mkdir(parents=True)
        (top / "exp1" / "results.csv").write_text(_TABLE, newline="")
        (top / "exp1" / "plot.json").write_text("{}")
        sides.append(top)
    return sides


def test_identical_trees(trees):
    assert same_output.differences(*map(str, trees)) == []


def test_numeric_roundoff_is_reported_as_the_largest_relative_difference(trees):
    moved = 1.0 + 1e-15
    (trees[1] / "exp1" / "results.csv").write_text(_TABLE.replace("1.0,", f"{moved!r},"),
                                                   newline="")
    assert same_output.differences(*map(str, trees)) == [  # 1e-15 rounds to 1.11e-15 at 1.0
        "exp1/results.csv: largest relative difference 1.11e-15 between numeric cells"
    ]


def test_changed_text_cell_is_reported(trees):
    (trees[1] / "exp1" / "results.csv").write_text(_TABLE.replace(",b", ",c"), newline="")
    [line] = same_output.differences(*map(str, trees))
    assert line == ("exp1/results.csv: largest relative difference 0 between numeric cells; "
                    "other cells or the row layout differ too")


def test_changed_row_layout_is_reported(trees):
    path = trees[1] / "exp1" / "results.csv"
    path.write_text(_TABLE + "3,0.5,c\r\n", newline="")
    text = same_output.csv_difference(str(trees[0] / "exp1" / "results.csv"), str(path))
    assert text.endswith("; other cells or the row layout differ too")


def test_file_in_one_tree_only(trees):
    (trees[0] / "exp1" / "extra.csv").write_text(_TABLE, newline="")
    (trees[1] / "exp2.csv").write_text(_TABLE, newline="")
    (trees[1] / "exp1" / "plot.json").write_text("[]")
    assert same_output.differences(*map(str, trees)) == [
        "exp1/extra.csv: only in parent",
        "exp1/plot.json: bytes differ",
        "exp2.csv: only in change",
    ]
