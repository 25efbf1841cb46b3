"""The output comparison in tools/same_output.py, on two small output trees,
tools/bench_json.py's parse and summary of perfbench runs and its source line count, and
tools/acc6_scan.py's seed scan."""

import os
import subprocess
import sys

import pytest

from modalcs import preset_config, run_experiment

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import acc6_scan  # noqa: E402
import bench_json  # noqa: E402
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


def test_signed_zeros_are_a_relative_difference_of_zero(trees):
    # 0.0 against -0.0 used to divide by max(|0.0|, |-0.0|) = 0.
    table = _TABLE.replace("0.25", "0.0")
    (trees[0] / "exp1" / "results.csv").write_text(table, newline="")
    (trees[1] / "exp1" / "results.csv").write_text(table.replace("0.0", "-0.0"), newline="")
    assert same_output.differences(*map(str, trees)) == [
        "exp1/results.csv: largest relative difference 0 between numeric cells"
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


# The stdout of `perfbench/run.py --workload presets --seed 1 --seconds 3 --trace 0`.
_PERFBENCH_STDOUT = """\
env {"blas": "scipy-openblas 0.3.31.188.0", "nproc": 2, "numpy": "2.4.6", "seed": 1}
workload presets: 552 ops attempted, 0 failed, fail_ratio 0.0000, 60 speed probes
  setup_s                                          0.178651 s  (n = 7 fresh processes, raw median 0.1752 s)
  first_op_s                                       0.00548742 s  (n = 7 fresh processes, raw median 0.005845 s)
  op_p50_s                                         0.011129 s  (n = 250 timed ops, raw 0.01158 s)
  op_p90_s                                         0.0163368 s  (n = 250 timed ops, raw 0.01999 s)
  ops_per_s                                        98.5929 1/s  (n = 250 timed ops, raw 87.07 1/s)
  peak_rss_mb                                      45.4688 MB
  shape_err_max                                    1.09879 1
  baseline_err_max                                 0.733806 1
  ok_ratio                                         1 1  (n = 552 ops attempted)
{"correct": true, "attempted": 552, "failed": 0, "metrics": {"setup_s": {"value": 0.17865124817712583, \
"unit": "s"}, "first_op_s": {"value": 0.0054874244694157375, "unit": "s"}, "op_p50_s": {"value": \
0.011128967694580388, "unit": "s"}, "op_p90_s": {"value": 0.016336781865905658, "unit": "s"}, "ops_per_s": \
{"value": 98.59291907851684, "unit": "1/s"}, "peak_rss_mb": {"value": 45.46875, "unit": "MB"}, \
"shape_err_max": {"value": 1.0987887296306522, "unit": "1"}, "baseline_err_max": {"value": \
0.7338062607624356, "unit": "1"}, "ok_ratio": {"value": 1.0, "unit": "1"}}}
"""


def test_perfbench_stdout_parses_to_metrics_and_raw_figures():
    run = bench_json.parse_run(_PERFBENCH_STDOUT)
    assert run["env"]["nproc"] == 2 and (run["correct"], run["attempted"], run["failed"]) == (True, 552, 0)
    assert run["metrics"]["ops_per_s"] == 98.59291907851684 and len(run["metrics"]) == 9
    assert run["raw"] == {"setup_s": 0.1752, "first_op_s": 0.005845, "op_p50_s": 0.01158,
                          "op_p90_s": 0.01999, "ops_per_s": 87.07}


def test_summary_gives_raw_medians_and_wins_beside_the_scaled_ones():
    def run(scaled, raw):
        parsed = bench_json.parse_run(_PERFBENCH_STDOUT)
        parsed["metrics"]["ops_per_s"], parsed["raw"]["ops_per_s"] = scaled, raw
        return parsed

    runs = {"parent": [run(90.0, 80.0), run(92.0, 79.0), run(91.0, 81.0)],
            "change": [run(100.0, 90.0), run(89.0, 88.0), {"seed": 3, "error": "exit 1: "}]}
    specs = [{"name": name, "unit": "1", "better": better, "bound": 0.25}
             for name, better in (("ops_per_s", "higher"), ("peak_rss_mb", "lower"))]
    summary = bench_json._summarize(runs, specs)
    ops = summary["ops_per_s"]
    assert (ops["parent"]["median"], ops["change"]["median"], ops["change_wins"], ops["pairs"]) == (91.0, 94.5, 1, 2)
    assert ops["raw"]["parent"] == {"median": 80.0, "q1": 79.5, "q3": 80.5, "n": 3}
    assert (ops["raw"]["change"]["median"], ops["raw"]["change_wins"], ops["raw"]["pairs"]) == (89.0, 2, 2)
    assert "raw" not in summary["peak_rss_mb"]  # perfbench prints no raw figure for it


def test_src_lines_counts_newlines_of_the_package_modules_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "modalcs"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    assert bench_json.src_lines(str(tmp_path)) == 3
    assert bench_json.src_lines(bench_json.ROOT) == int(subprocess.run(
        "cat src/modalcs/*.py | wc -l", shell=True, cwd=bench_json.ROOT, capture_output=True,
        text=True, check=True).stdout)


def test_acc6_scan_first_block_is_the_exp4_mean():
    # spawn_seeds is prefix-stable, so 40 seeds start with the preset's 20.
    table = run_experiment(preset_config("exp4"))
    [mean] = [row[-1] for row in table.rows if row[0] == "compressed_mean"]
    result = acc6_scan.scan(seeds=40)
    assert len(result["block_means"]) == 2 and result["worst"].size == 40
    assert result["block_means"][0] == mean  # bit for bit: 0.12774674289642665 here
    assert result["eps"].shape == (20,) and result["bounds"].shape == (20, 4)
    assert (result["first_errors"] <= result["bounds"]).all()  # the compressed bound holds
