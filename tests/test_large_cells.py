"""The cold-process measurement of `tools/large_cells.py`, on reduced cells.

The tool writes each cell's inputs once, runs every command of the cell
as its own process in two source trees, alternating which tree runs
first, and reports each command's wall time, peak RSS, bytes written and
exit status over the pairs.  Here, on cells of n <= 12: every field is
recorded for both trees; a cell whose draw outlasts its budget is
recorded as refused; the checkout of a revision is removed when a command
fails; and the tool's Theta product matches the block-by-block oracle.
"""

import contextlib
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("large_cells", ROOT / "tools" / "large_cells.py")
tool = sys.modules["large_cells"] = importlib.util.module_from_spec(_spec)  # its dataclasses look it up there
_spec.loader.exec_module(tool)

_FIELDS = ("wall_s", "peak_rss_mb", "bytes", "status")


def _negative(command):
    return command.endswith(("non-member", "non-zero"))


def test_every_field_of_every_command_is_recorded_for_both_trees(tmp_path):
    cell = tool.Cell("tiny-potapov", "potapov", 2, (1, 2, 1))
    (record,) = tool.measure(ROOT, ROOT, [cell], 1, tmp_path)
    assert {key: record[key] for key in ("name", "kind", "d", "m", "n")} == {
        "name": "tiny-potapov", "kind": "potapov", "d": 2, "m": 3, "n": 4}
    assert record["input_s"] > 0 and "refused" not in record
    assert [c["command"] for c in record["commands"]] == list(tool.ALL)
    for c in record["commands"]:
        for side in ("parent", "change"):
            runs = c[side]
            assert runs["status"] == [1 if _negative(c["command"]) else 0], (c["command"], runs["stderr"])
            assert runs["wall_s"][0] > 0 and runs["peak_rss_mb"][0] > 10
            # every run writes a document but a refused recovery, which writes one error line
            refused = c["command"] == "op recover non-member"
            assert (runs["bytes"][0] == 0) is refused and runs["stderr"].startswith('{"error":"E_NOT_MTTO"') is refused
    assert not list(tmp_path.glob("stdout")) and not list(tmp_path.glob("peak"))


def test_pairs_alternate_the_trees_and_give_median_and_range(tmp_path, monkeypatch):
    cell = tool.Cell("tiny-coeffs", "coeffs", 2, (1, 2), ("dim", "space basis"), q_share=True)
    order, run_cold = [], tool.run_cold
    monkeypatch.setattr(tool, "run_cold", lambda tree, argv, folder: order.append((tree, argv[0]))
                        or run_cold(tree, argv, folder))
    change = tmp_path / "change"
    change.symlink_to(ROOT, target_is_directory=True)
    folder = tmp_path / "inputs"
    folder.mkdir()
    (record,) = tool.measure(ROOT, change, [cell], 2, folder)
    assert order == [(ROOT, "dim"), (change, "dim"), (ROOT, "space"), (change, "space"),
                     (change, "dim"), (ROOT, "dim"), (change, "space"), (ROOT, "space")]
    for c in record["commands"]:
        for side in ("parent", "change"):
            runs = c[side]
            assert all(len(runs[key]) == 2 for key in _FIELDS) and runs["status"] == [0, 0]
            for key in _FIELDS[:3]:
                assert runs[f"{key}_median"] == statistics.median(runs[key])
                assert runs[f"{key}_range"] == [min(runs[key]), max(runs[key])]
    assert record["q_share_below_2^-511"] == {"parent": 0.0, "change": 0.0}


def test_a_cell_whose_draw_outlasts_its_budget_is_recorded_as_refused(tmp_path):
    # a unit vector orthogonal to both lines of C^3 is fixed by Theta(0), so no draw has ||Theta(0)|| <= 0.95
    cell = tool.Cell("never-drawn", "potapov", 3, (1, 1))
    start = time.perf_counter()
    (record,) = tool.measure(ROOT, ROOT, [cell], 1, tmp_path, budget=1.0)
    assert record["refused"] == "the input draw ran past its budget of 1 s" and "commands" not in record
    assert 1.0 <= record["input_s"] <= time.perf_counter() - start < 30


def test_the_checkout_is_removed_when_a_command_fails(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src" / "mttokit").mkdir(parents=True)
    (repo / "src" / "mttokit" / "__init__.py").write_text("")
    (repo / "src" / "mttokit" / "cli.py").write_text("import sys\nsys.exit(3)\n")
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "a tree whose every command fails"]):
        subprocess.run(git + args, check=True, capture_output=True)
    trees, checkout = [], tool.checkout

    @contextlib.contextmanager
    def recorded(rev):
        with checkout(rev, repo) as tree:
            trees.append(tree)
            yield tree

    monkeypatch.setattr(tool, "checkout", recorded)
    with pytest.raises(RuntimeError, match="parent op build on grid-d1-m2 exited 3"):
        tool.main(["--parent", "HEAD", "--cells", "grid-d1-m2", "--pairs", "1"])
    assert len(trees) == 1 and not trees[0].exists()


def test_cells_are_chosen_by_name_or_pattern():
    assert [c.name for c in tool.select_cells(["n1000-*", "edge-coeffs"])] == [
        "n1000-potapov", "n1000-coeffs", "edge-coeffs"]
    assert len(tool.select_cells(None)) == len(tool.CELLS) == len({c.name for c in tool.CELLS})
    with pytest.raises(SystemExit, match="no cell matches"):
        tool.select_cells(["n2000"])


def test_theta_coefficients_match_the_block_by_block_product():
    u, projections = tool.workloads.random_potapov(3, [1, 2, 2, 1], np.random.default_rng(4))
    lo, reference = sys.modules["compare_outputs"].oracles.potapov_theta(u, projections)
    assert lo == 0 and np.abs(tool.theta_coefficients(u, projections) - reference).max() <= 1e-15
