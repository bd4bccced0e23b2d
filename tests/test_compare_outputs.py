"""The output comparison of `tools/compare_outputs.py`, on small matrices.

The tool runs each CLI command of its matrix in two source trees, as its
own process, and reports what differs.  Here: the working tree against a
copy of itself is identical in every run; a copy patched to move one float
of `op build` is reported at `entries` and nowhere else; a JSON difference
is addressed by key path, a named check by its name; and the checkout of
a revision is removed when a command fails.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
tool = sys.modules["compare_outputs"] = importlib.util.module_from_spec(_spec)  # its dataclasses look it up there
_spec.loader.exec_module(tool)


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "copy" / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "copy"


def _inputs(folder: Path, names):
    payloads = tool.write_inputs(folder, names)
    tool.build_operators(tool.ROOT, payloads, folder)
    return payloads


def test_the_working_tree_against_a_copy_of_itself_is_identical_everywhere(tmp_path):
    folder = tmp_path / "inputs"
    folder.mkdir()
    payloads = _inputs(folder, {"FIX5-coeffs"})
    commands = [c for c in tool.command_matrix(payloads, tool.suite_configs(folder)) if "--tol" not in c.argv]
    commands = [c for c in commands if c.argv[0] != "suite" or c.name == "suite benchmark seed 0"]
    assert len(commands) == 11  # dim, inner check, space basis, op build, 2 zero-tests, 4 on operators, suite
    report = tool.compare(ROOT, _copy(tmp_path), commands, folder)
    assert report["runs"] == 2 * len(commands) == report["identical"] and report["differing"] == []
    assert all(r["stdout"] and r["stderr"] and r["status"] and r["out"] for r in report["results"])


def test_a_copy_that_moves_one_float_of_op_build_is_reported_at_entries(tmp_path):
    copy = _copy(tmp_path)
    cli = copy / "src" / "mttokit" / "cli.py"
    line = "    entries = serialize.matrix_to_json(build(basis, _load_symbol(args.symbol)).mat)\n"
    assert line in cli.read_text()
    cli.write_text(cli.read_text().replace(line, line + "    entries[0][0][0] += 1e-9\n"))
    folder = tmp_path / "inputs"
    folder.mkdir()
    payloads = _inputs(folder, {"FIX5-potapov"})
    commands = [c for c in tool.command_matrix(payloads) if c.name.endswith(("op build", "dim"))]
    report = tool.compare(ROOT, copy, commands, folder)
    assert report["differing"] == ["FIX5-potapov op build", "FIX5-potapov op build --out"]
    plain, written = (r for r in report["results"] if r["command"].startswith("FIX5-potapov op build"))
    assert not plain["stdout"] and plain["out"] and plain["stderr"] and plain["status"]
    assert not written["out"] and written["stdout"]
    for diff in (plain["stdout_differences"], written["out_differences"]):
        assert list(diff) == ["entries"] and 0 < diff["entries"]["largest_relative_move"] < 1e-6


def test_differences_name_each_key_path_and_its_largest_relative_move():
    parent = {"n": 2, "entries": [[[1.0, 0.0], [2.0, 0.5]]], "verdict": True,
              "checks": [{"name": "shift", "max_residual": 1e-15, "pass": True}, {"name": "tau", "max_residual": 0.0}]}
    change = json.loads(json.dumps(parent))
    change["entries"][0][1][0] = 2.5
    change["checks"][0]["max_residual"] = 2e-15
    change["verdict"] = False
    assert tool.differences(parent, change) == {
        "entries": {"largest_relative_move": 0.2},
        "verdict": {"parent": True, "change": False},
        "checks[shift].max_residual": {"largest_relative_move": 0.5, "parent": 1e-15, "change": 2e-15},
    }
    change["entries"][0].append([0.0, 0.0])
    assert tool.differences(parent, change)["entries"] == {"parent_leaves": 4, "change_leaves": 6}
    assert tool.differences(parent, parent) == {}


def test_the_checkout_is_removed_when_a_command_fails(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "mttokit").mkdir(parents=True)
    (repo / "src" / "mttokit" / "__init__.py").write_text("")
    (repo / "src" / "mttokit" / "cli.py").write_text("import sys\nsys.exit(3)\n")
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "a tree whose every command fails"]):
        subprocess.run(git + args, check=True, capture_output=True)
    folder = tmp_path / "inputs"
    folder.mkdir()
    payloads = tool.write_inputs(folder, {"FIX1-potapov"})
    trees = []
    with pytest.raises(RuntimeError, match="parent op build on FIX1-potapov exited 3"):
        with tool.checkout("HEAD", repo) as tree:
            trees.append(tree)
            assert (tree / "src" / "mttokit" / "cli.py").read_text() == "import sys\nsys.exit(3)\n"
            tool.build_operators(tree, payloads, folder)
    assert len(trees) == 1 and not trees[0].exists()
