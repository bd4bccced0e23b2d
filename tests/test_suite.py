import pytest

from mttokit.errors import ParseError
from mttokit.suite import SuiteConfig, check_names, run_suite


def test_config_defaults_and_round_trip():
    cfg = SuiteConfig.from_json({"seed": 3})
    assert cfg.cases == 5 and cfg.tol == 1e-9
    assert SuiteConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"seed": "3"},
        {"seed": True},
        {"seed": 3, "cases": -1},
        {"seed": 3, "fixtures": ["FIX9"]},
        {"seed": 3, "fixtures": "FIX1"},
        {"seed": 3, "random_inners": [[2]]},
        {"seed": 3, "random_inners": [[2, 0]]},
        {"seed": 3, "tol": 2.0},
        {"seed": 3, "bogus": 1},
        ["seed", 3],
    ],
)
def test_config_rejects_bad_payloads(payload):
    with pytest.raises(ParseError):
        SuiteConfig.from_json(payload)


def test_report_shape_and_registry():
    names = check_names()
    assert len(names) == len(set(names))
    assert "worked_example" in names and "members" in names
    cfg = SuiteConfig.from_json(
        {"seed": 9, "cases": 1, "fixtures": ["FIX3", "FIX4"], "random_inners": []}
    )
    report = run_suite(cfg)
    assert report["schema_version"] == 1
    assert [c["name"] for c in report["checks"]] == names
    for c in report["checks"]:
        assert c["anchor"]
        assert c["cases"] >= 1 or "notes" in c
        assert c["max_residual"] <= c["tol"]
    # FIX4 has no complement, so the rejection check must say why it skipped it
    non_members = next(c for c in report["checks"] if c["name"] == "non_members")
    assert any("FIX4" in note for note in non_members.get("notes", []))
    assert report["pass"]


def test_random_inner_of_dimension_nine_passes():
    # guards the model-space dimension checks against a cost that grows like d!
    report = run_suite(SuiteConfig(seed=1, random_inners=((9, 2),)))
    assert report["pass"]
