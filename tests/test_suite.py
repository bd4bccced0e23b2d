import numpy as np
import pytest

from mttokit import suite
from mttokit.errors import ParseError
from mttokit.model_operator import action_check, defect_spaces, s_theta
from mttokit.numerics import frobenius
from mttokit.serialize import canonical_json
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
    # a d = 9 space passes every check of the battery
    report = run_suite(SuiteConfig(seed=1, random_inners=((9, 2),)))
    assert report["pass"]


def test_tol_is_the_relative_decision_threshold():
    # a threshold below the roundoff of a built operator refuses the members,
    # and the report counts each refusal as a failed case
    base = {"seed": 7, "cases": 2, "fixtures": ["FIX3"], "random_inners": [[2, 2]]}
    checks = {c["name"]: c for c in run_suite(SuiteConfig.from_json(base))["checks"]}
    tight = {c["name"]: c for c in run_suite(SuiteConfig.from_json({**base, "tol": 1e-17}))["checks"]}
    for name in ("members", "symbol_recovery"):
        assert checks[name]["pass"] and not tight[name]["pass"], name
        assert tight[name]["cases"] == checks[name]["cases"]
    # a certified non-member of unit norm has residual above 1, so any
    # tol in (0, 1) still rejects it
    loose = {c["name"]: c for c in run_suite(SuiteConfig.from_json({**base, "tol": 0.5}))["checks"]}
    assert loose["non_members"] == checks["non_members"]


@pytest.mark.parametrize("k", range(23))
def test_stream_k_is_the_kth_spawned_child(k):
    def draws(seq):
        return np.random.default_rng(seq).integers(2**63, size=4).tolist()

    assert draws(np.random.SeedSequence(entropy=7, spawn_key=(k,))) == draws(np.random.SeedSequence(7).spawn(23)[k])


@pytest.fixture(scope="module")
def report_7():
    return run_suite(SuiteConfig(seed=7))


@pytest.mark.parametrize("dropped", check_names())
def test_dropping_a_check_moves_no_other_checks_draws(monkeypatch, report_7, dropped):
    monkeypatch.setattr(suite, "_REGISTRY", [row for row in suite._REGISTRY if row[1] != dropped])
    want = [canonical_json(c) for c in report_7["checks"] if c["name"] != dropped]
    assert [canonical_json(c) for c in run_suite(SuiteConfig(seed=7))["checks"]] == want


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_shift_actions_reports_the_defect_identity_of_the_retired_check(seed):
    """I - S S* = K0 K0* (K0 = Q[:d]*), which the suite once checked on its
    own, is the residual `action_check` names for the defect operator, bit
    for bit, on the fixtures and seeded spaces."""
    config = SuiteConfig(seed=seed, random_inners=((2, 2), (3, 2), (3, 3), (4, 2)))
    for label, basis in suite._spaces(config):
        s, s_adj = s_theta(basis)
        k0 = defect_spaces(basis).d_frame
        retired = frobenius(np.eye(basis.n) - s.mat @ s_adj.mat - k0 @ k0.conj().T)
        named = {c["name"]: c["residual"] for c in action_check(basis)["checks"]}
        assert named["defect operator is evaluation at zero followed by the kernel frame"] == retired, label
