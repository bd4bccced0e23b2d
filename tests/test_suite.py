import dataclasses

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
    "payload, message",
    [
        ({}, "suite config needs a seed"),
        ({"seed": "3"}, "seed must be a non-negative integer"),
        ({"seed": True}, "seed must be a non-negative integer"),
        ({"seed": 3, "cases": -1}, "cases must be a positive integer"),
        ({"seed": 3, "fixtures": ["FIX9"]}, "unknown fixture 'FIX9'"),
        ({"seed": 3, "fixtures": "FIX1"}, "fixtures must be a non-empty list of fixture names"),
        ({"seed": 3, "random_inners": [[2]]}, "random_inners entries must be pairs of positive integers"),
        ({"seed": 3, "random_inners": [[2, 0]]}, "random_inners entries must be pairs of positive integers"),
        ({"seed": 3, "tol": 2.0}, "tol must be a number in (0, 1)"),
        ({"seed": 3, "bogus": 1}, "unknown suite config keys: ['bogus']"),
        (["seed", 3], "suite config must be a JSON object"),
    ],
)
def test_config_rejects_bad_payloads(payload, message):
    with pytest.raises(ParseError) as err:
        SuiteConfig.from_json(payload)
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": 0, "cases": 0}, "cases must be a positive integer"),
    ({"seed": 0, "random_inners": ((0, 2),)}, "random_inners entries must be pairs of positive integers"),
    ({"seed": 0, "tol": 5.0}, "tol must be a number in (0, 1)"),
    ({"seed": 0, "fixtures": ("FIX9",)}, "unknown fixture 'FIX9'"),
])
def test_config_fields_are_checked_on_every_construction(kwargs, message):
    with pytest.raises(ParseError) as err:
        SuiteConfig(**kwargs)
    assert str(err.value) == message


def test_constructed_configs_hold_tuples():
    cfg = SuiteConfig(seed=0, fixtures=["FIX2"], random_inners=[[2, 2]], tol=1e-8)
    assert cfg == SuiteConfig(seed=0, fixtures=("FIX2",), random_inners=((2, 2),), tol=1e-8)
    assert SuiteConfig(seed=0, random_inners=()).random_inners == ()


@pytest.mark.parametrize("field", ["seed", "cases", "fixtures", "random_inners", "tol"])
def test_a_config_is_frozen_so_no_assignment_gets_round_its_bounds(field):
    cfg = SuiteConfig(seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, 10**9)
    assert cfg == SuiteConfig(seed=0) and suite.predicted_work(cfg) <= suite.MAX_SUITE_WORK


def test_default_and_benchmark_configs_are_within_the_work_bound():
    benchmark = SuiteConfig(seed=0, cases=1, random_inners=((2, 2),))
    assert suite.predicted_work(SuiteConfig(seed=0)) == 5 * 7 * 32**3
    assert suite.predicted_work(benchmark) == 6 * 32**3
    assert suite.predicted_work(SuiteConfig(seed=0, cases=suite.MAX_SUITE_CASES)) <= suite.MAX_SUITE_WORK


@pytest.mark.parametrize("kwargs, message", [
    ({"cases": 101}, "cases 101 exceeds the limit of 100"),
    ({"cases": 1, "fixtures": ("FIX1",), "random_inners": ((16, 128),)}, "predicted suite work 8589967360 exceeds"),
    ({"cases": 1, "fixtures": ("FIX1",) * 1100, "random_inners": ()}, "predicted suite work 36044800 exceeds"),
])
def test_config_past_the_work_bound_is_refused_on_construction(kwargs, message):
    with pytest.raises(ParseError, match=message):
        SuiteConfig(seed=0, **kwargs)


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
