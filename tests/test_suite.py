import dataclasses
import json

import numpy as np
import pytest

import suite_oracles
from mttokit import suite
from mttokit.cli import main
from mttokit.errors import ParseError
from mttokit.fixtures import FIXTURE_NAMES
from mttokit.model_operator import action_check, defect_spaces, j_operators, s_theta
from mttokit.numerics import frobenius
from mttokit.serialize import canonical_json
from mttokit.suite import _REGISTRY, SuiteConfig, run_suite


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
    # FIX1 to FIX5 are [d, m] = [1, 1], [1, 2], [2, 2], [2, 1], [2, 2]
    fixtures_d_term = 8 * (1 + 2 + 2 * 8 + 8 + 2 * 8)
    assert suite.predicted_work(SuiteConfig(seed=0)) == 5 * (7 * 32**3 + fixtures_d_term + 8 * (2 * 8 + 2 * 27))
    assert suite.predicted_work(benchmark) == 6 * 32**3 + fixtures_d_term + 8 * 2 * 8
    assert suite.predicted_work(SuiteConfig(seed=0, cases=suite.MAX_SUITE_CASES)) <= suite.MAX_SUITE_WORK


@pytest.mark.parametrize("kwargs, message", [
    ({"cases": 101}, "cases 101 exceeds the limit of 100"),
    ({"cases": 1, "fixtures": ("FIX1",), "random_inners": ((16, 128),)}, "predicted suite work 8594161672 exceeds"),
    ({"cases": 1, "fixtures": ("FIX1",) * 1100, "random_inners": ()}, "predicted suite work 36053600 exceeds"),
    ({"cases": 1, "fixtures": ("FIX1",), "random_inners": ((320, 1),)}, "predicted suite work 294944776 exceeds"),
    ({"cases": 1, "fixtures": ("FIX1",), "random_inners": ((200, 1),)}, "predicted suite work 72032776 exceeds"),
])
def test_config_past_the_work_bound_is_refused_on_construction(kwargs, message):
    with pytest.raises(ParseError, match=message):
        SuiteConfig(seed=0, **kwargs)


def test_the_d_term_refuses_large_d_and_counts_small_d_by_the_window():
    # [320, 1] and [1, 320] have one window, but a case of the first ran 9 to 12 times longer
    def work(shape):
        return suite.predicted_work(SuiteConfig(seed=0, cases=1, fixtures=("FIX1",), random_inners=(shape,)))

    fix1 = 32**3 + 8
    assert work((1, 320)) == fix1 + 320**3 + 8 * 320
    assert work((4, 64)) == fix1 + 256**3 + 8 * 64 * 4**3
    assert work((150, 1)) == fix1 + 9 * 150**3 <= suite.MAX_SUITE_WORK  # ran about as long as [1, 320]
    assert work((1, 320)) <= suite.MAX_SUITE_WORK
    with pytest.raises(ParseError, match="max\\(m\\*d, 32\\)\\^3 \\+ 8\\*m\\*d\\^3"):
        SuiteConfig(seed=0, cases=1, fixtures=("FIX1",), random_inners=((320, 1),))


def test_report_shape_and_registry():
    names = [row[1] for row in _REGISTRY]
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


@pytest.mark.parametrize("dropped", [row[1] for row in _REGISTRY])
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
        retired = frobenius(np.eye(basis.n) - s @ s_adj - k0 @ k0.conj().T)
        named = {c["name"]: c["residual"] for c in action_check(basis)["checks"]}
        assert named["defect operator is evaluation at zero followed by the kernel frame"] == retired, label


@pytest.mark.parametrize("config", [SuiteConfig(seed=7), SuiteConfig(seed=7, cases=1, random_inners=((2, 2),))],
                         ids=["default", "benchmark"])
def test_a_run_on_the_shared_fixture_spaces_reports_what_a_cold_run_does(config):
    """The first run in a process builds the fixture spaces and their
    operator data (`suite._fixture_basis`); a later run reads them and
    writes the same bytes."""
    suite._fixture_basis.cache_clear()
    cold = canonical_json(run_suite(config))
    assert suite._fixture_basis.cache_info().currsize == len(FIXTURE_NAMES)
    assert canonical_json(run_suite(config)) == cold


def _reachable_arrays(obj, seen):
    """Every array reachable from obj through the package's objects and
    the dicts, tuples and lists they hold."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _reachable_arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _reachable_arrays(value, seen)
    elif type(obj).__module__.startswith("mttokit"):
        yield from _reachable_arrays(vars(obj), seen)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_no_array_of_a_shared_fixture_space_can_be_written(name):
    """Every run reads the same fixture space, so a write into any of its
    arrays would reach every later run: Q, Theta's coefficients, blocks and
    factors, the lazy data of Theta, and S, the defect data and J in the
    basis cache are all read-only."""
    run_suite(SuiteConfig(seed=0, cases=1, fixtures=(name,), random_inners=()))
    basis = suite._fixture_basis(name)
    j_operators(basis), basis.inner.adjoint_blocks, basis.inner.tail_inverse  # the lazy data the run may skip
    assert set(basis.cache) == {"shift", "defects", "j"}
    arrays = list(_reachable_arrays(basis, set()))
    assert any(a is basis.inner.theta.coeffs for a in arrays) and any(a is basis.q for a in arrays)
    assert len(arrays) == 21  # Q; Theta's coefficients, blocks, U, P, ranks and lazy data (8); S, S*, 9 defect arrays, J, J~
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


# --- the reduction ------------------------------------------------------------

BENCHMARK_SHAPE = {"cases": 1, "random_inners": ((2, 2),)}


def _bits(records):
    """The records with each worst residual as its bits, so a -0.0 differs from 0.0."""
    return [{**r, "max_residual": (type(r["max_residual"]), r["max_residual"].hex())} for r in records]


@pytest.mark.parametrize("shape", [BENCHMARK_SHAPE, {}], ids=["benchmark", "default"])
@pytest.mark.parametrize("seed", range(21))
def test_each_check_reduced_once_reports_what_the_per_residual_fold_did(seed, shape):
    """`run_suite` reduces each check's list of residuals once; every record,
    `cases`, the bits of `max_residual`, `pass` and `notes`, is the one the
    fold over each residual as it came gave."""
    config = SuiteConfig(seed=seed, **shape)
    assert _bits(run_suite(config)["checks"]) == _bits(suite_oracles.reference_records(config))


def _synthetic(*residuals):
    def check(basis, rng, config):
        yield from residuals

    return check


SYNTHETIC = {
    "negative_zero": _synthetic(-0.0, np.float64(-0.0), np.array([-0.0, -0.0])),
    "zero_dimensional": _synthetic(np.array(3e-10), np.array(-0.0), np.float64(1e-12), 0),
    "empty": _synthetic(np.zeros(0), np.zeros((0, 3)), 2e-10, np.zeros((2, 0))),
    "notes_only": _synthetic("nothing to check"),
    "notes_and_arrays": _synthetic(np.array([[1e-11, 4e-10], [2e-10, 0.0]]), "a note", 5e-10, "b note"),
    "huge": _synthetic(np.array([1e308, 1e308]), 1.5e308),
}


def test_synthetic_residuals_reduce_as_the_per_residual_fold_did(monkeypatch):
    """-0.0 reads 0.0, a 0-d array is one case, an empty array none, a check
    of notes alone has no case and a worst of 0.0, and residuals near the top
    of the float range are finite."""
    monkeypatch.setattr(suite, "_REGISTRY", [(30 + i, name, name, fn, 1e-9) for i, (name, fn) in enumerate(SYNTHETIC.items())])
    config = SuiteConfig(seed=3, cases=1, random_inners=((2, 2),))
    got = run_suite(config)["checks"]
    assert _bits(got) == _bits(suite_oracles.reference_records(config))
    spaces = len(FIXTURE_NAMES) + 1
    assert [(r["cases"], r["max_residual"], r["pass"]) for r in got] == [
        (4 * spaces, 0.0, True), (4 * spaces, 3e-10, True), (spaces, 2e-10, True),
        (0, 0.0, True), (5 * spaces, 5e-10, True), (3 * spaces, 1.5e308, False)]
    assert all(r["max_residual"].hex() == "0x0.0p+0" for r in got if r["max_residual"] == 0.0)
    assert got[3]["notes"] == sorted(f"{label}: nothing to check" for label, _ in suite._spaces(config))


NON_FINITE = {
    "nan": (float("nan"), 1, 0.0),
    "inf": (np.float64("inf"), 1, 0.0),
    "nan in an array": (np.array([0.1, np.nan]), 1, 0.1),
    "infinities in an array": (np.array([[np.inf], [0.2], [-np.inf]]), 2, 0.2),
}


def _with_serialization_yielding(monkeypatch, value):
    """The suite with its serialization check yielding `value` after its flag on every space."""
    def check(basis, rng, config):
        yield from suite._check_serialization(basis, rng, config)
        yield value

    monkeypatch.setattr(suite, "_REGISTRY", [row[:3] + (check,) + row[4:] if row[1] == "serialization" else row
                                             for row in suite._REGISTRY])


def _expected_serialization(value, count, worst, spaces):
    return {"name": "serialization", "anchor": "Laurent JSON round-trips bit for bit",
            "cases": spaces * (1 + np.size(value)), "max_residual": worst, "tol": suite.FLAG_CUT, "pass": False,
            "notes": [f"non-finite residuals: {spaces * count}"]}


@pytest.mark.parametrize("value,count,worst", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_non_finite_residual_fails_its_check_with_a_finite_worst(monkeypatch, value, count, worst):
    """A NaN or an infinity, alone or among finite residuals, fails its
    check, which reports the finite worst and notes how many residuals were
    not finite; every other record is unchanged.  The flags of the
    serialization check are 0.0 and its cut 0.5, so the worst alone would
    pass it."""
    config = SuiteConfig(seed=7, **BENCHMARK_SHAPE)
    want = run_suite(config)
    _with_serialization_yielding(monkeypatch, value)
    report = run_suite(config)
    got = {r["name"]: r for r in report["checks"]}
    assert got.pop("serialization") == _expected_serialization(value, count, worst, len(FIXTURE_NAMES) + 1)
    assert got == {r["name"]: r for r in want["checks"] if r["name"] != "serialization"}
    assert report["pass"] is False and want["pass"] is True
    canonical_json(report)  # a finite number, so the report can be written


@pytest.mark.parametrize("value,count,worst", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_mtto_suite_writes_a_failing_report_for_a_non_finite_residual(monkeypatch, capsys, value, count, worst):
    _with_serialization_yielding(monkeypatch, value)
    code = main(["suite", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["pass"] is False
    record = next(r for r in report["checks"] if r["name"] == "serialization")
    assert record == _expected_serialization(value, count, worst, len(FIXTURE_NAMES) + 2)
    assert all(r["pass"] for r in report["checks"] if r["name"] != "serialization")
