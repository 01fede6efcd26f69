"""Scenario runner: registry, seed derivation, report canonicalization."""

import json
from pathlib import Path

import pytest

from propring import checks, graded, modules
from propring.checks import CHECKS, parse_scenario, report_bytes, report_csv, run_scenario, sub_rng
from propring.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "name": "tiny",
    "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
    "seed": 3,
    "checks": [
        "arithmetic-oracles",
        {"check": "hilbert-series", "params": {"tmax": 4}},
    ],
}


def test_registry_names():
    assert sorted(CHECKS) == [
        "arithmetic-oracles",
        "central-power-classes",
        "exponent-transfer",
        "hilbert-series",
        "ideal-power-spans",
        "quaternion-commutator",
        "restriction-determinism",
        "sandwich",
        "tau-contract",
    ]


def test_sub_rng_is_seed_and_name_separated():
    a = sub_rng(1, "x").integers(0, 10**9, size=4)
    b = sub_rng(1, "x").integers(0, 10**9, size=4)
    c = sub_rng(1, "y").integers(0, 10**9, size=4)
    d = sub_rng(2, "x").integers(0, 10**9, size=4)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_parse_scenario_validation():
    name, cfg, seed, checks = parse_scenario(TINY)
    assert name == "tiny" and seed == 3 and len(checks) == 2
    for broken in (
        [],
        {"config": TINY["config"], "checks": ["arithmetic-oracles"]},
        {"name": "x", "config": TINY["config"], "checks": []},
        {"name": "x", "config": TINY["config"], "checks": ["nope"]},
        {"name": "x", "config": {"p": 5, "f": 1, "M": 2}, "checks": ["arithmetic-oracles"]},
    ):
        with pytest.raises(ConfigError):
            parse_scenario(broken)


def test_run_scenario_deterministic():
    r1, code1 = run_scenario(TINY)
    r2, code2 = run_scenario(TINY)
    assert code1 == code2 == 0
    assert report_bytes(r1) == report_bytes(r2)
    assert [c["status"] for c in r1["checks"]] == ["pass", "pass"]
    # checks run in name order regardless of scenario order
    assert [c["name"] for c in r1["checks"]] == ["arithmetic-oracles", "hilbert-series"]


def test_timings_do_not_touch_canonical_bytes():
    plain, _ = run_scenario(TINY)
    timed, _ = run_scenario(TINY, include_timings=True)
    assert any("elapsed_s" in c for c in timed["checks"])
    assert report_bytes(plain) == report_bytes(timed)


def test_report_csv_shape():
    report, _ = run_scenario(TINY)
    lines = report_csv(report).strip().splitlines()
    assert lines[0] == "check,status"
    assert lines[1:] == ["arithmetic-oracles,pass", "hilbert-series,pass"]


def test_header_carries_config_and_seed():
    report, _ = run_scenario(TINY)
    h = report["header"]
    assert (h["p"], h["f"], h["M"], h["N"], h["case"], h["seed"]) == (5, 1, 2, 1, "GL2", 3)


def test_parse_scenario_rejects_non_integer_params():
    for bad in ("x", 8.0, True, None, [8]):
        data = dict(TINY, checks=[{"check": "hilbert-series", "params": {"tmax": bad}}])
        with pytest.raises(ConfigError):
            parse_scenario(data)
    with pytest.raises(ConfigError):
        parse_scenario(dict(TINY, checks=[7]))
    # unknown keys, out-of-range values and an unsupported case are refused
    # before any check runs
    for check, params in (
        ("hilbert-series", {"tmax": 4, "tmx": 4}),
        ("hilbert-series", {"tmax": -1}),
        ("ideal-power-spans", {"jmax": 0}),
        ("sandwich", {"samples": -3}),
        ("tau-contract", {"samples": 0}),
        ("restriction-determinism", {"basis_changes": -1}),
        ("quaternion-commutator", {}),
    ):
        data = dict(TINY, checks=[{"check": check, "params": params}])
        with pytest.raises(ConfigError):
            parse_scenario(data)
    with pytest.raises(ConfigError):
        parse_scenario(dict(TINY, checks=[{"check": "sandwich", "param": {"N": 1}}]))


SHIPPED = sorted((ROOT / "scenarios").glob("*.json")) + [
    ROOT / "bench" / "data" / "verify-gl2.json",
    ROOT / "bench" / "data" / "verify-quat.json",
]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_scenarios_parse(path):
    parse_scenario(json.loads(path.read_text()))


def test_every_registered_check_is_reported():
    # each registered check runs in at least one shipped scenario, so none
    # is tested without ever reaching a report
    reported = set()
    for path in (ROOT / "scenarios").glob("*.json"):
        for item in json.loads(path.read_text())["checks"]:
            reported.add(item if isinstance(item, str) else item["check"])
    assert set(checks.REGISTRY) <= reported, sorted(set(checks.REGISTRY) - reported)


def test_corpus_checks_share_one_corpus(monkeypatch):
    corpus_calls, cuts = [], []

    def counting(fn, calls):
        def wrapped(*args, **kwargs):
            calls.append(args[1:])
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(checks, "module_corpus", counting(checks.module_corpus, corpus_calls))
    monkeypatch.setattr(modules, "weight_quotient_module",
                        counting(modules.weight_quotient_module, cuts))
    params = {"N": 1, "count": 2}
    data = dict(TINY, checks=[{"check": "exponent-transfer", "params": params},
                              {"check": "restriction-determinism", "params": params}])
    report, code = run_scenario(data)
    assert code == 0
    assert len(corpus_calls) == 1
    assert len(cuts) == len(set(cuts)) == 3


def test_broken_tau_contract_fails(monkeypatch):
    # dropping the remainder factors breaks nu(tau(x)) = nu(x); that is a
    # violated claim, reported as fail with the monomial as witness
    quick = ROOT / "scenarios" / "quick_gl2.json"
    data = json.loads(quick.read_text())
    data["checks"] = [c for c in data["checks"]
                      if isinstance(c, dict) and c["check"] == "tau-contract"]
    def chunk_only(alg, exps, N):
        chunk, _ = graded.tau_exponents(alg, exps, N)
        return [(i, e) for i, e in enumerate(chunk) if e]

    monkeypatch.setattr(graded, "tau_word", chunk_only)
    report, code = run_scenario(data)
    assert code == 1
    [entry] = report["checks"]
    assert entry["name"] == "tau-contract" and entry["status"] == "fail"
    assert "rewriting" in entry["witness"]
