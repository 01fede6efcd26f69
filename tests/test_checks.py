"""Scenario runner: registry, seed derivation, report canonicalization."""

import json
from pathlib import Path

import numpy as np
import pytest

from propring import checks, graded, modules
from propring.algebra import group_algebra
from propring.checks import CHECKS, parse_scenario, report_bytes, report_csv, run_scenario, sub_rng
from propring.cli import main
from propring.config import PrimeConfig
from propring.errors import ConfigError, ContractViolation

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


def test_quaternion_commutator_level_is_bounded():
    # a level whose p-adic arithmetic would run for minutes is refused by
    # the registry's bound, before the check runs; the bound itself parses
    quat = dict(TINY, config=dict(TINY["config"], case="QUAT"))
    for level, ok in ((256, True), (257, False), (100_000, False)):
        data = dict(quat, checks=[{"check": "quaternion-commutator", "params": {"level": level}}])
        if ok:
            assert parse_scenario(data)[3][0][2] == {"level": level}
        else:
            with pytest.raises(ConfigError, match=r"'quaternion-commutator' needs 2 <= level <= 256"):
                parse_scenario(data)


def test_basis_changes_are_bounded(monkeypatch, tmp_path, capsys):
    # every basis change of restriction-determinism is held at once, so a
    # count past the registry's bound is refused: verify exits 2 with a
    # config error before any check runs; the bound itself parses
    ran = []
    monkeypatch.setattr(checks, "CHECKS", {name: lambda *a, **k: ran.append(a)
                                           for name in checks.CHECKS})
    for count, ok in ((16, True), (17, False), (8000, False)):
        params = {"N": 1, "count": 1, "basis_changes": count}
        data = dict(TINY, checks=[{"check": "restriction-determinism", "params": params}])
        if ok:
            assert parse_scenario(data)[3][0][2]["basis_changes"] == count
            continue
        path = tmp_path / "bc.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: 'restriction-determinism' needs 1 <= basis_changes <= 16"), captured.err
    assert not ran


@pytest.mark.parametrize("check,key,bound", [
    ("exponent-transfer", "count", 400),
    ("restriction-determinism", "count", 400),
    ("sandwich", "samples", 2000),
    ("sandwich", "mono_samples", 2000),
    ("tau-contract", "samples", 2000),
])
def test_size_params_are_bounded(check, key, bound, monkeypatch, tmp_path, capsys):
    # the corpus and the samples are held until the check reports, so a
    # size past the registry's bound is refused: verify exits 2 with a
    # config error before any check runs; the bound itself parses
    ran = []
    monkeypatch.setattr(checks, "CHECKS", {name: lambda *a, **k: ran.append(a)
                                           for name in checks.CHECKS})
    data = dict(TINY, checks=[{"check": check, "params": {key: bound}}])
    assert parse_scenario(data)[3][0][2][key] == bound
    data["checks"][0]["params"][key] = bound + 1
    path = tmp_path / "size.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: {check!r} needs 1 <= {key} <= {bound}, got {bound + 1}"), captured.err
    assert not ran


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
    # no weight quotient is built twice, and only the corpus cuts are built
    assert len(cuts) == len(set(cuts))
    assert {jcut for (jcut,) in cuts} == {5, 6}


def test_broken_tau_contract_fails(monkeypatch):
    # dropping the remainder factors breaks nu(tau(x)) = nu(x); that is a
    # violated claim, reported as fail with the monomial as witness
    quick = ROOT / "scenarios" / "quick_gl2.json"
    data = json.loads(quick.read_text())
    data["checks"] = [c for c in data["checks"]
                      if isinstance(c, dict) and c["check"] == "tau-contract"]
    split = graded.tau_exponents

    def chunk_only(alg, exps, N):
        chunks, _ = split(alg, exps, N)
        return chunks, np.zeros_like(chunks)

    monkeypatch.setattr(graded, "tau_exponents", chunk_only)
    report, code = run_scenario(data)
    assert code == 1
    [entry] = report["checks"]
    assert entry["name"] == "tau-contract" and entry["status"] == "fail"
    assert "rewriting" in entry["witness"]
    # the monomial itself, as a JSON list of its exponents
    x = entry["witness_data"]
    assert isinstance(x, list) and len(x) == 3 and str(tuple(x)) in entry["witness"]


def test_tau_word_missing_last_factor_fails(monkeypatch):
    # a word that loses its last factor (the last nonzero remainder, or the
    # last nonzero chunk exponent of a word without remainders) lowers the
    # weight of the image: the rewriting raises with the monomial as
    # witness, and the whole quick scenario reports tau-contract as fail
    # and exits 1
    split = graded.tau_exponents

    def missing_last(alg, exps, N):
        word = np.hstack(split(alg, exps, N))  # chunk exponents, then remainders
        rows = np.flatnonzero(word.any(axis=1))
        last = word.shape[1] - 1 - np.argmax(word[rows, ::-1] != 0, axis=1)
        word[rows, last] = 0
        return word[:, :alg.n], word[:, alg.n:]

    monkeypatch.setattr(graded, "tau_exponents", missing_last)
    alg = group_algebra(PrimeConfig(5, 1, 2, "GL2", N=1))
    with pytest.raises(ContractViolation) as err:
        graded.tau_rewrite(alg, (7, 6, 1), 1)
    assert err.value.witness == (7, 6, 1)
    report, code = run_scenario(json.loads((ROOT / "scenarios" / "quick_gl2.json").read_text()))
    assert code == 1
    status = {entry["name"]: entry["status"] for entry in report["checks"]}
    assert status.pop("tau-contract") == "fail"
    assert set(status.values()) == {"pass"}
