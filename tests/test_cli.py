"""Command line surface: one-shot subcommands, the scenario runner, exit
codes, and output routing."""

import json
from pathlib import Path

import pytest

from propring.cli import main

GL2 = {"p": 5, "f": 1, "M": 2, "case": "GL2"}
QUICK = str(Path(__file__).resolve().parent.parent / "scenarios" / "quick_gl2.json")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_decompose_identity(tmp_path, capsys):
    path = write(tmp_path, "e.json", {**GL2, "matrix": [[1, 0], [0, 1]]})
    code, out = run(capsys, ["decompose", "--in", path])
    assert code == 0
    assert json.loads(out)["digits"] == [0, 0, 0]


def test_decompose_worked_example(tmp_path, capsys):
    path = write(tmp_path, "e.json", {**GL2, "matrix": [[1, 1], [5, 6]]})
    code, out = run(capsys, ["decompose", "--in", path])
    assert code == 0
    assert json.loads(out)["digits"] == [21, 6, 24]


def test_nu_of_central_augmentation(tmp_path, capsys):
    path = write(
        tmp_path,
        "e.json",
        {
            **GL2,
            "support": [
                {"digits": [0, 0, 1], "coeff": 1},
                {"digits": [0, 0, 0], "coeff": 4},
            ],
        },
    )
    code, out = run(capsys, ["nu", "--in", path])
    assert code == 0
    assert json.loads(out)["nu"] == 2


def test_nu_beyond_faithful(tmp_path, capsys):
    path = write(tmp_path, "e.json", {**GL2, "support": []})
    code, out = run(capsys, ["nu", "--in", path])
    assert code == 0
    data = json.loads(out)
    assert data["nu"] is None
    assert data["at_least"] == 25


def test_expand(tmp_path, capsys):
    path = write(
        tmp_path,
        "e.json",
        {
            **GL2,
            "support": [
                {"digits": [0, 0, 1], "coeff": 1},
                {"digits": [0, 0, 0], "coeff": 4},
            ],
        },
    )
    code, out = run(capsys, ["expand", "--in", path, "--cutoff", "4"])
    assert code == 0
    assert json.loads(out)["terms"] == [{"exps": [0, 0, 1], "coeff": [1]}]


def test_module_exponent_trivial(tmp_path, capsys):
    from propring.config import PrimeConfig
    from propring.jsonio import module_to_json
    from propring.modules import trivial_module

    path = write(tmp_path, "m.json", module_to_json(trivial_module(PrimeConfig(*GL2.values()))))
    for extra in ([], ["--grading", "int", "--level-n", "1"],
                  ["--grading", "res", "--level-n", "1"]):
        code, out = run(capsys, ["module-exponent", "--in", path, "--ideal", "c"] + extra)
        assert code == 0
        assert json.loads(out)["exponent"] == 1


def test_module_exponent_needs_level(tmp_path, capsys):
    from propring.config import PrimeConfig
    from propring.jsonio import module_to_json
    from propring.modules import trivial_module

    path = write(tmp_path, "m.json", module_to_json(trivial_module(PrimeConfig(5, 1, 2, "GL2"))))
    code, _ = run(capsys, ["module-exponent", "--in", path, "--grading", "int"])
    assert code == 2


def test_verify_quick_scenario(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    csv = tmp_path / "s.csv"
    code, text = run(
        capsys, ["verify", QUICK, "--out", str(out1), "--csv", str(csv)]
    )
    assert code == 0
    assert "summary:" in text
    code2, _ = run(capsys, ["verify", QUICK, "--out", str(out2)])
    assert code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert all(c["status"] == "pass" for c in report["checks"])
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "check,status"
    assert len(lines) == len(report["checks"]) + 1


def test_verify_with_timings_differs_only_by_timing_fields(tmp_path, capsys):
    out1 = tmp_path / "plain.json"
    out2 = tmp_path / "timed.json"
    code, _ = run(capsys, ["verify", QUICK, "--out", str(out1)])
    code2, _ = run(capsys, ["verify", QUICK, "--out", str(out2), "--timings"])
    assert code == code2 == 0
    from propring.checks import report_bytes

    plain = json.loads(out1.read_text())
    timed = json.loads(out2.read_text())
    assert any("elapsed_s" in c for c in timed["checks"])
    assert report_bytes(plain) == report_bytes(timed)


def test_verify_config_errors(tmp_path, capsys):
    bad_n = write(tmp_path, "bad1.json", {
        "name": "bad", "seed": 1,
        "config": {"p": 5, "f": 1, "M": 2, "N": 3, "case": "GL2"},
        "checks": ["arithmetic-oracles"],
    })
    assert main(["verify", bad_n]) == 2
    capsys.readouterr()
    unknown = write(tmp_path, "bad2.json", {
        "name": "bad", "seed": 1,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
        "checks": ["no-such-check"],
    })
    assert main(["verify", unknown]) == 2
    capsys.readouterr()
    garbage = tmp_path / "bad3.json"
    garbage.write_text("not json")
    assert main(["verify", str(garbage)]) == 2
    capsys.readouterr()


def test_malformed_input_exits_2(tmp_path, capsys):
    from propring.config import PrimeConfig
    from propring.jsonio import module_to_json
    from propring.modules import trivial_module

    bad_p = write(tmp_path, "e.json", {**GL2, "p": "x", "matrix": [[1, 0], [0, 1]]})
    module = module_to_json(trivial_module(PrimeConfig(5, 1, 2, "GL2")))
    good = write(tmp_path, "g.json", module)
    torn_ideal = tmp_path / "i.json"
    torn_ideal.write_text("{")
    del module["field"]["p"]
    no_p = write(tmp_path, "m.json", module)
    huge = write(tmp_path, "h.json", dict(module, field={"p": 5, "f": 1},
                                          generators=[[[10**6]]] * 3))
    bad_param = write(tmp_path, "s.json", {
        "name": "bad", "seed": 1,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
        "checks": ["arithmetic-oracles",
                   {"check": "ideal-power-spans", "params": {"jmax": "x"}}],
    })
    float_p = write(tmp_path, "f.json", {**GL2, "p": 5.9, "digits": [1, 0, 0]})
    str_p_bool_f = write(tmp_path, "b.json",
                         {**GL2, "p": "5", "f": True, "digits": [1, 0, 0]})
    bool_digit = write(tmp_path, "d.json", {**GL2, "digits": [True, 0, 0]})
    bool_level = write(tmp_path, "l.json", dict(module, field={"p": 5, "f": 1},
                                                level=True))
    bool_seed = write(tmp_path, "t.json", {
        "name": "bad", "seed": True,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
        "checks": ["arithmetic-oracles"],
    })
    support_int = write(tmp_path, "u.json", {**GL2, "support": [1]})
    str_entry = write(tmp_path, "x.json", {**GL2, "matrix": [[1, "x"], [0, 1]]})
    float_entry = write(tmp_path, "y.json", {**GL2, "matrix": [[1, 1.5], [0, 1]]})
    bool_entry = write(tmp_path, "z.json", {**GL2, "matrix": [[True, 0], [0, 1]]})
    quat_str = write(tmp_path, "q.json", {**GL2, "case": "QUAT", "a": ["x"], "b": [0]})
    int_term = write(tmp_path, "k.json", {"f_gens": [[1]]})
    for argv in (["nu", "--in", support_int], ["expand", "--in", support_int],
                 ["decompose", "--in", str_entry], ["decompose", "--in", float_entry],
                 ["decompose", "--in", bool_entry], ["decompose", "--in", quat_str],
                 ["module-exponent", "--in", good, "--ideal", int_term],
                 ["decompose", "--in", bad_p], ["module-exponent", "--in", no_p],
                 ["module-exponent", "--in", huge], ["verify", bad_param],
                 ["nu", "--in", float_p], ["nu", "--in", str_p_bool_f],
                 ["nu", "--in", bool_digit],
                 ["module-exponent", "--in", bool_level], ["verify", bool_seed],
                 ["module-exponent", "--in", good, "--ideal", str(torn_ideal)],
                 ["module-exponent", "--in", good, "--grading", "int", "--level-n", "5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:"), captured.err


def test_verify_indeterminate_exit(tmp_path, capsys):
    path = write(tmp_path, "indet.json", {
        "name": "indet", "seed": 1,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
        "checks": [{"check": "ideal-power-spans", "params": {"jmax": 30}}],
    })
    out = tmp_path / "r.json"
    assert main(["verify", path, "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["checks"][0]["status"] == "indeterminate"


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROPRING_OUT_DIR", str(tmp_path))
    path = write(tmp_path, "e.json", {**GL2, "matrix": [[1, 0], [0, 1]]})
    code, _ = run(capsys, ["decompose", "--in", path])
    assert code == 0
    rep = tmp_path / "routed.json"
    code, _ = run(capsys, ["verify", QUICK, "--out", "routed.json"])
    assert code == 0
    assert rep.exists()
