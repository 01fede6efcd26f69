"""Command line surface: one-shot subcommands, the scenario runner, exit
codes, and output routing."""

import contextlib
import io
import json
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from propring import checks, cli
from propring.algebra import GroupAlgebra, group_algebra
from propring.cli import main
from propring.config import BoundedMemo
from propring.errors import ContractViolation
from propring.groups import GL2Model
from propring.jsonio import config_from_json

import json_oracle
import transform_oracle

GL2 = {"p": 5, "f": 1, "M": 2, "case": "GL2"}
ROOT = Path(__file__).resolve().parent.parent
QUICK = str(ROOT / "scenarios" / "quick_gl2.json")


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
    # the benchmark's probe input: a group of order 5^6, 15 relations to check
    probe = write(tmp_path, "probe.json", {"dim": 1, "field": {"p": 5, "f": 2}, "level": 1,
                                           "generators": [[[1]]] * 6, "case": "GL2"})
    for argv in ([path], [path, "--grading", "int", "--level-n", "1"],
                 [path, "--grading", "res", "--level-n", "1"], [probe, "--grading", "gr"]):
        code, out = run(capsys, ["module-exponent", "--ideal", "c", "--in"] + argv)
        assert code == 0
        assert json.loads(out)["exponent"] == 1


def test_module_exponent_needs_level(tmp_path, capsys):
    from propring.config import PrimeConfig
    from propring.jsonio import module_to_json
    from propring.modules import trivial_module

    path = write(tmp_path, "m.json", module_to_json(trivial_module(PrimeConfig(5, 1, 2, "GL2"))))
    code, _ = run(capsys, ["module-exponent", "--in", path, "--grading", "int"])
    assert code == 2


def test_module_exponent_reports_grading_level(tmp_path, capsys):
    # N is the level the grading used; the module file carries none.  At
    # level 4 and N = 1 the res grading once enumerated 125^3 products
    path = write(tmp_path, "m.json", {"dim": 1, "field": {"p": 5, "f": 1}, "level": 4,
                                      "case": "GL2", "generators": [[[1]]] * 3})
    for grading, n in (("gr", None), ("int", 1), ("res", 1), ("res", 3)):
        level = [] if n is None else ["--level-n", str(n)]
        code, out = run(capsys, ["module-exponent", "--in", path, "--grading", grading] + level)
        assert code == 0
        got = json.loads(out)
        assert (got["N"], got["ideal"], got["exponent"]) == (
            n, "c" if n is None else f"c^[{n}]", 1)


def test_module_exponent_matches_pinned_bench_answers(tmp_path, capsys):
    # every answer the queries workload checks: 12 pool modules, each with
    # 3 ideals on 3 gradings, the int and res ones at N = 1
    pool = json.loads((ROOT / "bench" / "data" / "modules.json").read_text())
    checked = 0
    for case, entries in sorted(pool.items()):
        for entry in entries:
            path = write(tmp_path, "m.json", entry["module"])
            for key, want in entry["answers"].items():
                ideal, grading = key.split()
                level = [] if grading == "gr" else ["--level-n", "1"]
                code, out = run(capsys, ["module-exponent", "--in", path, "--ideal", ideal,
                                         "--grading", grading] + level)
                got = json.loads(out)
                assert code == 0 and {k: got[k] for k in want} == want, (case, entry["seed"], key)
                checked += 1
    assert checked == 108


def test_repeat_module_exponent_reads_the_stored_module(tmp_path, capsys, monkeypatch):
    # one warm process validates a module once: each request asked again
    # prints the same bytes, and only the first load runs the relation check
    from propring import modules

    monkeypatch.setattr(modules, "_VALIDATED",
                        BoundedMemo(modules._MODULE_MEMO, modules._VALIDATED.size))
    checked = []
    real = modules.check_multiplicative
    monkeypatch.setattr(modules, "check_multiplicative",
                        lambda mod: checked.append(mod.dim) or real(mod))
    pool = json.loads((ROOT / "bench" / "data" / "modules.json").read_text())
    path = write(tmp_path, "m.json", pool["QUAT"][3]["module"])
    for argv in (["--grading", "gr"], ["--grading", "int", "--level-n", "1"],
                 ["--grading", "res", "--level-n", "1"]):
        first, again = (run(capsys, ["module-exponent", "--in", path, "--ideal", "mixed"] + argv)
                        for _ in range(2))
        assert first[0] == 0 and first == again, argv
    assert checked == [33]


def test_refused_module_is_refused_again(tmp_path, capsys, monkeypatch):
    # a module that fails validation is not stored: the same document is
    # checked and refused again, with the same message
    from propring import modules

    memo = BoundedMemo(modules._MODULE_MEMO, modules._VALIDATED.size)
    monkeypatch.setattr(modules, "_VALIDATED", memo)
    path = write(tmp_path, "m.json", {
        "dim": 2, "field": {"p": 5, "f": 1}, "level": 2, "case": "GL2",
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]]]})
    errs = []
    for _ in range(2):
        assert main(["module-exponent", "--in", path]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("config error: module is not a representation: ")
    assert "W = [20, 5, 19]" in errs[0] and "Traceback" not in errs[0]
    assert memo == {}


def test_print_matches_dump_oracle_on_every_subcommand(tmp_path, capsys, monkeypatch):
    # every kind of answer the queries workload checks: the 12 pool modules
    # with 3 ideals on 3 gradings, a round of decompose, nu and expand at
    # each of the six point configs, the largest expand, and expands with
    # no terms at f = 2 and with a negative seed in the header; one
    # json.dumps write, or expand's row template, equals the to_jsonable
    # walk streamed through json.dump
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    pool = json.loads((ROOT / "bench" / "data" / "modules.json").read_text())
    reqs = [(["module-exponent", "--ideal", ideal, "--grading", grading]
             + ([] if grading == "gr" else ["--level-n", "1"]), entry["module"])
            for case in sorted(pool) for entry in pool[case]
            for ideal in workloads.IDEALS for grading in workloads.GRADINGS]
    reqs += [(req["argv"], req["input"]) for req in next(workloads.rounds(1))
             if req["kind"] != "module-exponent"]
    reqs.append((workloads.LARGE_EXPAND["argv"], workloads.LARGE_EXPAND["input"]))
    reqs.append((["expand", "--cutoff", "3"],
                 {"p": 5, "f": 2, "M": 1, "case": "QUAT", "support": []}))
    reqs.append((["expand"], {**GL2, "N": 1, "seed": -3, "support": [
        {"digits": [1, 2, 3], "coeff": 2}, {"digits": [0, 0, 0], "coeff": 3}]}))
    assert Counter(argv[0] for argv, _ in reqs) == {
        "module-exponent": 108, "decompose": 6, "nu": 12, "expand": 9}
    assert {(doc["p"], doc["f"], doc["M"], doc["case"]) for argv, doc in reqs
            if argv[0] != "module-exponent"} == set(workloads.POINT_CONFIGS)
    printed = []
    new_print = cli._print

    def oracle_print(obj):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            json_oracle.print_answer(obj)
        return buf.getvalue()

    def both(obj):
        printed.append(oracle_print(obj))
        new_print(obj)

    monkeypatch.setattr(cli, "_print", both)
    for argv, doc in reqs:
        code, out = run(capsys, argv + ["--in", write(tmp_path, "r.json", doc)])
        if argv[0] == "expand":
            # written through the row template, and _print only when there
            # are no terms: the oracle's print of the answer out parses to,
            # whose terms are the dense path's
            printed.clear()
            got = json.loads(out)
            assert code == 0 and out == oracle_print(got), argv
            alg = group_algebra(config_from_json(doc))
            items = doc["support"] if "support" in doc else [
                {"digits": doc["digits"], "coeff": [1] + [0] * (doc["f"] - 1)}]
            want = transform_oracle.dense_expansion(
                alg, transform_oracle.dense_element(alg, items), got["cutoff"])
            assert got["terms"] == want["terms"], argv
        else:
            assert code == 0 and out == printed.pop(), argv
    assert printed == []


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    path = write(tmp_path, "e.json", {**GL2, "digits": [1, 0, 0]})
    code, out = run(capsys, ["expand", "--in", path, "--cutoff", "3"])
    assert code == 0 and json.loads(out)["cutoff"] == 3
    # the next call gets the default p^M - 1, not the last call's cutoff
    code, out = run(capsys, ["expand", "--in", path])
    assert code == 0 and json.loads(out)["cutoff"] == 24
    with pytest.raises(SystemExit) as err:
        main(["expand", "--in", path, "--cutoff", "x"])
    assert err.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, ["expand", "--in", path])
    assert code == 0 and json.loads(out)["cutoff"] == 24
    # the handler is looked up at call time, so a patched one is called
    monkeypatch.setattr(cli, "_cmd_nu", lambda args: 7)
    assert main(["nu", "--in", path]) == 7


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
    # past jsonio.MODULE_LEVEL_MAX: level 128 ran past 10 s before the bound
    deep_level = write(tmp_path, "e.json", dict(module, field={"p": 5, "f": 1}, dim=1,
                                                level=128, generators=[[[1]]] * 3))
    bool_seed = write(tmp_path, "t.json", {
        "name": "bad", "seed": True,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
        "checks": ["arithmetic-oracles"],
    })
    # misspelled keys of a scenario and of its config, once ignored: the
    # run took header seed 0
    misspelled = [write(tmp_path, f"misspelled{i}.json", {
        "name": "misspelled", "checks": ["arithmetic-oracles"], **doc}) for i, doc in enumerate(
            [{"sead": 7, "config": {"p": 5, "f": 1, "M": 2, "case": "GL2"}},
             {"config": {"p": 5, "f": 1, "M": 2, "case": "GL2", "sede": 3}}])]
    # past jsonio.ELEMENT_LEVEL_MAX: GL2 (5, 1, 512) took 14 CPU s
    deep_element = write(tmp_path, "p.json", {**GL2, "M": 512, "matrix": [[1, 5], [0, 1]]})
    support_int = write(tmp_path, "u.json", {**GL2, "support": [1]})
    str_entry = write(tmp_path, "x.json", {**GL2, "matrix": [[1, "x"], [0, 1]]})
    float_entry = write(tmp_path, "y.json", {**GL2, "matrix": [[1, 1.5], [0, 1]]})
    bool_entry = write(tmp_path, "z.json", {**GL2, "matrix": [[True, 0], [0, 1]]})
    quat_str = write(tmp_path, "q.json", {**GL2, "case": "QUAT", "a": ["x"], "b": [0]})
    int_term = write(tmp_path, "k.json", {"f_gens": [[1]]})
    list_ideal = write(tmp_path, "j.json", [{"m": [1], "n": [0], "coeff": 1}])
    mixed_ideal = write(tmp_path, "n.json", {"f_gens": [[{"m": [1], "n": [0], "coeff": 1},
                                                          {"m": [2], "n": [0], "coeff": 1}]]})
    gl2_outside = write(tmp_path, "o.json", {**GL2, "matrix": [[2, 0], [0, 1]]})
    quat_outside = write(tmp_path, "r.json", {**GL2, "case": "QUAT", "a": [2, 0], "b": [0, 0]})
    # every generator has order p; with C trivial the relations force A and
    # B to commute, and these two do not
    unipotent = dict(module, field={"p": 5, "f": 1}, dim=2,
                     generators=[[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]]])
    no_rep = write(tmp_path, "v.json", unipotent)
    # a dim far beyond the rows given, and 100,000 empty rows per generator:
    # the shape is refused before a dim x dim array (18.6 GiB) is allocated
    wide = write(tmp_path, "a.json", dict(module, field={"p": 5, "f": 1}, dim=100000))
    empty_rows = write(tmp_path, "c.json", dict(module, field={"p": 5, "f": 1}, dim=100000,
                                                generators=[[[]] * 100000] * 3))
    # configurations a check refuses as it runs: GL2 p = 19 is past the
    # exact transform bound of ideal-power-spans, and QUAT (5, 1, 4) past
    # that of the dense ring hilbert-series builds
    refused = [write(tmp_path, f"refused{i}.json", {
        "name": "refused", "seed": 7, "config": {**cfg, "f": 1, "N": 1, "case": case},
        "checks": [check]}) for i, (cfg, case, check) in enumerate(
            [({"p": 19, "M": 2}, "GL2", "ideal-power-spans"),
             ({"p": 5, "M": 4}, "QUAT", "hilbert-series")])]
    # order 5^12 = 2.4e8, beyond the exact transform bound
    oversize = write(tmp_path, "w.json", {"p": 5, "f": 2, "M": 2, "case": "GL2",
                                          "digits": [1, 0, 0, 0, 0, 0]})
    for argv in (["nu", "--in", support_int], ["expand", "--in", support_int],
                 ["decompose", "--in", str_entry], ["decompose", "--in", float_entry],
                 ["decompose", "--in", bool_entry], ["decompose", "--in", quat_str],
                 ["module-exponent", "--in", good, "--ideal", int_term],
                 ["module-exponent", "--in", good, "--ideal", list_ideal],
                 ["module-exponent", "--in", good, "--ideal", mixed_ideal],
                 ["decompose", "--in", bad_p], ["module-exponent", "--in", no_p],
                 ["module-exponent", "--in", huge], ["verify", bad_param],
                 ["nu", "--in", float_p], ["nu", "--in", str_p_bool_f],
                 ["nu", "--in", bool_digit],
                 ["module-exponent", "--in", bool_level], ["verify", bool_seed],
                 ["module-exponent", "--in", deep_level],
                 ["module-exponent", "--in", good, "--ideal", str(torn_ideal)],
                 ["module-exponent", "--in", good, "--grading", "int", "--level-n", "5"],
                 ["decompose", "--in", gl2_outside], ["decompose", "--in", quat_outside],
                 ["module-exponent", "--in", no_rep], ["module-exponent", "--in", wide],
                 ["module-exponent", "--in", empty_rows], ["decompose", "--in", deep_element],
                 *(["verify", path] for path in refused + misspelled)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:"), captured.err
    for argv in (["nu", "--in", oversize], ["expand", "--in", oversize]):
        # refused before any array of the group's order (488 MB as int16)
        tracemalloc.start()
        try:
            assert main(argv) == 2, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24, (argv, peak)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:"), captured.err
        assert "2^53" in captured.err, captured.err


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "ff.json"
    path.write_bytes(b"\xff")
    for argv in (["verify", str(path)], ["decompose", "--in", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot read input"), captured.err


def test_fields_past_int16_indices_are_refused_at_once(tmp_path, capsys):
    # field elements are int16 indices, so q = p^f stays below 2^15: GL2 at
    # p = 32771 and QUAT at p = 191, whose ring lives over F_{191^2}, are
    # refused before any table is built, p = 2^61 - 1 before a trial
    # division that would run for hours, and f = 10^9 before the group's
    # order is formed
    gl2 = write(tmp_path, "g.json", {**GL2, "p": 32771, "matrix": [[1, 0], [0, 1]]})
    quat = write(tmp_path, "q.json", {**GL2, "p": 191, "case": "QUAT", "a": [1, 0], "b": [0, 0]})
    mersenne = write(tmp_path, "m.json", {**GL2, "p": 2**61 - 1, "digits": [1, 0, 0]})
    wide = write(tmp_path, "w.json", {**GL2, "f": 10**9, "digits": [1, 0, 0]})
    for argv in (["decompose", "--in", gl2], ["decompose", "--in", quat],
                 ["nu", "--in", mersenne], ["nu", "--in", wide]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:"), captured.err
        assert "2^15" in captured.err, captured.err


def test_quat_field_past_int16_indices_is_refused_before_any_table(tmp_path, capsys,
                                                                   monkeypatch):
    # the quaternion ring lives over F_(p^(2f)): a dim-1 QUAT module at
    # p = 181, f = 2 is refused by its config, before its own field
    # F_(181^2) builds two 32,761 x 32,761 tables (54 CPU s and 4.1 GB
    # when the refusal came from the quaternion field's own build); GL2
    # at (181, 2) and QUAT at (181, 1), whose ring is over F_(181^2), are
    # admitted; a QUAT model builds no table of its ring's field
    # (test_groups.test_quat_model_builds_no_field_tables)
    from propring import gf as gflib
    from propring.config import PrimeConfig
    from propring.errors import ConfigError

    def no_table(*args):
        raise AssertionError("a field table was built")

    monkeypatch.setattr(gflib.GF, "__init__", no_table)
    with pytest.raises(ConfigError, match=r"p\^\(2f\) must be below 2\^15 for QUAT"):
        PrimeConfig(181, 2, 2, "QUAT")
    assert PrimeConfig(181, 2, 2, "GL2").case == "GL2"
    assert PrimeConfig(181, 1, 2, "QUAT").case == "QUAT"
    module = write(tmp_path, "m.json", {"dim": 1, "field": {"p": 181, "f": 2}, "level": 8,
                                        "case": "QUAT", "generators": [[[1]]] * 6})
    start = time.perf_counter()
    assert main(["module-exponent", "--in", module]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("config error: q = p^(2f) must be below 2^15"), captured.err


def test_huge_ideal_exponent_answers_as_at_p_to_the_M(tmp_path, capsys):
    # (rho(g) - 1)^e = 0 once e >= p^M, so an exponent of 10^8 acts as 25
    from propring.config import PrimeConfig
    from propring.jsonio import module_to_json
    from propring.modules import quotient_module

    mod = quotient_module(PrimeConfig(5, 1, 2, "GL2"), seed=4)
    module = write(tmp_path, "m.json", module_to_json(mod))
    outs = []
    for e in (25, 10**8):
        ideal = write(tmp_path, f"i{e}.json",
                      {"name": "a-power", "f_gens": [[{"m": [e], "n": [0], "coeff": 1}]]})
        for extra in ([], ["--grading", "res", "--level-n", "1"]):
            code, out = run(capsys, ["module-exponent", "--in", module, "--ideal", ideal] + extra)
            assert code == 0
            outs.append(out)
    assert outs[:2] == outs[2:]


def test_point_queries_at_depth_8_stay_small(tmp_path, capsys):
    # generator powers from base-p digits and module powers by squaring: no
    # request holds all p^M powers of a generator (3 x 5^8 of them here)
    quat = write(tmp_path, "q.json",
                 {"p": 5, "f": 1, "M": 8, "case": "QUAT", "a": [1, 0], "b": [1, 0]})
    trivial = write(tmp_path, "m.json", {"dim": 1, "field": {"p": 5, "f": 1}, "level": 8,
                                         "case": "GL2", "generators": [[[1]]] * 3})
    for argv, key, want in ((["decompose", "--in", quat], "digits", [1, 0, 0]),
                            (["module-exponent", "--in", trivial], "exponent", 1)):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)[key] == want
        assert peak < 16 * 2**20, (argv, peak)


def test_point_queries_at_depth_3_stay_small(tmp_path, capsys):
    # nu and expand read the element's support, not the group: at (5, 1, 3),
    # order 5^9, no request holds a float64 vector of the group's order.
    # [g^5] - 1 = (g - 1)^5 and 2 [C^25] + 3 = 2 (C - 1)^25 mod 5 (Lucas)
    gl2 = write(tmp_path, "g.json", {"p": 5, "f": 1, "M": 3, "case": "GL2", "support": [
        {"digits": [5, 0, 0], "coeff": 1}, {"digits": [0, 0, 0], "coeff": 4}]})
    quat = write(tmp_path, "q.json", {"p": 5, "f": 1, "M": 3, "case": "QUAT", "support": [
        {"digits": [0, 0, 25], "coeff": 2}, {"digits": [0, 0, 0], "coeff": 3}]})
    for argv, want in ((["nu", "--in", gl2], {"nu": 5}),
                       (["expand", "--in", gl2, "--cutoff", "5"],
                        {"terms": [{"exps": [5, 0, 0], "coeff": [1]}]}),
                       (["nu", "--in", quat], {"nu": 50}),
                       (["expand", "--in", quat],
                        {"terms": [{"exps": [0, 0, 25], "coeff": [2]}]})):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert {k: got[k] for k in want} == want, argv
        assert peak < 5**9 * 8, (argv, peak)


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


def test_verify_output_into_a_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    # --out, --csv, and a relative --out under a PROPRING_OUT_DIR that does
    # not exist: exit 2 with a config error, before any check runs
    ran = []
    monkeypatch.setattr(checks, "run_scenario", lambda *a, **k: ran.append(a))
    missing = tmp_path / "missing"
    for argv, env in ((["--out", str(missing / "r.json")], None),
                      (["--csv", str(missing / "s.csv")], None),
                      (["--out", str(tmp_path / "r.json"), "--csv", str(missing / "s.csv")], None),
                      (["--out", "r.json"], str(missing))):
        if env:
            monkeypatch.setenv("PROPRING_OUT_DIR", env)
        assert main(["verify", QUICK] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write "), captured.err
        assert str(missing) in captured.err, captured.err
    assert not ran and not missing.exists() and not (tmp_path / "r.json").exists()


def test_verify_output_that_cannot_be_opened_exits_2(tmp_path, capsys):
    # an --out that names a directory: the checks run, and the write fails
    # with a config error, not a traceback
    assert main(["verify", QUICK, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {tmp_path}"), captured.err


def test_verify_pc_letter_order_fault_fails(tmp_path, capsys, monkeypatch):
    # C ranked before A and B: W = [B_0, A_0] then has a letter C_0 that
    # comes before B_0, so pc_relations raises ContractViolation naming the
    # pair, and verify reports ideal-power-spans as fail with no traceback
    faulty = GL2Model(5, 1, 2)
    faulty.two_omega = (2, 2, 1)
    with pytest.raises(ContractViolation) as err:
        faulty.pc_relations()
    assert err.value.witness["a"] == (0, 0) and err.value.witness["b"] == (1, 0)
    monkeypatch.setattr(checks, "group_algebra", lambda cfg: GroupAlgebra(faulty))
    path = write(tmp_path, "pc.json", {
        "name": "pc", "seed": 1, "config": {**GL2, "N": 1},
        "checks": [{"check": "ideal-power-spans", "params": {"jmax": 8}}],
    })
    out = tmp_path / "r.json"
    assert main(["verify", path, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    [entry] = json.loads(out.read_text())["checks"]
    assert entry["status"] == "fail" and "pc condition fails" in entry["witness"]
    # the exception's structured witness, as JSON, beside its message
    assert set(entry["witness_data"]) == {"a", "b", "w"}
    assert entry["witness_data"]["a"] == [0, 0] and entry["witness_data"]["b"] == [1, 0]
