"""JSON forms of configs, elements, ideals, and modules."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from propring import groups, jsonio, modules
from propring.algebra import group_algebra
from propring.config import PrimeConfig
from propring.errors import ConfigError
from propring.gf import gf
from propring.graded import default_ideals
from propring.jsonio import (
    algebra_element_from_json,
    coeff_to_json,
    config_from_json,
    digits_from_json,
    digits_to_json,
    group_element_digits,
    ideal_spec_from_json,
    module_from_json,
    module_to_json,
    monomial_expansion,
    to_jsonable,
)
from propring.modules import quotient_module

import json_oracle
import transform_oracle

F5 = gf(5, 1)


def test_config_roundtrip():
    cfg = config_from_json({"p": 5, "f": 1, "M": 2, "N": 1, "case": "QUAT"})
    assert cfg == PrimeConfig(5, 1, 2, "QUAT", N=1)
    with pytest.raises(ConfigError):
        config_from_json({"p": 5, "f": 1, "case": "GL2"})
    with pytest.raises(ConfigError):
        config_from_json([1, 2])


def test_digits_roundtrip():
    cfg = PrimeConfig(5, 1, 2, "GL2")
    d = digits_to_json((21, 6, 24))
    assert digits_from_json(d, cfg) == (21, 6, 24)
    with pytest.raises(ConfigError):
        digits_from_json({"digits": [1, 2]}, cfg)
    with pytest.raises(ConfigError):
        digits_from_json({"digits": [25, 0, 0]}, cfg)


def test_group_element_dispatch():
    cfg, digits = group_element_digits(
        {"p": 5, "f": 1, "M": 2, "case": "GL2", "matrix": [[1, 1], [5, 6]]}
    )
    assert cfg.case == "GL2"
    assert digits == (21, 6, 24)
    cfg2, digits2 = group_element_digits(
        {"p": 5, "f": 1, "M": 2, "case": "GL2", "digits": [21, 6, 24]}
    )
    assert digits2 == (21, 6, 24)


def test_element_level_past_the_bound_is_refused_before_any_build(monkeypatch):
    # a QUAT element at the bound decomposes; past it the level is refused
    # before a group model exists: GL2 (5, 1, M) took 2.1 CPU s at M = 256
    # and 14 s at 512
    cfg, digits = group_element_digits({"p": 5, "f": 1, "M": jsonio.ELEMENT_LEVEL_MAX,
                                        "case": "QUAT", "a": [1, 0], "b": [1, 0]})
    assert digits == (1, 0, 0)

    def no_build(*args):
        raise AssertionError("built")

    monkeypatch.setattr(groups, "group_model", no_build)
    for M in (jsonio.ELEMENT_LEVEL_MAX + 1, 512, 10**30):
        with pytest.raises(ConfigError, match=f"element level M = {M} is above 128"):
            group_element_digits({"p": 5, "f": 1, "M": M, "case": "GL2", "digits": [1, 0, 0]})
    assert jsonio.ELEMENT_LEVEL_MAX == 128


def expansion_json(alg, support, cutoff):
    """The {cutoff, terms} answer of the support pair's expansion."""
    exps, coeffs = monomial_expansion(alg, support, cutoff)
    return {"cutoff": cutoff, "terms": [{"exps": e, "coeff": c}
                                        for e, c in zip(exps.tolist(), coeffs.tolist())]}


def test_algebra_element_roundtrip():
    alg = group_algebra(PrimeConfig(5, 1, 2, "GL2"))
    items = [
        {"digits": [0, 0, 1], "coeff": 1},
        {"digits": [0, 0, 0], "coeff": [4]},
    ]
    idx, coeffs = algebra_element_from_json(alg, items)
    assert idx.tolist() == [0, alg.model.index_of((0, 0, 1))]
    assert coeffs.tolist() == [[4], [1]]
    assert alg.element_nu(idx, coeffs) == 2
    # repeated support items add up, and a sum of 0 mod p drops the term
    again = algebra_element_from_json(alg, items + [{"digits": [0, 0, 0], "coeff": 2}])
    assert [a.tolist() for a in again] == [[0, 1], [[1], [1]]]
    gone = algebra_element_from_json(alg, items + [{"digits": [0, 0, 1], "coeff": 4}])
    assert [a.tolist() for a in gone] == [[0], [[4]]]
    empty = algebra_element_from_json(alg, [])
    assert empty[0].size == 0 and empty[1].shape == (0, 1)
    assert alg.element_nu(*empty) is None


def test_algebra_element_components_f2():
    alg = group_algebra(PrimeConfig(5, 2, 1, "GL2"))
    items = [
        {"digits": [1, 0, 0, 0, 0, 0], "coeff": [0, 1]},
        {"digits": [0, 0, 0, 0, 0, 0], "coeff": [0, 4]},
    ]
    support = algebra_element_from_json(alg, items)
    assert support[1].tolist() == [[0, 4], [0, 1]]
    assert alg.element_nu(*support) == 1
    exp = expansion_json(alg, support, 2)
    assert exp["terms"] == [{"exps": [1, 0, 0, 0, 0, 0], "coeff": [0, 1]}]


def loop_expansion(alg, comps, cutoff):
    """The scan over every flat index that the dense expansion replaced by
    one mask."""
    monos = [alg.to_monomial(c) for c in comps]
    terms = []
    for flat in range(alg.order):
        coords = [int(m[flat]) for m in monos]
        if any(coords) and alg.nu_weight_array[flat] <= cutoff:
            terms.append({"exps": [int(v) for v in alg.model.digits_of(int(flat))],
                          "coeff": coords})
    terms.sort(key=lambda t: t["exps"])
    return {"cutoff": cutoff, "terms": terms}


@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2)], ids=str)
def test_monomial_expansion_matches_loop(pfm):
    alg = group_algebra(PrimeConfig(*pfm, "GL2"))
    rng = np.random.default_rng(20250825)
    idx = np.sort(rng.choice(alg.order, size=6, replace=False))
    coeffs = rng.integers(0, alg.p, size=(6, alg.model.f))
    coeffs[:, 0] = rng.integers(1, alg.p, size=6)
    comps = [alg.zero() for _ in range(alg.model.f)]
    for e, c in enumerate(comps):
        c[idx] = coeffs[:, e]
    for cutoff in (0, 1, 4, alg.pM // 2, alg.pM - 1):
        got = expansion_json(alg, (idx, coeffs), cutoff)
        assert got == loop_expansion(alg, comps, cutoff), cutoff
        assert json.dumps(got) == json.dumps(loop_expansion(alg, comps, cutoff))


def test_monomial_expansion_cutoff_gate():
    alg = group_algebra(PrimeConfig(5, 1, 2, "GL2"))
    support = algebra_element_from_json(alg, [{"digits": [0, 0, 1], "coeff": 1}])
    for cutoff in (-1, 25):
        with pytest.raises(ConfigError):
            monomial_expansion(alg, support, cutoff)


def random_items(rng, alg, terms):
    """A support list of terms items: digits repeated about a third of the
    time, a cancelling copy (coefficient negated) now and then, and f = 2
    coefficients as coordinate lists, a scalar or a list at f = 1."""
    p, f, pM = alg.p, alg.model.f, alg.pM
    items = []
    for _ in range(terms):
        if items and rng.random() < 0.35:
            digits = list(items[rng.integers(len(items))]["digits"])
        else:
            digits = rng.integers(0, pM, size=alg.n).tolist()
        coords = rng.integers(0, p, size=f).tolist()
        items.append({"digits": digits,
                      "coeff": coords if f > 1 or rng.random() < 0.5 else coords[0]})
        if rng.random() < 0.2:
            negated = [(-c) % p for c in coords]
            items.append({"digits": list(digits), "coeff": negated})
    return items


# the benchmark's POINT_CONFIGS and the depth-3 configs of the CLI tests
POINT_CONFIGS = [(p, f, M, case) for (p, f, M) in ((5, 1, 2), (5, 2, 1), (7, 1, 2), (5, 1, 3))
                 for case in ("GL2", "QUAT")]


@pytest.mark.parametrize("config", POINT_CONFIGS, ids=str)
def test_point_queries_match_dense_oracle(config):
    # nu and the expansion of random supports against the dense path they
    # replaced: f dense vectors of the group's order, one to_monomial each
    alg = group_algebra(PrimeConfig(*config))
    rng = np.random.default_rng(20250825 + POINT_CONFIGS.index(config))
    supports = [[]] + [random_items(rng, alg, int(t))
                       for t in rng.integers(1, 7, size=4 if alg.model.M < 3 else 2)]
    supports.append([{"digits": [0] * alg.n, "coeff": [1] + [0] * (alg.model.f - 1)},
                     {"digits": [0] * alg.n, "coeff": [alg.p - 1] + [0] * (alg.model.f - 1)}])
    for items in supports:
        support = algebra_element_from_json(alg, items)
        comps = transform_oracle.dense_element(alg, items)
        want = transform_oracle.dense_nu(alg, comps)
        assert alg.element_nu(*support) == (None if want is None or want >= alg.pM else want)
        for cutoff in (0, 1, int(rng.integers(2, alg.pM - 1)), alg.pM - 1):
            assert expansion_json(alg, support, cutoff) == \
                transform_oracle.dense_expansion(alg, comps, cutoff), (items, cutoff)


def test_point_configs_cover_the_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    assert set(workloads.POINT_CONFIGS) < set(POINT_CONFIGS)


def test_bench_decompose_pool_regenerates(monkeypatch):
    # the pool generator realizes seeded digits through the scalar group
    # arithmetic and reads them back through the CLI's normalize, on every
    # point config of the benchmark; it is called, never its writer main
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import make_data

    committed = (Path(make_data.__file__).parent / "data" / "decompose.json").read_text()
    assert json.loads(json.dumps(make_data.decompose_pool())) == json.loads(committed)


def test_ideal_spec_roundtrip():
    for spec in default_ideals(1, F5):
        d = {"name": spec.name,
             "f_gens": [[{"m": list(m), "n": list(n), "coeff": coeff_to_json(F5, c)}
                         for m, n, c in gen] for gen in spec.f_gens]}
        back = ideal_spec_from_json(d, 1, F5)
        assert back.name == spec.name
        assert back.f_gens == spec.f_gens


def test_module_roundtrip():
    cfg = PrimeConfig(5, 1, 2, "GL2")
    mod = quotient_module(cfg, seed=4)
    d = module_to_json(mod)
    back = module_from_json(d)
    assert back.dim == mod.dim
    assert all(np.array_equal(a, b) for a, b in zip(back.gen_action, mod.gen_action))
    with pytest.raises(ConfigError):
        module_from_json({"dim": 2})


ROOT = Path(__file__).resolve().parent.parent
ONE = {"dim": 1, "field": {"p": 5, "f": 1}, "level": 2, "case": "GL2"}
ONE_F2 = {"dim": 1, "field": {"p": 5, "f": 2}, "level": 1, "case": "GL2"}


def _first(base, gen, count=3):
    return {**base, "generators": [gen] + [[[1]]] * (count - 1)}


LOADER_INPUTS = {
    "plain": _first(ONE, [[1]]),
    "coordinate list": _first(ONE, [[[1]]]),
    "bool entry": _first(ONE, [[True]]),
    "bool among ints": {**ONE, "dim": 2, "generators": [[[1, 0], [0, True]]] * 3},
    "float entry": _first(ONE, [[1.0]]),
    "string entry": _first(ONE, [["1"]]),
    "nested list": _first(ONE, [[[[1]]]]),
    "short row": {**ONE, "dim": 2, "generators": [[[1, 0], [0]]] + [[[1, 0], [0, 1]]] * 2},
    "non-list row": _first(ONE, [1]),
    "non-list generator": _first(ONE, 1),
    "40000": _first(ONE, [[40000]]),
    "65537": _first(ONE, [[65537]]),
    "-1": _first(ONE, [[-1]]),
    "beyond int64": _first(ONE, [[10**30]]),
    "f = 2 coordinate lists": _first(ONE_F2, [[[1, 0]]], 6),
    "f = 2 indices": _first(ONE_F2, [[1]], 6),
    "f = 2 short coordinates": _first(ONE_F2, [[[1]]], 6),
    "zero generator": _first(ONE, [[0]]),
    "order not p^M": _first(ONE, [[2]]),
}


def _load(loader, doc):
    try:
        return [m.tobytes() for m in loader(doc).gen_action]
    except ConfigError:
        return ConfigError


@pytest.mark.parametrize("name", sorted(LOADER_INPUTS))
def test_module_loader_matches_entrywise_oracle(name):
    doc = LOADER_INPUTS[name]
    assert _load(module_from_json, doc) == _load(json_oracle.module_from_json, doc)


def test_module_loader_accepts_and_refuses_as_expected():
    accepted = {name for name, doc in LOADER_INPUTS.items()
                if _load(module_from_json, doc) is not ConfigError}
    assert accepted == {"plain", "coordinate list", "f = 2 coordinate lists", "f = 2 indices"}


@pytest.mark.parametrize("name,message", [
    ("-1", "matrix entries must be field element indices"),
    ("65537", "matrix entries must be field element indices"),
    ("short row", "generator matrix size does not match dim"),
    ("bool entry", "matrix entry must be an integer, got True"),
    ("bool among ints", "matrix entry must be an integer, got True"),
    ("float entry", "matrix entry must be an integer, got 1.0"),
], ids=str)
def test_module_loader_keeps_its_messages(name, message):
    # numpy reads [[1, True]] as int64 and [["1"]] as 1, so the one array
    # conversion alone cannot refuse them
    with pytest.raises(ConfigError, match=re.escape(message)):
        module_from_json(LOADER_INPUTS[name])


def test_module_loader_converts_integer_matrices_whole(monkeypatch):
    # the 12 modules of the bench pool load as the oracle loads them, with
    # no per-entry assignment into a numpy array
    pool = json.loads((ROOT / "bench" / "data" / "modules.json").read_text())
    docs = [entry["module"] for case in sorted(pool) for entry in pool[case]]
    want = [_load(json_oracle.module_from_json, doc) for doc in docs]

    class NoZeros:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            raise AssertionError("entry-by-entry path taken")

    monkeypatch.setattr(jsonio, "np", NoZeros())
    assert [_load(module_from_json, doc) for doc in docs] == want
    assert len(docs) == 12 and ConfigError not in want


def test_to_jsonable():
    out = to_jsonable({"a": np.int64(3), "b": (np.int16(1), 2), "c": [np.array([1, 2])]})
    assert out == {"a": 3, "b": [1, 2], "c": [[1, 2]]}


def test_module_level_past_the_bound_is_refused_before_any_build(monkeypatch):
    # the level is checked before the config, the field or a group model
    # exists: a dim-1 GL2 module at level 64 took 6 CPU s, and 128 did not
    # finish in 10 s
    def no_build(*args):
        raise AssertionError("built")

    for name in ("PrimeConfig", "gf"):
        monkeypatch.setattr(jsonio, name, no_build)
    monkeypatch.setattr(modules, "group_model", no_build)
    for level in (jsonio.MODULE_LEVEL_MAX + 1, 128, 10**30):
        doc = {**ONE, "level": level, "generators": [[[1]]] * 3}
        with pytest.raises(ConfigError, match=f"module level {level} is above 8"):
            module_from_json(doc)
    assert jsonio.MODULE_LEVEL_MAX == 8
