"""Self-test of the benchmark's tracer, answer oracles, speed reference and
quantile estimator.

    python3 -m pytest bench/test_bench.py -q

Not part of the repository's test suite (pytest's testpaths is tests/)."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_self_times_and_padic_time_sum_to_root(tracer):
    from propring.algebra import group_algebra
    from propring.config import PrimeConfig
    from propring.graded import GradedRing

    cfg = PrimeConfig(5, 1, 1, "QUAT")
    tracer.begin("root")
    alg = group_algebra(cfg)
    za = alg.monomial((1, 0, 0))
    alg.nu(alg.mul(za, alg.monomial((0, 1, 0))))
    gr = GradedRing(alg)
    gr.mul(gr.a(0), gr.b(0))
    tracer.finish()
    m = tracer.metrics()
    assert m["padic.zq_mul.calls"] > 0 and m["groups.decompose.calls"] > 0
    assert m["algebra.mul.calls"] >= 2 and m["graded.mul.calls"] == 1
    root = tracer.end[0] - tracer.start[0]
    total = sum(tracer.self_s) + tracer.padic_s
    assert total == pytest.approx(root, rel=1e-9, abs=1e-9)
    parents = np.frombuffer(tracer.parent, dtype=np.int32)
    assert parents[0] == -1 and (parents[1:] >= 0).all()


def test_rebound_wrapper_counts_each_call_once(tracer):
    import propring.algebra
    import propring.gf
    import propring.graded
    import propring.modules

    field = propring.gf.gf(5, 1)
    m = np.array([[1, 2, 3], [2, 4, 1]], dtype=np.int16)
    for mod in (propring.gf, propring.algebra, propring.graded, propring.modules):
        mod.rref(m, field)
    propring.gf.rank(m, field)  # reaches rref through the gf module global
    got = tracer.metrics()
    assert got["gf.rref.calls"] == 5
    assert got["gf.rref.cells"] == 5 * 6


def test_uninstall_restores_every_binding():
    import propring.gf
    import propring.graded

    orig = propring.gf.rref
    t = Tracer()
    t.install()
    assert propring.graded.rref is not orig and propring.gf.rref is not orig
    t.uninstall()
    assert propring.graded.rref is orig and propring.gf.rref is orig


def test_recursion_is_folded(tracer):
    from propring.jsonio import to_jsonable

    to_jsonable({"a": [1, (2, 3)], "b": {"c": np.int64(4)}})
    assert tracer.metrics()["jsonio.calls"] == 1


def _coeffs(p, f, M, doc):
    c = wl.expansion(p, f, M, doc)
    return {tuple(int(d) for d in np.unravel_index(k, (p**M,) * (3 * f))): int(c[0, k])
            for k in np.nonzero(c[0])[0]}


def test_expansion_oracle_hand_values():
    # [A_0] = 1 + z^(1,0,0); [A_0^p] = (1 + z)^p = 1 + z^(p,0,0) mod p
    assert _coeffs(5, 1, 2, {"digits": [1, 0, 0]}) == {(0, 0, 0): 1, (1, 0, 0): 1}
    assert _coeffs(5, 1, 2, {"digits": [5, 0, 0]}) == {(0, 0, 0): 1, (5, 0, 0): 1}
    # [A_0^2 B_0] = (1 + 2 z_A + z_A^2)(1 + z_B)
    assert _coeffs(5, 1, 2, {"digits": [2, 1, 0]}) == {
        (0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1,
        (0, 1, 0): 1, (1, 1, 0): 2, (2, 1, 0): 1}
    # [A_0] - 1 = z^(1,0,0): the identity term cancels
    aug = {"support": [{"digits": [1, 0, 0], "coeff": 1},
                       {"digits": [0, 0, 0], "coeff": 4}]}
    assert _coeffs(5, 1, 2, aug) == {(1, 0, 0): 1}


def test_nu_oracle_hand_values():
    def nu(digits):
        doc = {"p": 5, "f": 1, "M": 2, "case": "GL2",
               "support": [{"digits": digits, "coeff": 1},
                           {"digits": [0, 0, 0], "coeff": 4}]}
        return wl.expected_answer({"kind": "nu", "argv": ["nu"], "input": doc,
                                   "expect": None})

    assert nu([1, 0, 0]) == {"nu": 1}
    assert nu([0, 0, 1]) == {"nu": 2}  # C generators have weight 2
    assert nu([5, 0, 0]) == {"nu": 5}
    assert nu([0, 0, 0]) == {"nu": None, "at_least": 25}


def test_oracle_agrees_with_cli_on_small_requests(tmp_path):
    import json

    from child import cli_call
    from speed import Sampler

    gen = wl.requests(3)
    seen = set()
    while seen != {"nu", "expand", "decompose"}:
        req = next(gen)
        if req["kind"] == "module-exponent" or req["input"]["p"] ** req["input"]["M"] > 25:
            continue
        path = tmp_path / "req.json"
        path.write_text(json.dumps(req["input"]))
        rc, _, _, text = cli_call(req["argv"], path, 30.0, Sampler(enabled=False))
        assert rc == 0 and wl.answer_ok(req, json.loads(text)), req
        seen.add(req["kind"])


def test_request_stream_is_a_function_of_the_seed():
    assert wl.stream_digest(5, 200) == wl.stream_digest(5, 200)
    assert wl.stream_digest(5, 200) != wl.stream_digest(6, 200)
    kinds = [req["kind"] for req in next(wl.rounds(5))]
    assert kinds.count("module-exponent") == 12
    assert kinds.count("nu") == 12
    assert kinds.count("decompose") == kinds.count("expand") == 6


def test_sampler_and_nominal_time():
    from speed import REF_NOMINAL_S, WINDOW_S, Sampler, nominal, slowness, smoothed

    s = Sampler()
    for _ in range(3):
        s.sample()
    assert len(s.samples) == 3 and all(x[2] > 0 for x in s.samples)
    # the samples' own CPU time is not charged to the nominal clock
    a, b = s.samples[0][0], s.samples[-1][0]
    assert nominal(s.samples, a, b) < (b - a) / min(slowness(s.samples))
    assert Sampler(enabled=False).sample() is None
    # two samples of slowness 2 and 4, further apart in wall time than the
    # smoothing window, around 1 s of work, then 1 s of work after
    samples = [[0.0, 10.0, 2 * REF_NOMINAL_S, 0.0],
               [1.0 + 2 * REF_NOMINAL_S, 10.0 + 3 * WINDOW_S, 4 * REF_NOMINAL_S, 0.0]]
    end = samples[1][0] + samples[1][2]
    assert nominal(samples, 0.0, end + 1.0) == pytest.approx(1 / 3 + 1 / 4)
    assert nominal(samples, -1.0, 0.0) == pytest.approx(1 / 2)
    # within the window the slowness is averaged: 3 everywhere
    samples[1][1] = 10.0 + WINDOW_S / 2
    assert smoothed(samples) == pytest.approx([3, 3])
    assert nominal(samples, 0.0, end + 1.0) == pytest.approx(2 / 3)
    # an interrupted sample is clipped at twice the run's median
    samples = [[0.0, 0.0, r * REF_NOMINAL_S, 0.0] for r in (1, 2, 100)]
    assert slowness(samples) == pytest.approx([1, 2, 4])


def test_harrell_davis_quantile():
    from run import quantile

    # close to the sample quantile on a large even sample, and symmetric
    assert quantile(list(range(1001)), 0.5) == pytest.approx(500)
    assert quantile(list(range(1001)), 0.9) == pytest.approx(900, abs=1)
    assert quantile([5.0], 0.9) == 5.0
    # weights every order statistic, so one straddled gap moves it smoothly
    low = quantile([1.0] * 13 + [2.0] * 7, 0.7)
    high = quantile([1.0] * 12 + [2.0] * 8, 0.7)
    assert 1.0 < low < high < 2.0 and high - low < 0.5
