"""Acceptance suite.

Ten desk-scale criteria, one test each, run at p=5, f=1, M=2, N=1.  All
arithmetic is exact over finite rings, so every assertion is an equality
or an exact subspace statement; the stated wall-clock budgets are upper
bounds and are asserted where given.  Run with -v to get one pass/fail
line per criterion.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from propring.algebra import group_algebra
from propring.checks import report_bytes, run_scenario, sub_rng
from propring.config import PrimeConfig
from propring.gf import gf
from propring.graded import (
    GradedRing,
    check_sandwich,
    default_ideals,
    hilbert_dims,
    hilbert_oracle,
    iterate_tau,
    tau_rewrite,
)
from propring.groups import group_model, quaternion_commutator_congruence
from propring.jsonio import to_jsonable
from propring.modules import check_exponent_transfer, module_corpus, restriction_determinism
from propring.padic import zq_ring
from span_oracle import primal_ideal_power_spans

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CASES = ("GL2", "QUAT")
SEED = 20250817
F5 = gf(5, 1)


def cfg_for(case):
    return PrimeConfig(5, 1, 2, case, N=1)


def bracket(alg, x, y):
    return (alg.mul(x, y) - alg.mul(y, x)) % alg.p


def nth_power(alg, x, e):
    out = alg.of_group(alg.model.identity)
    for _ in range(e):
        out = alg.mul(out, x)
    return out


def test_criterion_01_maxideal_powers_match_weight_subspaces():
    # span-computed powers of the maximal ideal equal the weight subspaces
    # for every j <= 8, in the weight <= 8 monomial space; both cases (the
    # primal span chain, the oracle of the reported certificate)
    for case in CASES:
        t0 = time.monotonic()
        out = primal_ideal_power_spans(group_algebra(cfg_for(case)), 8)
        assert out["ok"], (case, out)
        assert all(row["equal"] for row in out["powers"])
        assert time.monotonic() - t0 < 300, case


def test_criterion_02_quaternion_commutator_congruence():
    t0 = time.monotonic()
    out = quaternion_commutator_congruence(5, 1, level=3)
    assert out["ok"] and out["gammas_checked"] == 25 and out["failures"] == []
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_fifth_powers_commute():
    # [a^5, b] and [b^5, a] vanish through weight 8 (measured: first
    # nonzero coefficient sits at weight 10); the fifth powers of a, b, c
    # commute pairwise through weight 12 (measured: identically zero)
    t0 = time.monotonic()
    for case in CASES:
        alg = group_algebra(cfg_for(case))
        za, zb, zc = (alg.monomial(alg.model.generator(i)) for i in range(3))
        a5, b5, c5 = (nth_power(alg, z, 5) for z in (za, zb, zc))
        for lhs, rhs in ((a5, zb), (b5, za)):
            v = alg.nu(bracket(alg, lhs, rhs))
            assert v is None or v > 8, (case, v)
            assert v == 10, (case, v)  # frozen measured value
        for x, y in ((a5, b5), (a5, c5), (b5, c5)):
            v = alg.nu(bracket(alg, x, y))
            assert v is None or v > 12, (case, v)
    assert time.monotonic() - t0 < 300


def test_criterion_04_graded_and_quotient_dimensions():
    t0 = time.monotonic()
    for case in CASES:
        gr = GradedRing(group_algebra(cfg_for(case)))
        dims = hilbert_dims(gr, 6)
        assert dims == [1, 2, 4, 6, 9, 12, 16]
        assert dims == hilbert_oracle(6, 1, False)
        qdims = hilbert_dims(gr, 6, quotient_by_c=True)
        assert qdims == [1, 2, 3, 4, 5, 6, 7]
        assert qdims == hilbert_oracle(6, 1, True)
    assert time.monotonic() - t0 < 60


def test_criterion_05_filtration_sandwich():
    # first inclusion on 200 random subring-filtration elements, second via
    # rewriting transcripts on 50 monomials, for each k <= 3; every
    # transcript is re-expanded and compared exactly
    t0 = time.monotonic()
    alg = group_algebra(cfg_for("GL2"))
    for k in (1, 2, 3):
        out = check_sandwich(alg, k, 1, sub_rng(SEED, f"sandwich-{k}"),
                             samples=200, mono_samples=50)
        assert out["ok"], (k, out)
        assert out["first_inclusion"]["samples"] == 200
        assert out["second_inclusion"]["transcripts"] == 50
        assert out["second_inclusion"]["min_chunk_margin"] >= 0
    assert time.monotonic() - t0 < 600


def test_criterion_06_tau_contract_on_touched_monomials():
    # same sampling windows as criterion 5; for every monomial touched by
    # the iterated rewriting, re-derive the contract from scratch:
    # nu(tau(x)) = nu(x) and nu(tau(x) - x) > nu(x)
    alg = group_algebra(cfg_for("GL2"))
    cutoff = alg.pM - 1
    touched = 0
    for k in (1, 2, 3):
        rng = sub_rng(SEED, f"tau-contract-{k}")
        for _ in range(50):
            while True:
                x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
                wx = alg.nu_prime(x)
                if 5 * k <= wx <= min(cutoff, 5 * k + 10):
                    break
            tr = iterate_tau(alg, x, 1, cutoff)
            for t in tr.terms:
                dense = tau_rewrite(alg, t.src, 1, verify=False)
                w = alg.nu_prime(t.src)
                assert alg.nu(dense) == w, t.src
                diff = (dense - alg.monomial(t.src)) % alg.p
                assert not diff.any() or alg.in_filtration(diff, w + 1), t.src
                touched += 1
    assert touched > 0


def test_criterion_07_exponent_transfer_on_module_corpus():
    t0 = time.monotonic()
    cfg = cfg_for("GL2")
    corpus = module_corpus(cfg, count=20)
    assert len(corpus) >= 20
    assert all(m.dim <= 40 for m in corpus)
    ideals = default_ideals(1, F5)
    assert [sp.name for sp in ideals] == ["c", "a+c", "mixed"]
    for mod in corpus:
        for spec in ideals:
            out = check_exponent_transfer(mod, spec, 1)
            assert out["ok"], (mod.provenance, spec.name, to_jsonable(out))
            assert all(out["implications"].values())
    assert time.monotonic() - t0 < 1800


def test_criterion_08_restriction_only_reconstruction():
    # the subring-grading exponent computed from p^N-th power matrices
    # alone matches the full-action value, and survives 5 basis changes
    cfg = cfg_for("GL2")
    corpus = module_corpus(cfg, count=20)
    spec = default_ideals(1, F5)[0]
    twists = 0
    for mod in corpus:
        out = restriction_determinism(
            mod, spec, 1, sub_rng(SEED, f"det-{mod.provenance}"), basis_changes=5
        )
        assert out["ok"], (mod.provenance, to_jsonable(out))
        assert len(out["basis_change_exponents"]) == 5
        twists += bool(out["twist_present"])
    assert twists >= 1  # the twist comparison must be live somewhere


def test_criterion_09_arithmetic_unit_oracles():
    t0 = time.monotonic()
    R = zq_ring(5, 1, 2)
    assert R.teichmuller(2).vec == (7,)
    assert R.hensel_sqrt(R.from_int(21)).vec == (11,)
    assert R.hensel_sqrt(R.from_int(6)).vec == (16,)
    model = group_model(PrimeConfig(5, 1, 2, "GL2"))
    digits = model.mul(model.generator(1), model.generator(0))
    assert digits == (21, 6, 24)
    assert model._key(model.realize(digits)) == model._key(
        model._mul(model.realize(model.generator(1)), model.realize(model.generator(0)))
    )
    assert time.monotonic() - t0 < 1.0


# sha256 of each canonical check entry (sorted keys, compact separators,
# no timings) of the acceptance reports, recorded before the dense product
# was rewritten; entries rather than whole reports, so that the numpy
# version in the report header does not pin them
GOLDEN_ENTRIES = {
    "acceptance_gl2.json": {
        "arithmetic-oracles":
            "9453074da16b56b987ce6369a04b0a64d33ead89968a3a092b274e838dd23acf",
        "central-power-classes":
            "3beb0f657445312c50e7c25f0a381f931a2d44094bc37d74879b7fa1e2fcd3f1",
        "exponent-transfer":
            "d9a98eb1020de7ab9833c1f82afbc4181a7d7daa22d66eca7521dab179733432",
        "hilbert-series":
            "f3392896816353a3593d4aed6c65eb035d751205d4a8d465356b98b6c1e01c45",
        "ideal-power-spans":
            "fbce2708acde9c4b9a7dd6b4c3a5e25ebe3deafeb57b6bcacd7375b08805ecd2",
        "restriction-determinism":
            "349f01998dede8915235727e317ec6e01158e97b617d0495502a8f12fe6d9a9a",
        "sandwich":
            "05d0a58c6470cbb1eab7f4613d5897d6a883b2f8870eb0af55b08313e1de32b1",
        "tau-contract":
            "546556a77cb02726969f188c23fd2bb04766685acdfa6d36270174e983585dfb",
    },
    "acceptance_quat.json": {
        "arithmetic-oracles":
            "9453074da16b56b987ce6369a04b0a64d33ead89968a3a092b274e838dd23acf",
        "central-power-classes":
            "3beb0f657445312c50e7c25f0a381f931a2d44094bc37d74879b7fa1e2fcd3f1",
        "exponent-transfer":
            "0892294b8062eda366ae753b710c5a80d623f21879b7702c0b1b6aca2ba4fc9f",
        "hilbert-series":
            "f3392896816353a3593d4aed6c65eb035d751205d4a8d465356b98b6c1e01c45",
        "ideal-power-spans":
            "fbce2708acde9c4b9a7dd6b4c3a5e25ebe3deafeb57b6bcacd7375b08805ecd2",
        "quaternion-commutator":
            "d8e70b8e8077cdf82c8daf29e8995532f7bb2ce911a689535cdf62011f47365b",
        "restriction-determinism":
            "349f01998dede8915235727e317ec6e01158e97b617d0495502a8f12fe6d9a9a",
    },
}


def entry_digests(report):
    out = {}
    for entry in report["checks"]:
        body = {k: v for k, v in entry.items() if k != "elapsed_s"}
        canon = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        out[entry["name"]] = hashlib.sha256(canon).hexdigest()
    return out


def test_criterion_10_reports_are_byte_identical():
    for name in ("acceptance_gl2.json", "acceptance_quat.json"):
        data = json.loads((SCENARIOS / name).read_text())
        r1, code1 = run_scenario(data)
        r2, code2 = run_scenario(data)
        assert code1 == code2 == 0, (name, [c["status"] for c in r1["checks"]])
        assert report_bytes(r1) == report_bytes(r2), name
        assert entry_digests(r1) == GOLDEN_ENTRIES[name], name
