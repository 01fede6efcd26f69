"""Associated graded ring: generator classes and their relations, ideal
spans, the p^N-twist, and the chunk rewriting."""

import numpy as np
import pytest

from propring.errors import CutoffBeyondFaithful, NonHomogeneousInput
from propring.gf import gf
from propring.graded import (
    GradedRing,
    IdealTables,
    build_JN,
    check_JN_in_J,
    check_central_power_classes,
    check_centrality,
    check_commutative_quotient,
    check_hilbert,
    check_pigeonhole,
    check_power_commutator_identity,
    check_regular_central_sequence,
    check_sandwich,
    check_tau_contract,
    chunk_weight_bound,
    default_ideals,
    generator_classes,
    hilbert_dims,
    hilbert_oracle,
    ideal_spec,
    iterate_tau,
    tau_rewrite,
    verify_transcript,
)
from span_oracle import primal_ideal_power_spans

F5 = gf(5, 1)


@pytest.fixture(scope="session")
def gr(alg):
    return GradedRing(alg)


@pytest.fixture(scope="session")
def ideals():
    return default_ideals(1, F5)


def test_graded_dims_match_oracle(gr):
    assert hilbert_dims(gr, 6) == hilbert_oracle(6, 1, False)
    assert hilbert_dims(gr, 6, quotient_by_c=True) == hilbert_oracle(6, 1, True)


def test_degree_one_bracket_is_c(gr):
    br = gr.commutator(gr.a(0), gr.b(0))
    assert not br.is_zero()
    assert br.degree == 2
    assert gr.c_span_ok(br)


def test_c_is_central_a_is_not(gr):
    assert check_centrality(gr, gr.c(0), 6)
    assert not check_centrality(gr, gr.a(0), 6)


def test_fifth_powers_become_central(gr):
    assert check_centrality(gr, gr.power(gr.a(0), 5), 8)
    assert check_centrality(gr, gr.power(gr.b(0), 5), 8)


def test_power_commutator_identity(gr):
    for ell in (2, 3, 5, 7):
        assert check_power_commutator_identity(gr, 0, gr.b(0), ell, 12)


def test_hilbert_check(gr):
    out = check_hilbert(gr, 6)
    assert out["ok"]


def test_regular_central_sequence(gr):
    out = check_regular_central_sequence(gr, 6)
    assert out["ok"] and out["central"] and out["injective"]


def test_central_power_classes(gr):
    out = check_central_power_classes(gr, 1)
    assert out["ok"]
    assert out["failures"] == []
    assert out["pairs_checked"] > 0


def test_default_ideal_shapes(ideals):
    assert [sp.name for sp in ideals] == ["c", "a+c", "mixed"]
    assert ideals[0].f_gens == ()
    assert ideals[1].gen_degrees() == [1]
    assert ideals[2].gen_degrees() == [2]


def test_ideal_spec_rejects_mixed_degrees():
    bad = ((((1,), (0,), 1), ((2,), (0,), 1)),)
    with pytest.raises(NonHomogeneousInput):
        ideal_spec(bad, 1, name="bad")
    split = ideal_spec(bad, 1, name="split", homogenize=True)
    assert sorted(split.gen_degrees()) == [1, 2]


def test_commutative_quotients(gr, ideals):
    for sp in ideals:
        assert check_commutative_quotient(gr, sp)


def test_build_JN_scales_exponents(ideals):
    jn = build_JN(ideals[1], 1, F5)
    assert jn.N == 1 and jn.base is ideals[1]
    assert jn.f_gens == ((((5,), (0,), 1),),)


def test_JN_inside_J(gr, ideals):
    for sp in ideals:
        out = check_JN_in_J(gr, sp, 1)
        assert out["ok"] and out["misses"] == []


def test_ideal_tables_membership(gr, ideals):
    tabs = IdealTables(gr, generator_classes(gr, ideals[0]), cutoff=6)
    assert tabs.contains(gr.c(0))
    assert tabs.contains(gr.mul(gr.a(0), gr.c(0)))
    assert tabs.contains(gr.mul(gr.c(0), gr.b(0)))
    assert not tabs.contains(gr.a(0))
    assert not tabs.contains(gr.one())
    assert not tabs.contains(gr.mul(gr.a(0), gr.b(0)))


def test_ideal_power_spans(alg):
    out = primal_ideal_power_spans(alg, 6)
    assert out["ok"]
    assert out["graded_dims"] == [1, 2, 4, 6, 9, 12, 16]
    with pytest.raises(CutoffBeyondFaithful):
        primal_ideal_power_spans(alg, alg.pM)


def test_faithful_gate(gr):
    with pytest.raises(CutoffBeyondFaithful):
        hilbert_dims(gr, 25)


def test_tau_fixes_pure_inputs(alg):
    # no chunk part, or nothing but chunk: the word is already ordered
    small = (3, 2, 1)
    assert np.array_equal(tau_rewrite(alg, small, 1), alg.monomial(small))
    chunk = (5, 10, 0)
    assert np.array_equal(tau_rewrite(alg, chunk, 1), alg.monomial(chunk))


def test_tau_contract_on_mixed_monomial(alg):
    x = (7, 6, 1)
    w = alg.nu_prime(x)
    dense = tau_rewrite(alg, x, 1, verify=False)
    assert alg.nu(dense) == w
    diff = (dense - alg.monomial(x)) % alg.p
    assert alg.in_filtration(diff, w + 1)


def test_iterate_tau_transcripts(alg, rng):
    done = 0
    while done < 5:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if not any(x) or alg.nu_prime(x) > alg.pM - 1:
            continue
        tr = iterate_tau(alg, x, 1, alg.pM - 1)
        assert verify_transcript(alg, tr)
        for t in tr.terms:
            assert t.chunk_weight >= chunk_weight_bound(alg, t.src_weight, 1)
        done += 1


def test_sandwich_light(alg, rng):
    out = check_sandwich(alg, 2, 1, rng, samples=20, mono_samples=5)
    assert out["ok"]
    assert out["first_inclusion"]["samples"] == 20
    assert out["second_inclusion"]["min_chunk_margin"] >= 0


def test_sandwich_gate(alg, rng):
    with pytest.raises(CutoffBeyondFaithful):
        check_sandwich(alg, 3, 1, rng, cutoff=10)


def test_tau_contract_check(alg, rng):
    out = check_tau_contract(alg, 1, rng, samples=10)
    assert out["ok"] and out["monomials_checked"] > 0


def test_pigeonhole_light(gr, ideals, rng):
    out = check_pigeonhole(gr, ideals[0], 1, rng, samples=5)
    assert out["ok"]
    assert out["pigeonhole_ok"] and out["congruence_ok"] and out["membership_ok"]


def test_mult_matrix_matches_unit_class_products(gr):
    # columns read off GradedRing.mul, which lifts through from_monomial and
    # the dense product rather than monomial() and zmul
    gens = gr.ring_generator_classes()
    for gi, g in enumerate(gens):
        for d in range(4):
            units = [gr.unit_class(k) for k in gr.exponents(d)]
            left = np.array([gr.mul(g, u).coords for u in units], dtype=np.int16).T
            right = np.array([gr.mul(u, g).coords for u in units], dtype=np.int16).T
            assert np.array_equal(gr.mult_matrix("left", gi, d), left), (gi, d)
            assert np.array_equal(gr.mult_matrix("right", gi, d), right), (gi, d)
