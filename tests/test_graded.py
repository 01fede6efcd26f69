"""Associated graded ring: generator classes and their relations, ideal
spans, the p^N-twist, and the chunk rewriting."""

import math
import tracemalloc

import numpy as np
import pytest

from propring import algebra, checks, graded
from propring.algebra import GroupAlgebra, group_algebra
from propring.config import PrimeConfig
from propring.errors import ContractViolation, CutoffBeyondFaithful, NonHomogeneousInput
from propring.gf import gf, residue
from propring.groups import GL2Model, QuatModel
from propring.graded import (
    GradedRing,
    IdealTables,
    build_JN,
    check_central_power_classes,
    check_hilbert,
    check_sandwich,
    check_tau_contract,
    chunk_weight_bound,
    default_ideals,
    draw_row,
    hilbert_dims,
    hilbert_oracle,
    ideal_spec,
    tau_rewrite,
)
import batch_of_one
import graded_oracle
from batch_of_one import iterate_tau, verify_transcript
import monomial_oracle
import power_oracle
import sandwich_oracle
import tau_oracle
import transcript_oracle
from graded_oracle import DenseGradedRing
from span_oracle import primal_ideal_power_spans
from transform_oracle import of_support
from zmul_oracle import table_zmul, tau_word, term_word

F5 = gf(5, 1)


@pytest.fixture(scope="session")
def gr(alg):
    return DenseGradedRing(alg)


@pytest.fixture(scope="session")
def ideals():
    return default_ideals(1, F5)


def test_graded_dims_match_oracle(gr):
    assert hilbert_dims(gr, 6) == hilbert_oracle(6, 1, False)
    assert hilbert_dims(gr, 6, quotient_by_c=True) == hilbert_oracle(6, 1, True)


def is_central(gr, cls):
    """The bracket of cls with every degree-one generator class vanishes."""
    return all(gr.commutator(cls, g).is_zero() for g in gr.degree_one_classes())


def member(tables, cls):
    """cls lies in the degree-cls.degree span of the ideal tables."""
    basis, pivots = tables.tables[cls.degree]
    return not residue(np.array([cls.coords]), basis, pivots, F5).any()


def test_degree_one_bracket_is_c(gr):
    br = gr.commutator(gr.a(0), gr.b(0))
    assert not br.is_zero()
    assert br.degree == 2
    c = gr.c(0)
    assert br == gr.scale(br.coords[c.coords.index(1)], c)


def test_c_is_central_a_is_not(gr):
    assert is_central(gr, gr.c(0))
    assert not is_central(gr, gr.a(0))


def test_fifth_powers_become_central(gr):
    assert is_central(gr, gr.power(gr.a(0), 5))
    assert is_central(gr, gr.power(gr.b(0), 5))


def test_power_commutator_identity(gr):
    # [a^l, b] = l a^(l-1) [a, b] as classes in degree l + 1
    a, b = gr.a(0), gr.b(0)
    for ell in (2, 3, 5, 7):
        lhs = gr.commutator(gr.power(a, ell), b)
        rhs = gr.scale(ell % gr.p, gr.mul(gr.power(a, ell - 1), gr.commutator(a, b)))
        assert lhs == rhs, ell


def test_hilbert_check(gr):
    out = check_hilbert(gr, 6)
    assert out["ok"]


def test_central_power_classes(model):
    out = check_central_power_classes(model, 1)
    assert out["ok"]
    assert out["failures"] == []
    assert out["pairs_checked"] > 0


def test_default_ideal_shapes(ideals):
    assert [sp.name for sp in ideals] == ["c", "a+c", "mixed"]
    assert ideals[0].f_gens == ()
    assert ideals[1].f_gens == ((((1,), (0,), 1),),)
    assert ideals[2].f_gens == ((((2,), (0,), 1), ((1,), (1,), 2), ((0,), (2,), 3)),)


def test_ideal_spec_rejects_mixed_degrees():
    bad = ((((1,), (0,), 1), ((2,), (0,), 1)),)
    with pytest.raises(NonHomogeneousInput):
        ideal_spec(bad, 1, name="bad")


def test_commutative_quotients(gr):
    # every ideal holds the c-part, and every bracket of degree-one classes
    # already lies in the c-ideal
    tabs = IdealTables(gr, [gr.c(0)], cutoff=2)
    ones = gr.degree_one_classes()
    assert all(member(tabs, gr.commutator(x, y)) for x in ones for y in ones)


def test_build_JN_scales_exponents(ideals):
    jn = build_JN(ideals[1], 1, F5)
    assert jn.N == 1 and jn.name == "a+c^[1]"
    assert jn.f_gens == ((((5,), (0,), 1),),)


def test_ideal_tables_membership(gr):
    tabs = IdealTables(gr, [gr.c(0)], cutoff=6)
    assert member(tabs, gr.c(0))
    assert member(tabs, gr.mul(gr.a(0), gr.c(0)))
    assert member(tabs, gr.mul(gr.c(0), gr.b(0)))
    assert not member(tabs, gr.a(0))
    assert not member(tabs, gr.one())
    assert not member(tabs, gr.mul(gr.a(0), gr.b(0)))


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
    # no chunk part, or nothing but chunk: the word is already ordered, so
    # the image is the monomial itself, the one term x in monomial
    # coordinates
    for x in ((3, 2, 1), (5, 10, 0)):
        assert np.array_equal(tau_oracle.tau_rewrite(alg, x, 1, verify=False),
                              alg.monomial(x))
        ks, c = tau_rewrite(alg, x, 1)
        assert ks.tolist() == [alg.model.index_of(x)] and c.tolist() == [1]


def test_tau_contract_on_mixed_monomial(alg):
    x = (7, 6, 1)
    w = alg.nu_prime(x)
    dense = tau_oracle.tau_rewrite(alg, x, 1, verify=False)
    assert alg.nu(dense) == w
    diff = (dense - alg.monomial(x)) % alg.p
    assert diff.any() and tau_oracle.in_filtration(alg, diff, w + 1)
    assert np.array_equal(of_support(alg, tau_rewrite(alg, x, 1)),
                          tau_oracle.below_faithful(alg, dense))


def _value(tr):
    """A transcript with its arrays as lists, to compare by ==."""
    return {**vars(tr), "srcs": tr.srcs.tolist(), "coeffs": tr.coeffs.tolist()}


def assert_tau_matches_oracle(alg, x):
    """The support-pair rewriting of x against the dense one: the same
    image below p^M and the same transcript, whose passes the library's
    side reads as the distinct weights of its terms; returns the number
    of passes."""
    assert np.array_equal(of_support(alg, tau_rewrite(alg, x, 1)), tau_oracle.below_faithful(
        alg, tau_oracle.tau_rewrite(alg, x, 1))), x
    tr = iterate_tau(alg, x, 1)
    assert _value(tr) == _value(tau_oracle.iterate_tau(alg, x, 1)), x
    return tr.passes


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_tau_matches_group_coordinate_oracle(pfm, case):
    alg = group_algebra(PrimeConfig(*pfm, case, N=1))
    rng = np.random.default_rng(sum(pfm) + len(case))
    done = multi_pass = 0
    while done < 20:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if not any(x) or alg.nu_prime(x) > alg.pM - 1:
            continue
        multi_pass += assert_tau_matches_oracle(alg, x) > 1
        done += 1
    assert multi_pass > 0


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
def test_tau_matches_group_coordinate_oracle_at_depth_3(case):
    # a few monomials at (5, 1, 3), where the oracle transforms vectors of
    # 1.95 M entries, 2-3 s per monomial
    alg = group_algebra(PrimeConfig(5, 1, 3, case, N=1))
    passes = [assert_tau_matches_oracle(alg, x) for x in ((12, 3, 2), (30, 4, 38), (69, 6, 22))]
    assert max(passes) > 1


def test_iterate_tau_transcripts(alg, rng):
    done = 0
    while done < 5:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if not any(x) or alg.nu_prime(x) > alg.pM - 1:
            continue
        tr = iterate_tau(alg, x, 1)
        assert verify_transcript(alg, tr)
        # the bound on a whole array, against the ceiling of each weight
        w = np.array(alg.nu_weights)
        bounds = chunk_weight_bound(alg, tr.srcs @ w, 1)
        assert bounds.tolist() == [math.ceil((alg.nu_prime(src) - 4 * alg.model.f * (5 - 1)) / 5)
                                   for src in tr.srcs.tolist()]
        assert ((tr.srcs // 5) @ w >= bounds).all()
        done += 1


def test_sandwich_light(alg, rng):
    out, = check_sandwich(alg, [2], 1, rng, samples=20, mono_samples=5)
    assert out["ok"]
    assert out["first_inclusion"]["samples"] == 20
    assert out["second_inclusion"]["min_chunk_margin"] >= 0


def test_sandwich_gate(alg, cfg, rng, monkeypatch):
    # k p^N = 25 passes the faithful cutoff p^M - 1 = 24
    with pytest.raises(CutoffBeyondFaithful):
        check_sandwich(alg, [5], 1, rng, samples=1, mono_samples=1)
    # the rewriting reads its contract below p^M only: a start of weight
    # 25 = p^M, which has no term below p^M to rewrite, is refused by the
    # rewriting of one monomial and by the lockstep
    with pytest.raises(CutoffBeyondFaithful):
        tau_rewrite(alg, (20, 5, 0), 1)
    with pytest.raises(CutoffBeyondFaithful, match=r"weight 25 of \(20, 5, 0\)"):
        graded.iterate_taus(alg, [(1, 0, 0), (20, 5, 0)], 1)
    # so a check that met such a start reports indeterminate, not fail
    monkeypatch.setattr(graded, "draw_row", lambda *args: (20, 5, 0))
    report, code = checks.run_scenario({
        "name": "unfaithful-start", "seed": 7,
        "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": cfg.case},
        "checks": [{"check": "tau-contract", "params": {"N": 1, "samples": 2}}]})
    entry, = report["checks"]
    assert code == 1 and entry["status"] == "indeterminate", entry


@pytest.mark.parametrize("fail_at", [None, 0, 9])
def test_sandwich_matches_sequential_oracle(alg, monkeypatch, fail_at):
    # the batched first inclusion, in groups of 2000 pairs at most (a row
    # beyond that in slices merged into one keyed pair), against one
    # sample at a time: the same products read in the same order, the
    # same report and the generator in the same state after the second
    # inclusion.  The library reads each row group of products by one
    # row-keyed support_expansion at the window k p^N - 1 = 9, the oracle
    # each product by the dense nu; at product fail_at each answers with a
    # term below k p^N, and both stop reading products at that sample.
    # Every sample is drawn whatever the verdict, so the second inclusion
    # and the generator's final state are those of the clean run
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 2000)
    rng = np.random.default_rng(11)
    clean, = check_sandwich(alg, [2], 1, rng, samples=20, mono_samples=3)
    clean_state = rng.bit_generator.state
    real_nu, real_expansion = alg.nu, alg.support_expansion
    runs = []
    for batched in (True, False):
        seen = []

        def failing(dense):
            seen.append(dense.tobytes())
            return len(seen) - 1 == fail_at

        def nu(a):
            return 0 if failing(a) else real_nu(a)

        def support_expansion(keys, coeffs, cutoff):
            # the group's products row by row, keys row order + index, up
            # to the first that fails, whose row becomes [1], of weight 0
            if cutoff == 2 * 5 - 1 and keys.size:
                rows = keys // alg.order
                for r in np.unique(rows).tolist():
                    mine = rows == r
                    if failing(of_support(alg, (keys[mine] - r * alg.order, coeffs[mine, 0]))):
                        keys = np.concatenate([keys[rows < r], [r * alg.order], keys[rows > r]])
                        coeffs = np.concatenate([coeffs[rows < r], [[1]], coeffs[rows > r]])
                        break
            return real_expansion(keys, coeffs, cutoff)

        monkeypatch.setattr(alg, "nu", nu)
        monkeypatch.setattr(alg, "support_expansion", support_expansion)
        rng = np.random.default_rng(11)
        if batched:
            res, = check_sandwich(alg, [2], 1, rng, samples=20, mono_samples=3)
        else:
            first = sandwich_oracle.first_inclusion(alg, 2, 1, rng, 20)
            res, = check_sandwich(alg, [2], 1, rng, samples=0, mono_samples=3)
            res = {**res, "first_inclusion": first, "ok": first["ok"] and res["ok"]}
        runs.append((res, seen, rng.bit_generator.state))
    assert runs[0] == runs[1]
    res, seen, state = runs[0]
    if fail_at is None:
        assert res["ok"] and res["first_inclusion"]["samples"] == 20
        assert len(seen) == 20
    else:
        assert res["first_inclusion"] == {"samples": fail_at + 1, "ok": False}
        assert len(seen) == fail_at + 1
    assert res["second_inclusion"] == clean["second_inclusion"]
    assert res["second_inclusion"]["transcripts"] == 3
    assert state == clean_state


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_first_inclusion_window_matches_dense_nu(alg, k):
    # random products u v with u a sum of subring monomials z^(p y) of
    # small y, many below step k: a term of the product at the window
    # k p^N - 1 is exactly a dense nu below k p^N
    rng = np.random.default_rng(k)
    q = 5
    verdicts = []
    for _ in range(30):
        u = alg.zero()
        for _ in range(int(rng.integers(1, 4))):
            y = rng.integers(0, 3, size=alg.n)
            u = (u + int(rng.integers(1, alg.p)) * alg.monomial(tuple(q * y))) % alg.p
        v = alg.zero()
        v[rng.choice(alg.order, size=30, replace=False)] = rng.integers(0, alg.p, size=30)
        uv = alg.mul(u, v)
        idx = np.flatnonzero(uv)
        windowed = alg.support_expansion(idx, uv[idx, None].astype(np.int64), k * q - 1)[0].size > 0
        val = alg.nu(uv)
        assert windowed == (val is not None and val < k * q)
        verdicts.append(windowed)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("p,M", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_numpy_block_draws_continue_the_row_stream(p, M, n):
    # draw_row rests on numpy's bounded draws (Lemire's method on the bit
    # generator's one stream): a (B, n) block is B successive draws of n
    # rows, and putting the state back and drawing rows 0..j again leaves
    # the generator as the j + 1 successive draws do.  At highs p^(M - N)
    # and p^M, N = 1, the subring and the monomial exponents
    for high in (p ** (M - 1), p**M):
        seq, block = np.random.default_rng(high + n), np.random.default_rng(high + n)
        rows = [seq.integers(0, high, size=n) for _ in range(50)]
        state = block.bit_generator.state
        assert np.array_equal(block.integers(0, high, size=(50, n)), np.array(rows))
        assert block.bit_generator.state == seq.bit_generator.state
        for j in (0, 17, 49):
            block.bit_generator.state = state
            again = np.random.default_rng(high + n)
            for _ in range(j + 1):
                again.integers(0, high, size=n)
            block.integers(0, high, size=(j + 1, n))
            assert block.bit_generator.state == again.bit_generator.state
            assert np.array_equal(block.integers(0, high, size=n), again.integers(0, high, size=n))


def _record_draws(monkeypatch):
    """Stub out the rewriting in check_sandwich and check_tau_contract; the
    list returned collects the monomials they draw."""
    drawn = []

    def iterate_taus(alg, starts, N):
        drawn.extend(starts)
        return (np.zeros(0, dtype=np.int64), np.zeros((0, alg.n), dtype=np.int64),
                np.zeros(0, dtype=np.int64))

    monkeypatch.setattr(graded, "iterate_taus", iterate_taus)
    monkeypatch.setattr(graded, "verify_transcripts",
                        lambda alg, starts, *arrays: [True] * len(starts))
    return drawn


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2), (5, 1, 3)], ids=str)
def test_block_draws_match_sequential_oracle(pfm, case, monkeypatch):
    # the second inclusion's monomials at k = 1..3 (acceptance about 3% at
    # (5, 1, 2) and 0.02% at (5, 1, 3), k = 3) and tau-contract's, drawn in
    # blocks by draw_row, against the row-by-row loops: the same monomials
    # in the same order and the generator in the same state after them
    alg = group_algebra(PrimeConfig(*pfm, case))
    drawn = _record_draws(monkeypatch)
    for k in (1, 2, 3):
        rng, seq = np.random.default_rng(k), np.random.default_rng(k)
        res, = check_sandwich(alg, [k], 1, rng, samples=0, mono_samples=30)
        assert res["second_inclusion"]["transcripts"] == 30
        assert drawn == [sandwich_oracle.window_monomial(alg, k, 1, seq) for _ in range(30)]
        assert rng.bit_generator.state == seq.bit_generator.state
        drawn.clear()
    rng, seq = np.random.default_rng(4), np.random.default_rng(4)
    assert check_tau_contract(alg, 1, rng, samples=20)["ok"]
    assert drawn == [sandwich_oracle.tau_monomial(alg, seq) for _ in range(20)]
    assert rng.bit_generator.state == seq.bit_generator.state


def test_draw_row_crosses_blocks(monkeypatch):
    # first blocks of 2 rows, then 4 and 8 at most: an accepted row deep
    # in a later block, and one at the head of the first
    monkeypatch.setattr(graded, "_DRAW_FIRST", 2)
    monkeypatch.setattr(graded, "_DRAW_MAX", 8)
    for accept in (lambda r: r.sum(axis=1) >= 12, lambda r: r.sum(axis=1) >= 0):
        rng, seq = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(20):
            want = seq.integers(0, 5, size=(1, 3))
            while not accept(want)[0]:
                want = seq.integers(0, 5, size=(1, 3))
            assert draw_row(rng, 5, 3, accept) == tuple(want[0].tolist())
        assert rng.bit_generator.state == seq.bit_generator.state


def test_first_inclusion_memory_is_bounded():
    # one first inclusion of the bench's size, about 98k support pairs: the
    # row groups of _PAIR_CHUNK pairs keep the traced peak near 2 MB, where
    # walking all pairs in one pass peaks near 10 MB
    alg = group_algebra(PrimeConfig(5, 1, 2, "GL2"))
    check_sandwich(alg, [3], 1, np.random.default_rng(0), samples=5, mono_samples=0)
    tracemalloc.start()
    try:
        res, = check_sandwich(alg, [3], 1, np.random.default_rng(20250825), samples=100,
                              mono_samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["first_inclusion"] == {"samples": 100, "ok": True}
    assert peak < 4_000_000, peak


def test_transcripts_at_depth_3_stay_below_one_vector():
    # QUAT (5, 1, 3): four transcripts and their re-expansion hold support
    # pairs only, so the traced peak stays below one float64 vector of the
    # group's order, 15.6 MB; the dense round trip traced about 51 MB.  The
    # tables and the weight array are built first, once per algebra
    alg = group_algebra(PrimeConfig(5, 1, 3, "QUAT", N=1))
    for i in range(alg.n):
        alg.model.right_mul_table(alg.model.generator(i))
    alg.nu_weight_array
    tracemalloc.start()
    try:
        for x in ((76, 14, 5), (55, 4, 17), (2, 32, 31), (46, 38, 15)):
            assert verify_transcript(alg, iterate_tau(alg, x, 1)), x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * alg.order, peak


def test_sandwich_lockstep_memory_is_bounded_by_the_count():
    # QUAT (5, 1, 2), k = 1..4 and 1,000 monomials per k: the 4,000
    # starts run in batches of _BATCH, and the traced peak, most of it the
    # word sums verify_transcripts merges for one batch, stays near 13 MB.
    # Sizing later batches by residual entries ran the 3,985 after a probe
    # of 15 as one batch, with a term object per term, and peaked at 24 MB.
    # The tables are built first by a small run
    alg = group_algebra(PrimeConfig(5, 1, 2, "QUAT", N=1))
    check_sandwich(alg, range(1, 5), 1, np.random.default_rng(7), samples=2, mono_samples=2)
    tracemalloc.start()
    try:
        res = check_sandwich(alg, range(1, 5), 1, np.random.default_rng(7), samples=20,
                             mono_samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["ok"] for r in res)
    assert [r["second_inclusion"]["transcripts"] for r in res] == [1000] * 4
    assert peak < 18_000_000, peak


def _window_starts(alg, k, rng, count):
    """count start monomials of the second inclusion at index k, N = 1."""
    return [sandwich_oracle.window_monomial(alg, k, 1, rng) for _ in range(count)]


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_lockstep_matches_per_transcript_oracle(pfm, case):
    # 30 transcripts per k in one lockstep batch, against the rewriting of
    # one monomial at a time: the same transcripts and verdicts; then the
    # checks, whose starts run as one lockstep batch, against the loops
    # that draw and rewrite one at a time: the same reports and the
    # generator in the same state
    alg = group_algebra(PrimeConfig(*pfm, case, N=1))
    multi = 0
    for k in (1, 2, 3):
        starts = _window_starts(alg, k, np.random.default_rng(k), 30)
        trs = batch_of_one.iterate_taus(alg, starts, 1)
        want = [transcript_oracle.iterate_tau(alg, x, 1) for x in starts]
        assert [_value(tr) for tr in trs] == [_value(tr) for tr in want]
        assert batch_of_one.verify_transcripts(alg, trs) == [
            transcript_oracle.verify_transcript(alg, tr) for tr in want] == [True] * 30
        multi += sum(tr.passes > 1 for tr in trs)
        rng, seq = np.random.default_rng(10 + k), np.random.default_rng(10 + k)
        res, = check_sandwich(alg, [k], 1, rng, samples=0, mono_samples=30)
        assert res["second_inclusion"] == transcript_oracle.second_inclusion(alg, k, 1, seq, 30)
        assert rng.bit_generator.state == seq.bit_generator.state
    assert multi > 0
    rng, seq = np.random.default_rng(4), np.random.default_rng(4)
    assert check_tau_contract(alg, 1, rng, 30) == transcript_oracle.tau_contract(alg, 1, seq, 30)
    assert rng.bit_generator.state == seq.bit_generator.state


def _first_passes(alg, trs):
    """{monomial: (transcript, pass)} of the first rewrite of each monomial
    in the order of one transcript after another; a transcript's passes
    are the distinct weights of its terms' monomials in order."""
    first = {}
    for t, tr in enumerate(trs):
        srcs = list(map(tuple, tr.srcs.tolist()))
        weights = sorted({alg.nu_prime(x) for x in srcs})
        for x in srcs:
            first.setdefault(x, (t, weights.index(alg.nu_prime(x))))
    return first


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_lockstep_raises_the_break_the_sequential_loop_raises(pfm, case, monkeypatch):
    # two broken words, planted in the library's word builder and in the
    # oracle's: one first rewritten at pass P >= 1 of transcript T (its
    # coefficients doubled, so the rewriting perturbs it), and one first
    # rewritten by a later transcript T2 at an earlier pass (its support
    # emptied, so the rewriting changes its weight).  The loop over one
    # transcript at a time meets T's break first; the lockstep raises the
    # first in its own order, T2's, at the earlier pass.  With T2's word
    # mended, both raise T's.  The sandwich draws all its monomials first
    # and rewrites its 30 as one batch, so it raises T2's break too, with
    # the generator after all the draws
    alg = group_algebra(PrimeConfig(*pfm, case, N=1))
    k = 2
    starts = _window_starts(alg, k, np.random.default_rng(31), 30)
    clean = [transcript_oracle.iterate_tau(alg, x, 1) for x in starts]
    first = _first_passes(alg, clean)
    late = min((tp, x) for x, tp in first.items() if tp[1] >= 1)
    (T, P), x = late
    early = min((tp, y) for y, tp in first.items() if tp[0] > T and tp[1] < P)
    (T2, P2), y = early
    broken = {tuple(tau_word(alg, x, 1)): "double", tuple(tau_word(alg, y, 1)): "empty"}
    real, real_word = alg.zmul, transcript_oracle.support_word_mul

    def support_word_mul(alg, word):
        idx, coeffs = real_word(alg, word)
        how = broken.get(tuple(word))
        if how == "double":
            return idx, 2 * coeffs % alg.p
        if how == "empty":
            return idx[:0], coeffs[:0]
        return idx, coeffs

    def zmul(chunks, fracs):
        for keys, coeffs in real(chunks, fracs):
            row = keys // alg.order
            for r in np.unique(row).tolist():
                how = broken.get(tuple(term_word(chunks[r].tolist(), fracs[r].tolist())))
                if how == "double":
                    coeffs = np.where(row == r, 2 * coeffs % alg.p, coeffs)
                elif how == "empty":
                    keys, coeffs, row = keys[row != r], coeffs[row != r], row[row != r]
            yield keys, coeffs

    monkeypatch.setattr(alg, "zmul", zmul)
    monkeypatch.setattr(transcript_oracle, "support_word_mul", support_word_mul)
    perturbed, changed = (f"rewriting perturbed {x} at its own weight",
                          f"rewriting changed the weight of {y}")
    with pytest.raises(ContractViolation) as got:
        graded.iterate_taus(alg, starts, 1)
    assert str(got.value) == changed and got.value.witness == y
    with pytest.raises(ContractViolation) as want:
        [transcript_oracle.iterate_tau(alg, s, 1) for s in starts]
    assert str(want.value) == perturbed and want.value.witness == x
    batches, real_taus = [], graded.iterate_taus

    def iterate_taus(alg, starts, N):
        batches.append(len(starts))
        return real_taus(alg, starts, N)

    monkeypatch.setattr(graded, "iterate_taus", iterate_taus)
    rng, seq = np.random.default_rng(31), np.random.default_rng(31)
    with pytest.raises(ContractViolation) as got:
        check_sandwich(alg, [k], 1, rng, samples=0, mono_samples=30)
    assert batches == [30]
    assert str(got.value) == changed and got.value.witness == y
    _window_starts(alg, k, seq, 30)
    assert rng.bit_generator.state == seq.bit_generator.state
    del broken[tuple(tau_word(alg, y, 1))]
    with pytest.raises(ContractViolation) as got:
        real_taus(alg, starts, 1)
    with pytest.raises(ContractViolation) as want:
        [transcript_oracle.iterate_tau(alg, s, 1) for s in starts]
    assert str(got.value) == str(want.value) == perturbed
    assert got.value.witness == want.value.witness == x


def test_lockstep_batch_at_depth_3_stays_below_one_vector():
    # QUAT (5, 1, 3): the 20 start monomials of the CI's tau-contract
    # scenario rewritten as one lockstep batch hold support pairs only, so
    # the traced peak stays below one float64 vector of the group's order.
    # The tables and the weight array are built first, once per algebra
    alg = group_algebra(PrimeConfig(5, 1, 3, "QUAT", N=1))
    for i in range(alg.n):
        alg.model.right_mul_table(alg.model.generator(i))
    alg.nu_weight_array
    w = np.array(alg.nu_weights)
    rng = checks.sub_rng(7, "tau-contract")
    starts = [draw_row(rng, alg.pM, alg.n, lambda rows: rows.any(axis=1) & (rows @ w < alg.pM))
              for _ in range(20)]
    tracemalloc.start()
    try:
        owner = graded.iterate_taus(alg, starts, 1)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(owner).tolist() == list(range(20))
    assert peak < 8 * alg.order, peak


def test_tau_contract_at_depth_3_stays_below_one_vector():
    # QUAT (5, 1, 3), 50 samples: the starts run as one lockstep batch; the
    # traced peak, most of it one row's expansion block, stays below one
    # float64 vector of the group's order.  The tables and the weight
    # array are built first, once per algebra
    alg = group_algebra(PrimeConfig(5, 1, 3, "QUAT", N=1))
    for i in range(alg.n):
        alg.model.right_mul_table(alg.model.generator(i))
    alg.nu_weight_array
    tracemalloc.start()
    try:
        res = check_tau_contract(alg, 1, checks.sub_rng(7, "tau-contract"), 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["ok"] and res["monomials_checked"] > 0
    assert peak < 8 * alg.order, peak


def test_zmul_groups_hold_whole_rows_within_the_pair_chunk(monkeypatch):
    # the words of 40 rewritten monomials, with _PAIR_CHUNK = 300: groups
    # of whole rows, ascending, whose support pairs sum to 300 at most, a
    # row over it alone, no row's word holding more terms than its pairs;
    # joined, byte for byte the table-walking builder's row-keyed pair
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 300)
    alg = group_algebra(PrimeConfig(5, 1, 2, "GL2", N=1))
    rng = np.random.default_rng(3)
    exps = rng.integers(0, alg.pM, size=(2000, alg.n))
    exps = exps[exps @ np.array(alg.nu_weights) < alg.pM][:40]
    fracs = exps % alg.p
    chunks = exps - fracs
    # a row's support pairs: the terms of z^chunk times those of z^frac
    pairs = np.prod([np.bincount(alg._lucas_rows(e)[0], minlength=len(e))
                     for e in (chunks, fracs)], axis=0)
    groups = list(alg.zmul(chunks, fracs))
    assert len(groups) > 2 and pairs.max() > 300
    rows = [np.unique(k // alg.order) for k, _ in groups]
    assert np.array_equal(np.concatenate(rows), np.arange(len(exps)))  # no word is zero
    for (k, _), mine in zip(groups, rows):
        assert mine.size == 1 or pairs[mine].sum() <= 300, mine
        assert all(np.count_nonzero(k // alg.order == r) <= pairs[r] for r in mine)
    for got, want in zip(map(np.concatenate, zip(*groups)),
                         table_zmul(alg, chunks, fracs)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_expand_first_step_stays_within_merge(monkeypatch):
    # every support_expansion call of the sandwich and of tau-contract at
    # (5, 1, 2) and (7, 1, 2): the block its first step spreads the terms
    # over, (distinct prefixes) x (exponents present), stays within _MERGE
    # entries unless the call holds one row; many calls hold several
    for pfm in ((5, 1, 2), (7, 1, 2)):
        alg = group_algebra(PrimeConfig(*pfm, "GL2", N=1))
        real, calls = alg.support_expansion, []

        def support_expansion(keys, coeffs, cutoff):
            prefixes, x = np.unique(keys // alg.pM).size, np.unique(keys % alg.pM).size
            spread = 0 if prefixes * x == keys.size else prefixes * x
            calls.append((np.unique(keys // alg.order).size, spread))
            return real(keys, coeffs, cutoff)

        monkeypatch.setattr(alg, "support_expansion", support_expansion)
        rng = np.random.default_rng(5)
        assert check_sandwich(alg, [2], 1, rng, samples=40, mono_samples=20)[0]["ok"]
        assert check_tau_contract(alg, 1, rng, samples=20)["ok"]
        assert all(rows == 1 or spread <= graded._MERGE for rows, spread in calls), calls
        assert sum(rows > 1 for rows, _ in calls) > len(calls) // 4, calls


def test_lockstep_batches_hold_the_count(monkeypatch):
    # with the count _BATCH at 1, 7 and its default, the same reports and
    # batches of the count, the last the rest: a sandwich over k = 1..3 of
    # 10 monomials each, whose batches of 7 straddle the indices, with the
    # transcript of its 14th start failing (the fourth at k = 2), and 20
    # tau-contract samples
    alg = group_algebra(PrimeConfig(5, 1, 2, "QUAT", N=1))
    real, real_verify = graded.iterate_taus, graded.verify_transcripts
    starts, batches = [], []

    def iterate_taus(alg, xs, N):
        starts.extend(xs)
        batches.append(len(xs))
        return real(alg, xs, N)

    monkeypatch.setattr(graded, "iterate_taus", iterate_taus)
    check_sandwich(alg, [1, 2, 3], 1, np.random.default_rng(8), samples=0, mono_samples=10)
    x = starts[13]
    monkeypatch.setattr(graded, "verify_transcripts", lambda alg, xs, *rest: [
        ok and s != x for ok, s in zip(real_verify(alg, xs, *rest), xs)])
    reports = []
    for count in (1, 7, graded._BATCH):
        monkeypatch.setattr(graded, "_BATCH", count)
        batches.clear()
        sandwich = check_sandwich(alg, [1, 2, 3], 1, np.random.default_rng(8), samples=0,
                                  mono_samples=10)
        sizes = batches[:]
        batches.clear()
        tau = check_tau_contract(alg, 1, np.random.default_rng(9), samples=20)
        assert sizes == [count] * (30 // count) + [30 % count] * (30 % count > 0)
        assert batches == [count] * (20 // count) + [20 % count] * (20 % count > 0)
        reports.append((sandwich, tau))
    assert reports[0] == reports[1] == reports[2]
    second = [r["second_inclusion"] for r in reports[0][0]]
    assert [r["ok"] for r in second] == [True, False, True]
    assert second[1]["transcripts"] == 4 and second[0]["transcripts"] == 10


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
def test_bench_sandwich_starts_run_in_one_batch(case, monkeypatch):
    # the sandwich of the verify-gl2 bench scenario at its committed seed
    # (kmax 3, 50 monomials per k): the 150 starts of all k are rewritten
    # as one lockstep batch
    alg = group_algebra(PrimeConfig(5, 1, 2, case, N=1))
    real, batches = graded.iterate_taus, []

    def iterate_taus(alg, starts, N):
        batches.append(len(starts))
        return real(alg, starts, N)

    monkeypatch.setattr(graded, "iterate_taus", iterate_taus)
    res = checks._chk_sandwich(checks.Run(PrimeConfig(5, 1, 2, case, N=1)),
                               checks.sub_rng(20250817, "sandwich"), N=1, kmax=3,
                               samples=100, mono_samples=50)
    assert res["ok"] and [r["transcripts"] for r in res["per_k"]] == [50] * 3
    assert batches == [150], batches


def _sandwich_runs(cfg, params, seed, reset=lambda: None):
    """checks' sandwich check and the loop over one k at a time
    (sandwich_oracle.chk_sandwich) on the same seed, reset called before
    each: for each, its detail or the (type, message, witness) of what it
    raised, and the generator's final state."""
    runs = []
    for fn in (checks._chk_sandwich, sandwich_oracle.chk_sandwich):
        reset()
        rng = np.random.default_rng(seed)
        try:
            out = fn(checks.Run(cfg), rng, **params)
        except (ContractViolation, CutoffBeyondFaithful) as e:
            out = (type(e), str(e), getattr(e, "witness", None))
        runs.append((out, rng.bit_generator.state))
    return runs


def _plant(alg, monkeypatch, plant, starts, params):
    """Plant one failure, the same for the library and the oracle, keyed by
    what it reads: the fifth product of the first row group of the first
    inclusion at k = 1 (the window k p^N - 1 = 4) answers with a term of
    weight 0; the transcript of the third start at k = 2 of the clean run
    fails its re-expansion; or the word of the first start at k = 3 of the
    clean run that no transcript before it rewrites has its coefficients
    doubled, so the rewriting perturbs it.  Returns that start, or None,
    and the reset to call before each run."""
    if plant == "first":
        real, seen = alg.support_expansion, []

        def support_expansion(keys, coeffs, cutoff):
            if cutoff == 4 and not seen:
                seen.append(cutoff)
                return np.array([4 * alg.order]), np.zeros(1, dtype=np.int64), coeffs[:1]
            return real(keys, coeffs, cutoff)

        monkeypatch.setattr(alg, "support_expansion", support_expansion)
        return None, seen.clear
    mono = params["mono_samples"]
    if plant == "transcript":
        x = starts[mono + 2]
        real_verify = graded.verify_transcripts
        monkeypatch.setattr(graded, "verify_transcripts", lambda alg, xs, *rest: [
            ok and s != x for ok, s in zip(real_verify(alg, xs, *rest), xs)])
        return x, lambda: None
    trs = batch_of_one.iterate_taus(alg, starts, 1)
    before = set()
    for t, tr in enumerate(trs):
        if t >= 2 * mono and tr.start not in before:
            x = tr.start
            break
        before |= set(map(tuple, tr.srcs.tolist()))
    real_zmul, word = alg.zmul, graded.tau_exponents(alg, np.array([x]), 1)

    def zmul(chunks, fracs):
        hit = np.flatnonzero((chunks == word[0]).all(axis=1) & (fracs == word[1]).all(axis=1))
        for keys, coeffs in real_zmul(chunks, fracs):
            yield keys, np.where(np.isin(keys // alg.order, hit), 2 * coeffs % alg.p, coeffs)

    monkeypatch.setattr(alg, "zmul", zmul)
    return x, lambda: None


@pytest.mark.parametrize("plant", [None, "first", "transcript", "break"])
@pytest.mark.parametrize("pfm,case", [((5, 1, 2), "GL2"), ((5, 1, 2), "QUAT"),
                                      ((5, 1, 3), "GL2")], ids=str)
def test_sandwich_lockstep_matches_the_k_at_a_time_oracle(pfm, case, plant, monkeypatch):
    # every k drawn first and the monomials of all k rewritten as one
    # lockstep stream, against checking one k after another: with a
    # failure planted in the first inclusion at k = 1, in a transcript at
    # k = 2 or in the rewriting at k = 3, the same per-k results, the same
    # witness and the generator in the same state.  A failure voids no
    # draw, so the failing k fails where it did before and every other
    # k's entry, and the generator's final state, are the clean run's
    cfg = PrimeConfig(*pfm, case, N=1)
    alg = group_algebra(cfg)
    params = {"N": 1, "kmax": 3, "samples": 20 if pfm[2] == 2 else 6,
              "mono_samples": 10 if pfm[2] == 2 else 4}
    seed = 41
    # the clean run's monomials, in the order they are drawn
    starts, real = [], graded.draw_row

    def draw_row(*args):
        starts.append(real(*args))
        return starts[-1]

    monkeypatch.setattr(graded, "draw_row", draw_row)
    clean = _sandwich_runs(cfg, params, seed)
    assert clean[0] == clean[1] and clean[0][0]["ok"]
    monkeypatch.setattr(graded, "draw_row", real)
    if plant is None:
        return
    x, reset = _plant(alg, monkeypatch, plant, starts[:len(starts) // 2], params)
    (got, state), want = _sandwich_runs(cfg, params, seed, reset)
    assert (got, state) == want
    assert state == clean[0][1]
    if plant == "break":
        assert got == (ContractViolation, f"rewriting perturbed {x} at its own weight", x)
        return
    assert not got["ok"] and [r["k"] for r in got["per_k"]] == [1, 2, 3]
    failed = [r["k"] for r in got["per_k"] if not r["ok"]]
    assert failed == [1 if plant == "first" else 2]
    for r, c in zip(got["per_k"], clean[0][0]["per_k"]):
        if r["k"] != failed[0]:
            assert r == c
        elif plant == "first":
            assert r == {**c, "ok": False, "first_samples": 5}
        else:
            assert r["transcripts"] == 3 and r["first_samples"] == c["first_samples"]


def test_sandwich_gate_raises_up_front():
    # at (5, 1, 2) k = 5 has k p^N = 25 past the cutoff 24: kmax 5 raises
    # before anything is drawn, and kmax 10^8 reads the indices up to k = 5
    # only (listing them all ran out of memory), so the scenario reports
    # indeterminate within a small traced peak
    cfg = PrimeConfig(5, 1, 2, "GL2", N=1)
    for kmax in (5, 10**8):
        rng = np.random.default_rng(5)
        with pytest.raises(CutoffBeyondFaithful, match=r"^k p\^N = 25 exceeds the cutoff 24$"):
            checks._chk_sandwich(checks.Run(cfg), rng, N=1, kmax=kmax, samples=3,
                                 mono_samples=2)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    params = {"kmax": 10**8}
    tracemalloc.start()
    try:
        report, code = checks.run_scenario({
            "name": "huge-kmax", "seed": 7,
            "config": {"p": 5, "f": 1, "M": 2, "N": 1, "case": "GL2"},
            "checks": [{"check": "sandwich", "params": params}]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and report["checks"] == [
        {"name": "sandwich", "params": params, "status": "indeterminate",
         "witness": "k p^N = 25 exceeds the cutoff 24"}]
    assert peak < 2**22, peak


def test_tau_contract_check(alg, rng):
    out = check_tau_contract(alg, 1, rng, samples=10)
    assert out["ok"] and out["monomials_checked"] > 0


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 1), (5, 1, 2), (7, 1, 2), (5, 2, 1)], ids=str)
def test_mult_matrix_matches_per_monomial_oracle(pfm, case):
    # the Q E kernel against one dense product (alg.mul on the left, zmul on
    # the right) and one transform per monomial, on a fresh, uncached ring
    gr = GradedRing(group_algebra(PrimeConfig(*pfm, case)))
    compared = 0
    for gi in range(gr.n):
        w = 2 if gi >= 2 * gr.f else 1
        for d in range(min(6, gr.faithful - 1 - w) + 1):
            for side in ("left", "right"):
                got = gr.mult_matrix(side, gi, d)
                want = monomial_oracle.mult_matrix(gr, side, gi, d)
                assert got.dtype == want.dtype and got.shape == want.shape, (side, gi, d)
                assert got.tobytes() == want.tobytes(), (side, gi, d)
                compared += 1
    assert compared >= 2 * gr.n * 3


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
def test_mult_matrix_matches_all_rows_kernel_over_faithful_range(case):
    # the target-weight block against the kernel over every row of weight
    # <= d + w with the identity subtracted, for every generator, side and
    # degree up to the faithful bound
    gr = GradedRing(group_algebra(PrimeConfig(5, 1, 2, case)))
    compared = 0
    for gi in range(gr.n):
        w = 2 if gi >= 2 * gr.f else 1
        for d in range(gr.faithful - w):
            for side in ("left", "right"):
                got = gr.mult_matrix(side, gi, d)
                want = monomial_oracle.all_rows_mult_matrix(gr, side, gi, d)
                assert got.dtype == want.dtype and got.shape == want.shape, (side, gi, d)
                assert got.tobytes() == want.tobytes(), (side, gi, d)
                compared += 1
    assert compared == 2 * (2 * 24 + 23)


def test_mult_matrix_matches_unit_class_products(gr):
    # columns read off GradedRing.mul, which lifts through from_monomial and
    # the dense product rather than monomial() and zmul
    gens = gr.ring_generator_classes()
    for gi, g in enumerate(gens):
        for d in range(4):
            units = [gr.unit_class(gr.model.digits_of(int(k))) for k in gr.weight_index(d)]
            left = np.array([gr.mul(g, u).coords for u in units], dtype=np.int16).T
            right = np.array([gr.mul(u, g).coords for u in units], dtype=np.int16).T
            assert np.array_equal(gr.mult_matrix("left", gi, d), left), (gi, d)
            assert np.array_equal(gr.mult_matrix("right", gi, d), right), (gi, d)


@pytest.mark.parametrize("model_cls", [GL2Model, QuatModel], ids=["GL2", "QUAT"])
def test_tau_path_builds_no_power_tables(model_cls):
    # on a fresh model, not the cached one the oracles fill: the rewriting
    # reads the generator tables g_i only, never a table of g_i^(p^k), k >= 1
    alg = GroupAlgebra(model_cls(7, 1, 2))
    rng = np.random.default_rng(7)
    assert check_tau_contract(alg, 1, rng, samples=5)["ok"]
    done = 0
    while done < 10:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if not any(x) or alg.nu_prime(x) > alg.pM - 1:
            continue
        assert verify_transcript(alg, iterate_tau(alg, x, 1))
        done += 1
    tables = set(alg.model._tables)
    assert tables <= power_oracle.pc_generators(alg.model) and len(tables) <= alg.n


def test_sandwich_holds_pc_generator_tables_only():
    # the dense products of the first inclusion walk the base-p digits of
    # their right factors: on a fresh model the tables are the n M pc
    # generators at most, where exponent-indexed tables would be n p^M
    alg = GroupAlgebra(GL2Model(7, 1, 2))
    res, = check_sandwich(alg, [1], 1, np.random.default_rng(7), samples=3, mono_samples=2)
    assert res["first_inclusion"]["ok"] and res["first_inclusion"]["samples"] == 3
    tables = set(alg.model._tables)
    assert tables <= power_oracle.pc_generators(alg.model)
    assert alg.n < len(tables) <= alg.n * alg.model.M


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_bracket_terms_match_dense_commutators(pfm, case):
    # every generator pair, every (power, generator) pair and every (power,
    # power) pair at N = 1: the terms read off two point products against
    # the dense commutator of the lifted classes, and the power-class check
    # against the dense one
    gr = DenseGradedRing(group_algebra(PrimeConfig(*pfm, case)))
    model, q = gr.model, gr.p
    gens = [(model.generator(i), gr.unit_class(model.generator(i))) for i in range(gr.n)]
    powers = [(tuple(q * c for c in x), gr.power(cls, q)) for x, cls in gens]
    pairs = ([(u, v) for u in gens for v in gens] + [(u, v) for u in powers for v in gens]
             + [(u, v) for u in powers for v in powers])
    nonzero = 0
    for (x, cx), (y, cy) in pairs:
        want = gr.commutator(cx, cy)
        terms = model.bracket_terms(x, y, want.degree)
        got = np.zeros(gr.dim(want.degree), dtype=np.int64)
        for k, c in terms.items():
            assert gr.alg.nu_prime(k) == want.degree, (x, y, k)
            got[np.searchsorted(gr.weight_index(want.degree), model.index_of(k))] = c
        assert tuple(int(c) for c in got) == want.coords, (x, y)
        nonzero += bool(terms)
    assert len(pairs) == 27 and nonzero == 2  # [a, b] and [b, a]
    assert check_central_power_classes(model, 1) == graded_oracle.check_central_power_classes(gr, 1)
    # N = M: the first power already reaches the unfaithful range
    errors = []
    for check, ring in ((check_central_power_classes, model),
                        (graded_oracle.check_central_power_classes, gr)):
        with pytest.raises(CutoffBeyondFaithful) as err:
            check(ring, 2)
        errors.append(str(err.value))
    assert errors == [f"degree {gr.faithful} reaches the unfaithful range (p^M = {gr.faithful})"] * 2


def test_planted_power_bracket_fails_the_check(monkeypatch):
    # a nonzero [a^5, b^5] on a fresh model: the check and the scenario
    # entry report that pair and no other
    bad = GL2Model(5, 1, 2)
    real = bad.bracket_terms

    def planted(x, y, w):
        out = real(x, y, w)
        return {**out, (5, 5, 0): 1} if (x, y) == ((5, 0, 0), (0, 5, 0)) else out

    monkeypatch.setattr(bad, "bracket_terms", planted)
    out = check_central_power_classes(bad, 1)
    assert not out["ok"] and out["failures"] == [{"power": "a0", "against": "b0"}]
    monkeypatch.setattr(checks, "group_model", lambda cfg: bad)
    report, code = checks.run_scenario({
        "name": "planted", "config": {"p": 5, "f": 1, "M": 2, "case": "GL2", "N": 1},
        "checks": ["central-power-classes"]})
    entry, = report["checks"]
    assert code == 1 and entry["status"] == "fail"
    assert entry["detail"]["failures"] == [{"power": "a0", "against": "b0"}]
