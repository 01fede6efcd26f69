"""Truncated group ring: dense multiplication, the monomial expansion, the
weight filtration, and the maximal-ideal power certificate."""

import copy
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propring import algebra
from propring.algebra import (GroupAlgebra, check_maximal_ideal_powers, frattini_witness,
                              group_algebra)
from propring.config import PrimeConfig, prime_factors
from propring.errors import ConfigError, CutoffBeyondFaithful
from propring.graded import hilbert_oracle
from propring.groups import GroupModel, group_model
from pair_oracle import random_element
import power_oracle
import sandwich_oracle
from power_oracle import right_mul_table
import span_oracle
import table_oracle
from span_oracle import dense_ideal_power_certificate, primal_ideal_power_spans
import tau_oracle
from transform_oracle import (axis_expansion, digit_apply, expand_group_sparse, of_group,
                              of_support, transforms)
import zmul_oracle
from zmul_oracle import term_word


def rand_sparse(alg, rng, support=12):
    v = alg.zero()
    idx = rng.choice(alg.order, size=support, replace=False)
    v[idx] = rng.integers(0, alg.p, size=support)
    return v


def test_group_embedding_multiplicative(alg, rng):
    m = alg.model
    for _ in range(50):
        x, y = random_element(m, rng), random_element(m, rng)
        lhs = alg.mul(of_group(alg, x), of_group(alg, y))
        assert np.array_equal(lhs, of_group(alg, m.mul(x, y)))


def to_dict(alg, a):
    """{digits: coefficient} over the support of a dense element."""
    return {alg.model.digits_of(int(idx)): int(a[idx]) for idx in np.nonzero(a)[0]}


def oracle_mul(alg, a, b):
    """Sum of a[x] b[h] [x h] over the supports, by group arithmetic."""
    m = alg.model
    out = alg.zero()
    for x, ca in to_dict(alg, a).items():
        for h, cb in to_dict(alg, b).items():
            xh = m.index_of(m.mul(x, h))
            out[xh] = (out[xh] + ca * cb) % alg.p
    return out


def test_mul_matches_group_oracle(alg, rng):
    for _ in range(10):
        a, b = rand_sparse(alg, rng, 5), rand_sparse(alg, rng, 4)
        assert np.array_equal(alg.mul(a, b), oracle_mul(alg, a, b))
    a = rand_sparse(alg, rng)
    assert not alg.mul(a, alg.zero()).any()
    assert not alg.mul(alg.zero(), a).any()


def test_mul_across_pair_chunks(alg, rng, monkeypatch):
    # a product of more support pairs than one right_act walk takes, its
    # slices merged into one keyed pair, against sum_h b[h] (a permuted by
    # right multiplication by h)
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 1000)
    a, b = rand_sparse(alg, rng, 300), rand_sparse(alg, rng, 40)
    ref = np.zeros(alg.order, dtype=np.int64)
    for h, cb in to_dict(alg, b).items():
        shifted = np.empty_like(a)
        shifted[right_mul_table(alg.model, h)] = a
        ref += cb * shifted.astype(np.int64)
    assert np.count_nonzero(a) * np.count_nonzero(b) > 2 * 1000
    assert np.array_equal(alg.mul(a, b), ref % alg.p)
    assert set(alg.model._tables) <= power_oracle.pc_generators(alg.model)


MUL_CASES = [(pfm, case) for pfm in ((5, 1, 2), (7, 1, 2), (5, 2, 1)) for case in ("GL2", "QUAT")]


@pytest.mark.parametrize("pfm,case", MUL_CASES, ids=str)
def test_mul_matches_power_table_oracle(pfm, case):
    # sparse x sparse, full x point (the point at the top digits p^M - 1
    # and at random) and zero inputs, against the product gathered from
    # the exponent-indexed power tables
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + len(case))
    full = rng.integers(1, alg.p, alg.order).astype(np.int16)
    top = of_group(alg, (alg.pM - 1,) * alg.n)
    point = 3 * of_group(alg, random_element(alg.model, rng))
    zero = alg.zero()
    pairs = [(rand_sparse(alg, rng, 40), rand_sparse(alg, rng, 30)) for _ in range(3)]
    pairs += [(full, top), (full, point), (zero, full), (full, zero), (zero, zero)]
    for a, b in pairs:
        got = alg.mul(a, b)
        assert got.dtype == np.int16
        assert np.array_equal(got, power_oracle.mul(alg, a, b))


def rows_of(alg, vecs):
    """The (row, index, coefficient) arrays of mul_rows holding vecs[r] as
    row r."""
    idx = [np.flatnonzero(v) for v in vecs]
    return (np.repeat(np.arange(len(vecs)), [i.size for i in idx]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + idx),
            np.concatenate([np.zeros(0, dtype=np.int16)] + [v[i] for v, i in zip(vecs, idx)]))


def joined(groups):
    """The (key, coefficient) row groups of mul_rows joined into one
    row-keyed pair; empty int64 arrays when there are none."""
    groups = list(groups) or [(np.zeros(0, dtype=np.int64),) * 2]
    return tuple(map(np.concatenate, zip(*groups)))


def split_rows(alg, groups, rows):
    """The row groups of mul_rows, checked to hold whole rows ascending
    with keys ascending and no zero coefficient, split into one support
    pair per row 0, ..., rows - 1."""
    firsts = [int(k[0]) // alg.order for k, _ in groups if k.size]
    lasts = [int(k[-1]) // alg.order for k, _ in groups if k.size]
    assert all(a < b for a, b in zip(lasts, firsts[1:])), (firsts, lasts)
    keys, coeffs = joined(groups)
    assert np.all(np.diff(keys) > 0) and np.all(coeffs % alg.p != 0)
    cut = np.searchsorted(keys, np.arange(rows + 1) * alg.order)
    assert cut[-1] == keys.size
    return [(keys[lo:hi] - r * alg.order, coeffs[lo:hi])
            for r, (lo, hi) in enumerate(zip(cut, cut[1:]))]


@pytest.mark.parametrize("pfm,case", MUL_CASES, ids=str)
def test_mul_rows_matches_oracles(pfm, case, monkeypatch):
    # with a group bound of 1000 pairs: empty rows on either side, a batch
    # whose rows straddle the bound (groups of several whole rows), one row
    # beyond the bound (walked in slices, each merged into the row's keyed
    # pair by collect) and a batch of one, each row against the
    # power-table product and the dense pair-chunk product: keys ascending,
    # zeros dropped
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 1000)
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + len(case))
    zero = alg.zero()
    small = [(rand_sparse(alg, rng, 20), rand_sparse(alg, rng, 15)) for _ in range(7)]
    big = (rand_sparse(alg, rng, 120), rand_sparse(alg, rng, 30))
    batches = [
        small[:2] + [(zero, small[2][1]), (small[3][0], zero), (zero, zero)] + small[2:],
        [big],
        small[4:5] + [big, (zero, zero), big] + small[5:],
        [(zero, zero)],
    ]
    pairs = [np.count_nonzero(a) * np.count_nonzero(b) for a, b in batches[0]]
    assert max(pairs) <= 1000 < sum(pairs)  # one group cannot take the batch
    assert np.count_nonzero(big[0]) * np.count_nonzero(big[1]) > 2 * 1000
    for batch in batches:
        groups = list(alg.mul_rows(rows_of(alg, [a for a, _ in batch]),
                                   rows_of(alg, [b for _, b in batch]), len(batch)))
        got = split_rows(alg, groups, len(batch))
        for (idx, coeffs), (a, b) in zip(got, batch):
            want = power_oracle.mul(alg, a, b)
            assert np.array_equal(want, sandwich_oracle.mul(alg, a, b))
            assert np.array_equal(idx, np.flatnonzero(want))
            assert np.array_equal(coeffs, want[idx])


def test_mul_associative_and_distributive(alg, rng):
    for _ in range(15):
        a, b, c = (rand_sparse(alg, rng) for _ in range(3))
        assert np.array_equal(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c)))
        lhs = alg.mul(a, (b + c) % alg.p)
        rhs = (alg.mul(a, b) + alg.mul(a, c)) % alg.p
        assert np.array_equal(lhs, rhs)


def test_monomial_expansion_roundtrip(alg, rng):
    for _ in range(10):
        a = rand_sparse(alg, rng)
        assert np.array_equal(alg.from_monomial(alg.to_monomial(a)), a)
        c = rand_sparse(alg, rng)
        assert np.array_equal(alg.to_monomial(alg.from_monomial(c)), c)


def test_monomial_weight_is_nu(alg, rng):
    for _ in range(40):
        k = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if alg.nu_prime(k) < alg.pM:
            assert alg.nu(alg.monomial(k)) == alg.nu_prime(k)


def test_augmentation_generator_weights(alg):
    m = alg.model
    one = of_group(alg, m.identity)
    for i in range(m.n):
        zi = (of_group(alg, m.generator(i)) - one) % alg.p
        assert alg.nu(zi) == m.two_omega[i]
        assert np.array_equal(zi, alg.monomial(m.generator(i)))


def test_product_weights_superadditive(alg, rng):
    for _ in range(30):
        a, b = rand_sparse(alg, rng, 6), rand_sparse(alg, rng, 6)
        va, vb, vab = alg.nu(a), alg.nu(b), alg.nu(alg.mul(a, b))
        if va is None or vb is None:
            assert vab is None
        elif vab is not None:
            assert vab >= va + vb


def zmul_chain(alg, k):
    """z^k as the ordered chain of dense right multiplications by the z_i,
    from the identity: the reference for the closed-form monomial."""
    return zmul_oracle.word_mul(alg, of_group(alg, alg.model.identity), enumerate(k))


def test_monomial_closed_form_matches_zmul_chain(alg):
    # the edge digits; random exponents are drawn by the property test below
    ks = [(0,) * alg.n, (alg.pM - 1,) * alg.n]
    ks += [alg.model.generator(i) for i in range(alg.n)]
    for k in ks:
        assert np.array_equal(alg.monomial(k), zmul_chain(alg, k)), k


def zmul_loop(alg, a, i, e):
    """Right multiplication by (g_i - 1)^e as e dense passes through the
    generator table: the reference for the digit-wise dense oracle
    zmul_oracle.zmul, which reads the digits above the units from the power
    tables."""
    perm = alg.model.right_mul_table(alg.model.generator(i))
    for _ in range(e):
        b = np.empty_like(a)
        b[perm] = a
        a = (b - a) % alg.p
    return a


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2)], ids=str)
def test_zmul_digits_match_pass_loop(pfm, case):
    # every generator and every e < p^M, and e = p^M, where both give zero;
    # the loop's e passes are reached one pass at a time
    alg = group_algebra(PrimeConfig(*pfm, case))
    a = np.random.default_rng(sum(pfm)).integers(0, alg.p, alg.order).astype(np.int16)
    for i in range(alg.n):
        want = a
        for e in range(alg.pM + 1):
            got = zmul_oracle.zmul(alg, a, i, e)
            assert got.dtype == want.dtype and np.array_equal(got, want), (i, e)
            want = zmul_loop(alg, want, i, 1)
        assert not zmul_oracle.zmul(alg, a, i, alg.pM).any()


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2)], ids=str)
def test_support_zmul_matches_dense_oracle(pfm, case):
    # the support-walking oracle that the word builder is held to, against
    # the dense one: supports of 1 and 300 entries, every generator and
    # every e up to p^M; one full support at (5, 1, 2), the smallest of the
    # groups
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + len(case))
    for size in [1, 300] + ([alg.order] if pfm == (5, 1, 2) else []):
        a = alg.zero()
        a[rng.choice(alg.order, size=size, replace=False)] = rng.integers(1, alg.p, size)
        idx = np.flatnonzero(a)
        coeffs = a[idx].astype(np.int64)
        for i in range(alg.n):
            for e in range(alg.pM + 1):
                want = zmul_oracle.zmul(alg, a, i, e)
                got_idx, got_coeffs = zmul_oracle.support_zmul(alg, idx, coeffs, i, e)
                assert np.array_equal(got_idx, np.flatnonzero(want)), (size, i, e)
                assert np.array_equal(got_coeffs, want[got_idx]), (size, i, e)
            got_idx, got_coeffs = zmul_oracle.support_zmul(alg, idx, coeffs, i, 0)
            assert np.array_equal(got_idx, idx) and np.array_equal(got_coeffs, coeffs)
        word = [(int(i), int(e)) for i, e in zip(rng.integers(0, alg.n, 4),
                                                 rng.integers(0, alg.pM, 4))]
        got = of_support(alg, zmul_oracle.support_word_mul(alg, word))
        assert np.array_equal(
            got, zmul_oracle.word_mul(alg, of_group(alg, alg.model.identity), word)), word
    empty = np.zeros(0, dtype=np.int64)
    for i in range(alg.n):
        for e in range(alg.pM + 1):
            assert zmul_oracle.support_zmul(alg, empty, empty, i, e)[0].size == 0


def word_rows(alg, rows):
    """The words of the (chunk, frac) rows, built by GroupAlgebra.zmul as
    row groups and split back into one support pair per row."""
    chunks = np.array([c for c, _ in rows], dtype=np.int64).reshape(-1, alg.n)
    fracs = np.array([f for _, f in rows], dtype=np.int64).reshape(-1, alg.n)
    groups = list(alg.zmul(chunks, fracs))
    assert all(k.dtype == c.dtype == np.int64 for k, c in groups)
    return split_rows(alg, groups, len(rows))


@pytest.mark.parametrize("case", ["GL2", "QUAT"])
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2), (5, 1, 3)], ids=str)
def test_word_builder_matches_oracles(pfm, case):
    # the words of N = 1 rewritings of monomials below p^M (chunk exponents
    # multiples of p, the remainders below p), at (5, 1, 3) also of N = 2
    # ones (remainders up to 24, two digit places per axis), and of small
    # unrestricted exponents, with the identity word, an empty chunk and an
    # empty remainder among them, built as the rows of one call: the call
    # byte for byte against the table-walking builder, each row against
    # the support-walking oracle, and the first rows against the dense one
    # (a vector of the group's order per pass, 1.95 M entries at (5, 1, 3))
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + len(case))
    zero = (0,) * alg.n
    rows = [(zero, zero), (zero, (1, 2, 3)), ((alg.p, 0, 2 * alg.p), zero)]
    for N, count in ((1, 6), (2, 6 if alg.model.M == 3 else 0)):
        q, drawn = alg.p**N, 0
        while drawn < count:
            e = rng.integers(0, alg.pM, size=alg.n)
            if alg.nu_prime(e) < alg.pM:
                rows.append((tuple((e // q * q).tolist()), tuple((e % q).tolist())))
                drawn += 1
    small = rng.integers(0, 8, size=(6, alg.n)).tolist()
    rows += [(tuple(c), tuple(f)) for c, f in zip(small[:3], small[3:])]
    got = word_rows(alg, rows)
    assert got[0][0].tolist() == [0] and got[0][1].tolist() == [1]  # the identity
    chunks, fracs = (np.array(half, dtype=np.int64) for half in zip(*rows))
    for mine, want in zip(joined(alg.zmul(chunks, fracs)),
                          zmul_oracle.table_zmul(alg, chunks, fracs)):
        assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()
    if alg.model.M == 3:
        assert max(max(f) for _, f in rows[9:15]) >= alg.p  # a second digit place
    for r, ((chunk, frac), pair) in enumerate(zip(rows, got)):
        idx, coeffs = zmul_oracle.support_word_mul(alg, term_word(chunk, frac))
        assert np.array_equal(pair[0], idx) and np.array_equal(pair[1], coeffs), (r, chunk, frac)
        if r < (3 if pfm == (5, 1, 3) else len(rows)):
            dense = zmul_oracle.word_mul(alg, of_group(alg, alg.model.identity),
                                         term_word(chunk, frac))
            assert np.array_equal(of_support(alg, pair), dense), (r, chunk, frac)
    # no rows, and rows built one call each
    assert not list(alg.zmul(np.zeros((0, alg.n), dtype=np.int64),
                             np.zeros((0, alg.n), dtype=np.int64)))
    for row, pair in zip(rows[:4], got):
        one, = word_rows(alg, [row])
        assert np.array_equal(one[0], pair[0]) and np.array_equal(one[1], pair[1])


def test_monomial_returns_a_fresh_array(alg):
    k = alg.model.generator(0)
    alg.monomial(k)[:] = 0
    assert np.array_equal(alg.monomial(k), zmul_chain(alg, k))


def test_lucas_rows_match_the_ordered_chain(model):
    # the monomials of a batch of exponent rows, repeated rows among them,
    # as (row, index, coefficient) arrays: rows ascending, each row's
    # indices ascending and its pair the ordered chain of dense products;
    # no rows give empty arrays
    alg = GroupAlgebra(model)
    rng = np.random.default_rng(6)
    exps = rng.integers(0, alg.pM, size=(8, alg.n))
    exps = np.concatenate([exps, exps[::-1]])
    row, idx, coeffs = alg._lucas_rows(exps)
    assert np.all(np.diff(row) >= 0)
    for r, k in enumerate(map(tuple, exps.tolist())):
        mine = row == r
        assert np.all(np.diff(idx[mine]) > 0)
        assert np.array_equal(of_support(alg, (idx[mine], coeffs[mine])), zmul_chain(alg, k)), k
    assert all(a.size == 0 for a in alg._lucas_rows(np.zeros((0, alg.n), dtype=np.int64)))


def test_binomial_expansion_matches_transform(alg, rng):
    xs = rng.choice(alg.order, size=8, replace=False)
    ks = np.sort(rng.choice(alg.order, size=200, replace=False))
    full = alg.binomial_expansion(xs, np.arange(alg.order))
    part = alg.binomial_expansion(xs, ks)
    for s, x in enumerate(xs):
        g = alg.model.digits_of(int(x))
        assert np.array_equal(full[s], alg.to_monomial(of_group(alg, g)))
        assert np.array_equal(part[s], full[s, ks])
        sparse = {alg.model.index_of(k): c for k, c in expand_group_sparse(alg, g).items()}
        assert {int(t): int(full[s, t]) for t in np.nonzero(full[s])[0]} == sparse


@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2)], ids=str)
@pytest.mark.parametrize("case", ["GL2", "QUAT"])
def test_support_expansion_matches_transform_on_large_supports(pfm, case):
    # supports far beyond a point query's: the whole group (every exponent
    # of every prefix present), half of it and a thin slice, some
    # coefficient rows zero, against one to_monomial of the dense vectors
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + len(case))
    f, nu_w = alg.model.f, alg.nu_weight_array
    supports = [np.arange(alg.order),
                np.sort(rng.choice(alg.order, alg.order // 2, replace=False)),
                np.sort(rng.choice(alg.order, 300, replace=False))]
    for idx in supports:
        coeffs = rng.integers(0, alg.p, size=(idx.size, f))
        comps = np.zeros((f, alg.order), dtype=np.int16)
        comps[:, idx] = coeffs.T
        monos = alg.to_monomial(comps)
        for cutoff in (0, 1, int(rng.integers(2, alg.pM)), alg.pM - 1, int(nu_w.max())):
            ks, ws, c = alg.support_expansion(idx, coeffs, cutoff)
            hits = np.flatnonzero(monos.any(axis=0) & (nu_w <= cutoff))
            assert np.array_equal(ks, hits), (idx.size, cutoff)
            assert np.array_equal(ws, nu_w[hits])
            assert c.dtype == np.int64 and np.array_equal(c, monos[:, hits].T)
    # all of the group at coefficient 1 is the top monomial alone
    ks, ws, c = alg.support_expansion(np.arange(alg.order), np.ones((alg.order, 1), dtype=np.int64),
                                      int(nu_w.max()))
    assert ks.tolist() == [alg.order - 1] and c.tolist() == [[1]]


@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2), (5, 1, 3)], ids=str)
@pytest.mark.parametrize("case", ["GL2", "QUAT"])
def test_support_expansion_matches_axis_oracle(pfm, case):
    # the step that builds its new columns as outer sums against the body
    # that divided the kept positions back into exponent and column, on
    # random supports of 1 to 2,000 terms, some coefficient rows zero, at
    # cutoffs from 0 past the faithful bound: the same arrays and dtypes
    alg = group_algebra(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(sum(pfm) + 2 * len(case))
    f, top = alg.model.f, sum(alg.nu_weights) * (alg.pM - 1)
    compared = 0
    for size in (1, 2, 7, 30, 300, 2000):
        for _ in range(3):
            idx = np.sort(rng.choice(alg.order, size, replace=False))
            coeffs = rng.integers(0, alg.p, size=(size, f))
            for cutoff in (0, 1, int(rng.integers(2, alg.pM)), alg.pM - 1, top):
                got = alg.support_expansion(idx, coeffs, cutoff)
                want = axis_expansion(alg, idx, coeffs, cutoff)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (size, cutoff)
                compared += got[0].size > 0
    assert compared > 50


def test_collect_merges_coordinate_rows(alg, rng):
    idx = rng.integers(0, 40, size=200)
    rows = rng.integers(-50, 50, size=(200, 2))
    flat, acc = alg.collect(idx, rows)
    assert acc.shape == (flat.size, 2) and acc.dtype == np.int64
    want = {}
    for i, r in zip(idx.tolist(), rows.tolist()):
        want[i] = [(a + b) % alg.p for a, b in zip(want.get(i, [0, 0]), r)]
    want = {i: v for i, v in want.items() if any(v)}
    assert flat.tolist() == sorted(want) and acc.tolist() == [want[i] for i in sorted(want)]
    # a scalar weight per index reads as before
    for e in range(2):
        one, col = alg.collect(idx, rows[:, e])
        assert np.array_equal(col, acc[:, e][np.isin(flat, one)])
        assert set(one.tolist()) == {i for i, v in want.items() if v[e]}
    empty = alg.collect(idx[:0], rows[:0])
    assert empty[0].size == 0 and empty[1].shape == (0, 2)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_property_transform_round_trip(alg, data):
    terms = data.draw(st.dictionaries(st.integers(0, alg.order - 1),
                                      st.integers(1, alg.p - 1), max_size=20))
    a = alg.zero()
    a[list(terms)] = list(terms.values())
    assert np.array_equal(alg.from_monomial(alg.to_monomial(a)), a)
    assert np.array_equal(alg.to_monomial(alg.from_monomial(a)), a)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_property_monomial_matches_zmul_chain(alg, data):
    k = data.draw(st.tuples(*[st.integers(0, alg.pM - 1)] * alg.n))
    assert np.array_equal(alg.monomial(k), zmul_chain(alg, k))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_property_mul_associative(alg, data):
    elements = []
    for _ in range(3):
        terms = data.draw(st.dictionaries(st.integers(0, alg.order - 1),
                                          st.integers(1, alg.p - 1), max_size=5))
        a = alg.zero()
        a[list(terms)] = list(terms.values())
        elements.append(a)
    a, b, c = elements
    assert np.array_equal(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c)))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pascal_pair_inverse(p):
    P, Q = algebra._pascal_pair(p)
    assert np.array_equal(P @ Q % p, np.eye(p, dtype=np.int64))


@pytest.fixture(scope="module", params=[(5, 2, 1), (7, 1, 2)], ids=str)
def wide_alg(request):
    """Configs beyond the (5, 1, 2) fixture: f = 2 and p = 7."""
    return group_algebra(PrimeConfig(*request.param, "GL2"))


def test_to_monomial_matches_comb_product(wide_alg, rng):
    # the digit-axis (Lucas) transform against prod_i comb(x_i, k_i) mod p
    # computed with math.comb over all k
    alg = wide_alg
    for _ in range(4):
        x = random_element(alg.model, rng)
        ref = np.ones(1, dtype=np.int64)
        for xi in x:
            col = np.array([comb(xi, k) % alg.p for k in range(alg.pM)])
            ref = np.multiply.outer(ref, col).ravel() % alg.p
        assert np.array_equal(alg.to_monomial(of_group(alg, x)), ref)


def test_transforms_invert_at_wide_configs(wide_alg, rng):
    alg = wide_alg
    a = rng.integers(0, alg.p, size=(3, alg.order)).astype(np.int16)
    c = alg.to_monomial(a)
    assert np.array_equal(alg.from_monomial(c), a)
    assert np.array_equal(alg.to_monomial(alg.from_monomial(a)), a)
    for row, crow in zip(a, c):
        assert np.array_equal(alg.to_monomial(row), crow)
    # the dual transform: phi(a) = sum_k dual_to_monomial(phi)[k] c_k(a)
    phi = rng.integers(0, alg.p, size=alg.order).astype(np.int16)
    lhs = a.astype(np.int64) @ phi % alg.p
    rhs = c.astype(np.int64) @ alg.dual_to_monomial(phi) % alg.p
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2), (11, 1, 1)], ids=str)
def test_transforms_match_per_axis_oracle(pfm, rng):
    # the float64 kernel reduced once against the int64 kernel reduced per
    # axis, on the input with the largest sums and on a random batch
    alg = group_algebra(PrimeConfig(*pfm, "GL2"))
    worst = np.full(alg.order, alg.p - 1, dtype=np.int16)
    batch = rng.integers(0, alg.p, size=(3, alg.order)).astype(np.int16)
    for name, fast, oracle in transforms(alg):
        for a in (worst, batch):
            got = fast(a)
            assert got.dtype == np.int16 and got.shape == a.shape, name
            assert np.array_equal(got, oracle(a)), (name, a.shape)


@pytest.mark.parametrize("pfm", [(5, 1, 2), (5, 2, 1), (7, 1, 2)], ids=str)
def test_digit_apply_reads_its_axes_off_the_trailing_length(pfm, rng):
    # every length p^d up to the group's order, the suffix group's among
    # them, on the input with the largest sums and on a random batch
    alg = group_algebra(PrimeConfig(*pfm, "GL2"))
    Q = alg._pair[1]
    for d in range(alg.n * alg.model.M + 1):
        worst = np.full(alg.p**d, alg.p - 1, dtype=np.int16)
        batch = rng.integers(0, alg.p, size=(3, alg.p**d)).astype(np.int16)
        for a in (worst, batch):
            got = alg._digit_apply(Q, a)
            assert got.dtype == np.int16 and got.shape == a.shape
            assert np.array_equal(got, digit_apply(alg, Q, a, d)), (d, a.shape)


def test_exact_transform_bound_refuses_exactly_beyond_it():
    # GroupAlgebra refuses a config exactly when the largest float64 partial
    # sum, (p-1)(p(p-1))^(nM) for inputs in [0, p), reaches 2^53; the bare
    # GroupModel allocates nothing of the group's order
    for p in (p for p in range(5, 32) if prime_factors(p) == [p]):
        for f, M in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4)):
            model = GroupModel(p, f, M)
            exact = (p - 1) * (p * (p - 1)) ** (3 * f * M) < 2**53
            if exact:
                assert GroupAlgebra(model).order == model.order
            else:
                with pytest.raises(ConfigError, match="2\\^53"):
                    GroupAlgebra(model)
    GroupAlgebra(GroupModel(5, 1, 3))  # order 1,953,125; largest sum 2.0e12
    with pytest.raises(ConfigError, match="group order 244140625"):
        GroupAlgebra(GroupModel(5, 2, 2))


def test_in_filtration(alg):
    zc = alg.monomial(alg.model.generator(2 * alg.model.f))
    assert tau_oracle.in_filtration(alg, zc, 2)
    assert not tau_oracle.in_filtration(alg, zc, 3)


def weight_counts(alg, jmax):
    """#{k : nu'(k) = j} for j = 0..jmax, read off the weight array."""
    return np.bincount(alg.nu_weight_array)[: jmax + 1].tolist()


def test_hilbert_counts_frozen(alg):
    assert weight_counts(alg, 6) == [1, 2, 4, 6, 9, 12, 16]
    assert weight_counts(alg, 6) == hilbert_oracle(6, 1, False)


def test_sparse_expansion_matches_dense(alg, rng):
    for _ in range(10):
        g = random_element(alg.model, rng)
        sparse = expand_group_sparse(alg, g)
        dense = alg.to_monomial(of_group(alg, g))
        ref = {k: int(v) for k, v in sparse.items() if v}
        got = {
            alg.model.digits_of(int(i)): int(dense[i]) for i in np.nonzero(dense)[0]
        }
        assert ref == got


@pytest.mark.parametrize("pfm,case", MUL_CASES, ids=str)
def test_coefficient_functionals_match_binomial_expansion(pfm, case):
    # every functional the dense sweep reads at jmax = 8 (pM - 2 at (5, 2, 1))
    alg = group_algebra(PrimeConfig(*pfm, case))
    group = np.arange(alg.order)
    ks = np.flatnonzero(alg.nu_weight_array <= min(8, alg.pM - 2))
    for k in ks:
        got = span_oracle.coefficient_functional(alg, int(k))
        want = alg.binomial_expansion(group, k[None])[:, 0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
    assert ks.size == {(5, 1, 2): 95, (7, 1, 2): 95, (5, 2, 1): 45}[pfm]


def test_maxideal_powers_certificate(alg):
    cert = check_maximal_ideal_powers(alg, jmax=6)
    assert cert == {"ok": True, "jmax": 6, "power_dims": [49, 47, 43, 37, 28, 16, 0],
                    "graded_dims": [1, 2, 4, 6, 9, 12, 16]}
    with pytest.raises(CutoffBeyondFaithful):
        check_maximal_ideal_powers(alg, alg.pM)


@pytest.mark.parametrize("p,f,T", [(5, 2, 3), (7, 1, 4)])
def test_hilbert_counts_other_parameters(p, f, T):
    alg = group_algebra(PrimeConfig(p, f, 1, "GL2"))
    assert weight_counts(alg, T) == hilbert_oracle(T, f, False)


@pytest.mark.parametrize("M,jmax", [(1, 4), (2, 8)])
def test_certificate_dims_match_primal_oracle(case, M, jmax):
    alg = group_algebra(PrimeConfig(5, 1, M, case))
    cert = check_maximal_ideal_powers(alg, jmax)
    primal = primal_ideal_power_spans(alg, jmax)
    assert cert["ok"] and primal["ok"]
    assert cert["power_dims"] == [r["dim"] for r in primal["powers"]]
    assert cert["graded_dims"] == primal["graded_dims"]


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 1), (5, 1, 2), (7, 1, 2), (5, 2, 1), (5, 2, 2), (5, 1, 3)),
                         ids=str)
def test_frattini_certificate_matches_commutator_identity(case, pfm):
    # the relations place every C_i in Phi(G), and so does the explicit
    # identity C_i = [x, y] w^p of the scalar oracle (at (5, 1, 2) the
    # former test_central_witness of test_groups); the certificate reads
    # only pc_relations, so it also runs at (5, 2, 2), where GroupAlgebra
    # refuses the config
    model = group_model(PrimeConfig(*pfm, case))
    assert frattini_witness(model) == []
    for i in range(model.f):
        x, y, w = table_oracle.central_witness(model, i)
        lhs = table_oracle.mul(model, table_oracle.commutator(model, x, y),
                               table_oracle.power(model, w, model.p))
        assert lhs == model.generator(2 * model.f + i), i


@pytest.mark.parametrize("pfm,jmax", [((5, 1, 2), 8), ((5, 2, 1), 4)], ids=str)
def test_certificate_reports_c_outside_the_relations_span(case, pfm, jmax):
    # every relation with its C digits zeroed mod p: the relations then
    # span nothing, and each C is a {generator, relations_rank} witness
    alg = group_algebra(PrimeConfig(*pfm, case))
    model = alg.model
    faulty = copy.copy(model)
    c0, p = 2 * model.f, model.p
    faulty._pc = tuple((a, b, tuple(d - d % p if i >= c0 else d for i, d in enumerate(w)))
                       for a, b, w in model.pc_relations())
    bad = algebra.GroupAlgebra(faulty)
    cert = check_maximal_ideal_powers(bad, jmax)
    want = [{"generator": c0 + i, "relations_rank": 0} for i in range(model.f)]
    assert cert == {"ok": False, "jmax": jmax, "witness": want}
    assert cert == dense_ideal_power_certificate(bad, jmax)
    assert check_maximal_ideal_powers(alg, jmax)["ok"]


def planted_algebra(model, gen, table):
    """A fresh algebra over a copy of model whose right-multiplication table
    of generator gen is table; the cached model is left untouched."""
    faulty = copy.copy(model)
    # the tables of g_gen^(p^k), k >= 1, are derived from the planted one
    faulty._tables = {h: t for h, t in model._tables.items() if not h[gen]}
    faulty._tables[model.generator(gen)] = table
    return algebra.GroupAlgebra(faulty)


def faulty_algebra(model, gen, swap):
    """planted_algebra with the entries of generator gen's table at the two
    indices of swap exchanged."""
    table = model.right_mul_table(model.generator(gen)).copy()
    table[list(swap)] = table[list(swap[::-1])]
    return planted_algebra(model, gen, table)


def test_certificate_catches_planted_table_fault(alg):
    # the primal chain works in the quotient by weights above jmax, which
    # hides this fault; the dual sweep sees it
    m = alg.model
    bad = faulty_algebra(m, 2, (m.index_of((0, 0, 7)), m.index_of((0, 0, 24))))
    cert = check_maximal_ideal_powers(bad, 8)
    assert not cert["ok"] and "power_dims" not in cert
    assert len(cert["witness"]) == 10
    assert cert["witness"][0] == {"k": (0, 0, 1), "generator": 2, "lands_on": (0, 0, 7)}
    assert primal_ideal_power_spans(bad, 8)["ok"]
    assert check_maximal_ideal_powers(alg, 8)["ok"]


CERT_CASES = [((5, 1, 2), "GL2"), ((5, 1, 2), "QUAT"), ((7, 1, 2), "GL2"), ((7, 1, 2), "QUAT"),
              ((5, 2, 1), "GL2")]


@pytest.mark.parametrize("pfm,case", CERT_CASES, ids=str)
def test_suffix_rows_match_dense_sweep(pfm, case):
    # the coordinates of e_k o g_i - e_k over the whole group, one dense
    # transform each, against the suffix rows of (k_0 - j, k'') stacked for
    # j = 0..k_0 and zero beyond (Vandermonde); then the whole report
    alg = group_algebra(PrimeConfig(*pfm, case))
    jmax = min(8, alg.pM - 1)
    suffixes = alg.order // alg.pM
    sel = np.flatnonzero(alg.nu_weight_array <= jmax)
    place = {k: r for r, k in enumerate(sel.tolist())}
    for i in range(alg.n):
        perm = alg.model.right_mul_table(alg.model.generator(i))
        rows = algebra._suffix_coordinates(alg, perm, sel)
        for k in sel.tolist():
            k0, rest = divmod(k, suffixes)
            want = span_oracle.composed_coordinates(alg, span_oracle.coefficient_functional(alg, k), perm)
            got = rows[[place[(k0 - j) * suffixes + rest] for j in range(k0 + 1)]].ravel()
            assert np.array_equal(want[:got.size], got) and not want[got.size:].any(), (k, i)
    cert = check_maximal_ideal_powers(alg, jmax)
    assert cert["ok"] and cert == dense_ideal_power_certificate(alg, jmax)


# swaps inside the suffix rows x_0 = 0, then across them
SUFFIX_SWAPS = [((0, 1, 2), (0, 3, 4)), ((0, 2, 0), (0, 0, 3)),
                ((0, 1, 2), (4, 4, 4)), ((0, 0, 1), (2, 0, 1))]


@pytest.mark.parametrize("swap", SUFFIX_SWAPS, ids=str)
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_witnesses_match_dense_sweep_on_planted_swaps(case, pfm, swap):
    model = group_algebra(PrimeConfig(*pfm, case)).model
    for gen in range(model.n):
        bad = faulty_algebra(model, gen, tuple(map(model.index_of, swap)))
        cert = check_maximal_ideal_powers(bad, 8)
        assert not cert["ok"] and len(cert["witness"]) == 10
        assert cert == dense_ideal_power_certificate(bad, 8), gen


def test_fault_outside_the_suffix_rows_breaks_the_table_form(alg):
    # the suffix rows are intact, so every row of the sweep holds; the
    # comparison of the whole table with its broadcast form catches the swap
    m = alg.model
    bad = faulty_algebra(m, 2, (m.index_of((3, 0, 7)), m.index_of((3, 0, 24))))
    cert = check_maximal_ideal_powers(bad, 8)
    assert cert == {"ok": False, "jmax": 8, "witness": [{"generator": 2, "breaks_at": (3, 0, 7)}]}
    assert not dense_ideal_power_certificate(bad, 8)["ok"]


def test_fault_in_the_g0_exponent_needs_the_vandermonde_sum(alg):
    # add 1 to the g_0 exponent of x g_1 down the column of the suffix
    # t = (1, 1): still a permutation of the broadcast form, and the rows of
    # k_0 = 0 read E_k''(t') only, so only the terms j < k_0 see the fault
    m = alg.model
    suffixes = alg.order // alg.pM
    table = m.right_mul_table(m.generator(1)).copy()
    col = table[m.index_of((0, 1, 1))::suffixes]
    table[m.index_of((0, 1, 1))::suffixes] = (col // suffixes + 1) % alg.pM * suffixes + col % suffixes
    bad = planted_algebra(m, 1, table)
    cert = check_maximal_ideal_powers(bad, 8)
    assert not cert["ok"] and cert == dense_ideal_power_certificate(bad, 8)
    assert all("lands_on" in w and w["k"][0] >= 1 for w in cert["witness"])
