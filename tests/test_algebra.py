"""Truncated group ring: dense multiplication, the monomial expansion, the
weight filtration, and the maximal-ideal power certificate."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propring import algebra
from propring.algebra import check_maximal_ideal_powers, group_algebra
from propring.config import PrimeConfig
from propring.errors import CutoffBeyondFaithful
from propring.graded import hilbert_oracle


def rand_sparse(alg, rng, support=12):
    v = alg.zero()
    idx = rng.choice(alg.order, size=support, replace=False)
    v[idx] = rng.integers(0, alg.p, size=support)
    return v


def test_group_embedding_multiplicative(alg, rng):
    m = alg.model
    for _ in range(50):
        x, y = m.random_element(rng), m.random_element(rng)
        lhs = alg.mul(alg.of_group(x), alg.of_group(y))
        assert np.array_equal(lhs, alg.of_group(m.mul(x, y)))


def oracle_mul(alg, a, b):
    """Sum of a[x] b[h] [x h] over the supports, by group arithmetic."""
    m = alg.model
    out = {}
    for x, ca in alg.to_dict(a).items():
        for h, cb in alg.to_dict(b).items():
            xh = m.mul(x, h)
            out[xh] = out.get(xh, 0) + ca * cb
    return alg.of_dict(out)


def test_mul_matches_group_oracle(alg, rng):
    for _ in range(10):
        a, b = rand_sparse(alg, rng, 5), rand_sparse(alg, rng, 4)
        assert np.array_equal(alg.mul(a, b), oracle_mul(alg, a, b))
    a = rand_sparse(alg, rng)
    assert not alg.mul(a, alg.zero()).any()
    assert not alg.mul(alg.zero(), a).any()


def test_mul_across_pair_chunks(alg, rng, monkeypatch):
    # a product of more support pairs than one accumulation step takes,
    # against sum_h b[h] (a permuted by right multiplication by h)
    monkeypatch.setattr(algebra, "_PAIR_CHUNK", 1000)
    a, b = rand_sparse(alg, rng, 300), rand_sparse(alg, rng, 40)
    ref = np.zeros(alg.order, dtype=np.int64)
    for h, cb in alg.to_dict(b).items():
        shifted = np.empty_like(a)
        shifted[alg.model.right_mul_table(h)] = a
        ref += cb * shifted.astype(np.int64)
    assert np.count_nonzero(a) * np.count_nonzero(b) > 2 * 1000
    assert np.array_equal(alg.mul(a, b), ref % alg.p)
    assert len(alg.model._tables) <= alg.n


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
    one = alg.of_group(m.identity)
    for i in range(m.n):
        zi = (alg.of_group(m.generator(i)) - one) % alg.p
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
    """z^k as the ordered chain of right multiplications by the z_i, from
    the identity: the reference for the closed-form monomial."""
    m = alg.of_group(alg.model.identity)
    for i, e in enumerate(k):
        m = alg.zmul(m, i, e)
    return m


def test_monomial_closed_form_matches_zmul_chain(alg):
    # the edge digits; random exponents are drawn by the property test below
    ks = [(0,) * alg.n, (alg.pM - 1,) * alg.n]
    ks += [alg.model.generator(i) for i in range(alg.n)]
    for k in ks:
        assert np.array_equal(alg.monomial(k), zmul_chain(alg, k)), k


def test_monomial_returns_a_fresh_array(alg):
    k = alg.model.generator(0)
    alg.monomial(k)[:] = 0
    assert np.array_equal(alg.monomial(k), zmul_chain(alg, k))


def test_binomial_expansion_matches_transform(alg, rng):
    xs = rng.choice(alg.order, size=8, replace=False)
    ks = np.sort(rng.choice(alg.order, size=200, replace=False))
    full = alg.binomial_expansion(xs, np.arange(alg.order))
    part = alg.binomial_expansion(xs, ks)
    for s, x in enumerate(xs):
        g = alg.model.digits_of(int(x))
        assert np.array_equal(full[s], alg.to_monomial(alg.of_group(g)))
        assert np.array_equal(part[s], full[s, ks])
        sparse = {alg.model.index_of(k): c for k, c in alg.expand_group_sparse(g).items()}
        assert {int(t): int(full[s, t]) for t in np.nonzero(full[s])[0]} == sparse


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
        x = alg.model.random_element(rng)
        ref = np.ones(1, dtype=np.int64)
        for xi in x:
            col = np.array([comb(xi, k) % alg.p for k in range(alg.pM)])
            ref = np.multiply.outer(ref, col).ravel() % alg.p
        assert np.array_equal(alg.to_monomial(alg.of_group(x)), ref)


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


def test_in_filtration(alg):
    zc = alg.monomial(alg.model.generator(2 * alg.model.f))
    assert alg.in_filtration(zc, 2)
    assert not alg.in_filtration(zc, 3)


def test_nu_faithful_rejects_vanishing(alg):
    with pytest.raises(CutoffBeyondFaithful):
        alg.nu_faithful(alg.zero())


def test_hilbert_counts_frozen(alg):
    assert alg.hilbert_counts(6) == [1, 2, 4, 6, 9, 12, 16]
    assert alg.hilbert_counts(6) == hilbert_oracle(6, 1, False)


def test_sparse_expansion_matches_dense(alg, rng):
    for _ in range(10):
        g = alg.model.random_element(rng)
        sparse = alg.expand_group_sparse(g)
        dense = alg.to_monomial(alg.of_group(g))
        ref = {k: int(v) for k, v in sparse.items() if v}
        got = {
            alg.model.digits_of(int(i)): int(dense[i]) for i in np.nonzero(dense)[0]
        }
        assert ref == got


def test_maxideal_powers_certificate(alg):
    cert = check_maximal_ideal_powers(alg, jmax=6)
    assert cert.ok
    assert cert.violations == []
    assert cert.functionals_checked > 0
    assert "certified" in cert.summary()


@pytest.mark.parametrize("p,f,T", [(5, 2, 3), (7, 1, 4)])
def test_hilbert_counts_other_parameters(p, f, T):
    alg = group_algebra(PrimeConfig(p, f, 1, "GL2"))
    assert alg.hilbert_counts(T) == hilbert_oracle(T, f, False)
