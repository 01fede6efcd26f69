"""Digit models of the two groups: ordered-basis decomposition, valuation
axioms, centrality structure, and the frozen worked example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propring.config import PrimeConfig
from propring.errors import ConfigError
from propring.groups import group_model, quaternion_commutator_congruence

INF = 10**9


def tw(model, x):
    t = model.two_omega_of(x)
    return INF if t is None else t


def test_basis_weights(model):
    f = model.f
    assert model.two_omega == (1,) * (2 * f) + (2,) * f
    for i in range(model.n):
        assert model.two_omega_of(model.generator(i)) == model.two_omega[i]
    assert model.two_omega_of(model.identity) is None


def test_generator_orders_exact(model):
    for i in range(model.n):
        g = model.generator(i)
        assert model.power(g, model.pM) == model.identity
        assert model.power(g, model.pM // model.p) != model.identity


def test_realize_decompose_roundtrip(model, rng):
    for _ in range(100):
        x = model.random_element(rng)
        assert model.decompose(model.realize(x)) == x


def test_group_laws_sampled(model, rng):
    for _ in range(60):
        x = model.random_element(rng)
        y = model.random_element(rng)
        z = model.random_element(rng)
        assert model.mul(x, model.identity) == x
        assert model.mul(x, model.inv(x)) == model.identity
        assert model.mul(model.mul(x, y), z) == model.mul(x, model.mul(y, z))


def group_elements(model, count):
    return st.tuples(*[st.tuples(*[st.integers(0, model.pM - 1)] * model.n)] * count)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_property_group_laws(model, data):
    x, y, z = data.draw(group_elements(model, 3))
    assert model.mul(model.mul(x, y), z) == model.mul(x, model.mul(y, z))
    assert model.mul(x, model.inv(x)) == model.identity
    assert model.mul(model.inv(x), x) == model.identity
    assert model.inv(model.inv(x)) == x


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_property_pth_root_against_power(model, data):
    (x,) = data.draw(group_elements(model, 1))
    xp = model.power(x, model.p)
    assert model.power(model.pth_root(xp), model.p) == xp


def test_commutator_convention(model, rng):
    # inverse-first: [x, y] = x^-1 y^-1 x y
    for _ in range(20):
        x = model.random_element(rng)
        y = model.random_element(rng)
        byhand = model.mul(model.mul(model.inv(x), model.inv(y)), model.mul(x, y))
        assert model.commutator(x, y) == byhand


def test_valuation_axioms_sampled(model, rng):
    for _ in range(200):
        x = model.random_element(rng)
        y = model.random_element(rng)
        assert tw(model, model.inv(x)) == tw(model, x)
        assert tw(model, model.mul(x, y)) >= min(tw(model, x), tw(model, y))
        assert tw(model, model.commutator(x, y)) >= min(
            tw(model, x) + tw(model, y), INF
        )
        if x == model.identity:
            continue
        tp = model.two_omega_of(model.power(x, model.p))
        if tp is None:
            assert tw(model, x) + 2 >= 2 * model.M + 1
        else:
            assert tp == tw(model, x) + 2


def test_pth_power_lands_deeper(model, rng):
    for _ in range(40):
        x = model.random_in_filtration(rng, 1)
        xp = model.power(x, model.p)
        root = model.pth_root(xp)
        assert model.power(root, model.p) == xp


def test_random_in_filtration_respects_bound(model, rng):
    for bound in (1, 2, 3, 4):
        for _ in range(30):
            x = model.random_in_filtration(rng, bound)
            assert tw(model, x) >= bound


def test_right_mul_table_consistent(model, rng):
    h = model.random_element(rng)
    t = model.right_mul_table(h)
    assert np.array_equal(np.sort(t), np.arange(model.order))
    for _ in range(25):
        x = model.random_element(rng)
        assert t[model.index_of(x)] == model.index_of(model.mul(x, h))


def test_central_witness(model):
    # every C generator is a commutator times a p-th power, exactly
    for i in range(model.f):
        x, y, w = model.central_witness(i)
        lhs = model.mul(model.commutator(x, y), model.power(w, model.p))
        assert lhs == model.generator(2 * model.f + i)


def test_central_c_power(model):
    # C_0^(p^(M-1)) commutes with everything in the truncation
    z = model.power(model.generator(2 * model.f), model.p ** (model.M - 1))
    for i in range(model.n):
        assert model.commutator(z, model.generator(i)) == model.identity


def test_a_power_is_not_central(model):
    # A_0^(p^(M-1)) is not central: its bracket with B_0 sits at weight 2M
    z = model.power(model.generator(0), model.p ** (model.M - 1))
    c = model.commutator(z, model.generator(model.f))
    assert c != model.identity
    assert model.two_omega_of(c) == 2 * model.M


def test_gl2_worked_example():
    model = group_model(PrimeConfig(5, 1, 2, "GL2"))
    digits = model.normalize([1, 1, 5, 6])
    assert digits == (21, 6, 24)
    b0a0 = model.mul(model.generator(1), model.generator(0))
    assert digits == b0a0
    # recomposition reproduces the same concrete matrix
    assert model._key(model.realize(digits)) == model._key(
        model._mul(model.realize(model.generator(1)), model.realize(model.generator(0)))
    )


def test_quat_normalize_roundtrip(rng):
    model = group_model(PrimeConfig(5, 1, 2, "QUAT"))
    for _ in range(20):
        x = model.random_element(rng)
        q = model.realize(x)
        assert model.normalize(q.a.vec, q.b.vec) == x


def test_quaternion_commutator_congruence_all_gammas():
    out = quaternion_commutator_congruence(5, 1, level=3)
    assert out["ok"]
    assert out["gammas_checked"] == 25
    assert out["failures"] == []


def test_quaternion_commutator_congruence_refuses_level_1():
    # level 1 is too coarse to test membership in p Pi O_D; the congruence
    # holds from level 2 on
    with pytest.raises(ConfigError):
        quaternion_commutator_congruence(5, 1, level=1)
    for level in (2, 3):
        assert quaternion_commutator_congruence(5, 1, level=level)["ok"]


@pytest.mark.parametrize(
    "p,f,case", [(5, 2, "GL2"), (7, 1, "GL2"), (5, 2, "QUAT"), (7, 1, "QUAT")]
)
def test_other_parameters_roundtrip(p, f, case):
    m = group_model(PrimeConfig(p, f, 1, case))
    rng = np.random.default_rng(3)
    assert m.n == 3 * f
    for _ in range(25):
        x = m.random_element(rng)
        y = m.random_element(rng)
        assert m.decompose(m.realize(x)) == x
        assert m.mul(x, m.inv(x)) == m.identity
        assert tw(m, m.commutator(x, y)) >= min(tw(m, x) + tw(m, y), INF)
