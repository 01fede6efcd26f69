"""Digit models of the two groups: ordered-basis decomposition, valuation
axioms, centrality structure, and the frozen worked example.  The group
laws and valuations are read through table_oracle's scalar inv, power,
commutator and pth_root, which the model does not carry."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propring import padic
from propring.config import PrimeConfig
from propring.errors import ConfigError, NotInGroup
from propring.gf import GF
from propring.groups import GL2Model, QuatModel, group_model, quaternion_commutator_congruence
from pair_oracle import random_element
import power_oracle
from power_oracle import right_mul_table
import solve_oracle
import table_oracle as oracle
from table_oracle import scalar_rows

INF = 10**9


def tw(model, x):
    t = oracle.two_omega_of(model, x)
    return INF if t is None else t


def test_basis_weights(model):
    f = model.f
    assert model.two_omega == (1,) * (2 * f) + (2,) * f
    for i in range(model.n):
        assert oracle.two_omega_of(model, model.generator(i)) == model.two_omega[i]
    assert oracle.two_omega_of(model, model.identity) is None


def test_generator_orders_exact(model):
    for i in range(model.n):
        g = model.generator(i)
        assert oracle.power(model, g, model.pM) == model.identity
        assert oracle.power(model, g, model.pM // model.p) != model.identity


def test_realize_decompose_roundtrip(model, rng):
    for _ in range(100):
        x = random_element(model, rng)
        assert model.decompose(model.realize_array([x])).tolist() == [list(x)]


def test_group_laws_sampled(model, rng):
    for _ in range(60):
        x = random_element(model, rng)
        y = random_element(model, rng)
        z = random_element(model, rng)
        assert model.mul(x, model.identity) == x
        assert model.mul(x, oracle.inv(model, x)) == model.identity
        assert model.mul(model.mul(x, y), z) == model.mul(x, model.mul(y, z))


def group_elements(model, count):
    return st.tuples(*[st.tuples(*[st.integers(0, model.pM - 1)] * model.n)] * count)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_property_group_laws(model, data):
    x, y, z = data.draw(group_elements(model, 3))
    assert model.mul(model.mul(x, y), z) == model.mul(x, model.mul(y, z))
    xi = oracle.inv(model, x)
    assert model.mul(x, xi) == model.identity
    assert model.mul(xi, x) == model.identity
    assert oracle.inv(model, xi) == x


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_property_pth_root_against_power(model, data):
    (x,) = data.draw(group_elements(model, 1))
    xp = oracle.power(model, x, model.p)
    assert oracle.power(model, oracle.pth_root(model, xp), model.p) == xp


def test_commutator_convention(model, rng):
    # inverse-first: [x, y] = x^-1 y^-1 x y
    for _ in range(20):
        x = random_element(model, rng)
        y = random_element(model, rng)
        byhand = model.mul(model.mul(oracle.inv(model, x), oracle.inv(model, y)), model.mul(x, y))
        assert oracle.commutator(model, x, y) == byhand


def test_valuation_axioms_sampled(model, rng):
    for _ in range(200):
        x = random_element(model, rng)
        y = random_element(model, rng)
        assert tw(model, oracle.inv(model, x)) == tw(model, x)
        assert tw(model, model.mul(x, y)) >= min(tw(model, x), tw(model, y))
        assert tw(model, oracle.commutator(model, x, y)) >= min(
            tw(model, x) + tw(model, y), INF
        )
        if x == model.identity:
            continue
        tp = oracle.two_omega_of(model, oracle.power(model, x, model.p))
        if tp is None:
            assert tw(model, x) + 2 >= 2 * model.M + 1
        else:
            assert tp == tw(model, x) + 2


def test_pth_power_lands_deeper(model, rng):
    for _ in range(40):
        x = random_element(model, rng)
        xp = oracle.power(model, x, model.p)
        root = oracle.pth_root(model, xp)
        assert oracle.power(model, root, model.p) == xp


def test_right_mul_table_consistent(model, rng):
    h = random_element(model, rng)
    t = right_mul_table(model, h)
    assert np.array_equal(np.sort(t), np.arange(model.order))
    for _ in range(25):
        x = random_element(model, rng)
        xh = model.index_of(model.mul(x, h))
        assert t[model.index_of(x)] == xh
        assert model.right_act(np.array([model.index_of(x)]),
                               model.index_digits(np.array([model.index_of(h)]))) == xh
    # the library builds pc-generator tables only
    g0, g1 = model.generator(0), model.generator(1)
    for h in (model.identity, (2,) + g0[1:], tuple(a + b for a, b in zip(g0, g1))):
        with pytest.raises(ValueError):
            model.right_mul_table(h)


PC_CASES = [(pfm, case) for pfm in ((5, 1, 2), (7, 1, 2), (5, 2, 1)) for case in ("GL2", "QUAT")]


@pytest.mark.parametrize("pfm,case", PC_CASES, ids=str)
def test_pc_tables_and_right_act_match_oracle(pfm, case):
    # every pc-generator table against p^k steps through the generator
    # table, and the digit walk against one generator step at a time, on
    # random exponents with rows and columns of p^M - 1
    model = group_model(PrimeConfig(*pfm, case))
    for i in range(model.n):
        for k in range(model.M):
            got = model.right_mul_table(model.generator(i, k))
            assert np.array_equal(got, power_oracle.pc_row(model, i, k)), (i, k)
    rng = np.random.default_rng(sum(pfm) + len(case))
    xs = rng.integers(0, model.order, 3000)
    digits = rng.integers(0, model.pM, (model.n, xs.size))
    digits[:, :100] = model.pM - 1
    digits[int(rng.integers(model.n)), 100:200] = model.pM - 1
    hs = np.ravel_multi_index(tuple(digits), (model.pM,) * model.n)
    # row i M + k of the index digits is digit k of the exponent h_i
    want = [digits[i] // model.p**k % model.p for i in range(model.n) for k in range(model.M)]
    assert np.array_equal(model.index_digits(hs), want)
    assert model.index_digits(hs).dtype == np.uint8
    assert np.array_equal(model.right_act(xs, model.index_digits(hs)),
                          power_oracle.walk(model, xs, digits))
    assert np.array_equal(model.right_act(xs, model.index_digits(np.zeros_like(hs))), xs)
    assert set(model._tables) == power_oracle.pc_generators(model)


def test_central_c_power(model):
    # C_0^(p^(M-1)) commutes with everything in the truncation
    z = oracle.power(model, model.generator(2 * model.f), model.p ** (model.M - 1))
    for i in range(model.n):
        assert oracle.commutator(model, z, model.generator(i)) == model.identity


def test_a_power_is_not_central(model):
    # A_0^(p^(M-1)) is not central: its bracket with B_0 sits at weight 2M
    z = oracle.power(model, model.generator(0), model.p ** (model.M - 1))
    c = oracle.commutator(model, z, model.generator(model.f))
    assert c != model.identity
    assert oracle.two_omega_of(model, c) == 2 * model.M


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
        x = random_element(model, rng)
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
        x = random_element(m, rng)
        y = random_element(m, rng)
        assert m.decompose(m.realize_array([x])).tolist() == [list(x)]
        assert m.mul(x, oracle.inv(m, x)) == m.identity
        assert tw(m, oracle.commutator(m, x, y)) >= min(tw(m, x) + tw(m, y), INF)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 1), (5, 1, 2), (5, 2, 1), (7, 1, 2)))
def test_pc_relations(case, pfm):
    p, f, M = pfm
    model = group_model(PrimeConfig(p, f, M, case))
    rels = model.pc_relations()
    m = 3 * f * M
    assert len(rels) == m * (m - 1) // 2
    assert model.pc_relations() is rels
    order = sorted(((i, k) for i in range(3 * f) for k in range(M)),
                   key=lambda g: (model.two_omega[g[0]] + 2 * g[1], g[0], g[1]))
    rank = {g: r for r, g in enumerate(order)}
    assert [(a, b) for a, b, _ in rels] == [
        (a, b) for r, a in enumerate(order) for b in order[r + 1:]]

    def u(g):
        return model.generator(*g)

    for a, b, w in rels:
        # the pc condition: every letter of W comes after u_b
        for i, c in enumerate(w):
            for k in range(M):
                if (c // p**k) % p:
                    assert rank[(i, k)] > rank[b], (a, b, w)
        # the relation u_b u_a = u_a u_b W holds in the group
        assert model.mul(u(b), u(a)) == model.mul(model.mul(u(a), u(b)), w)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 2), (7, 1, 2), (5, 2, 2), (5, 1, 3)), ids=str)
def test_straightening_certificate_holds(case, pfm):
    # at M = 2 the p-th powers commute; at (5, 1, 3) and N = 1, [A^5, B^5]
    # is a power C^d with v_5(d) = 2, of subring weight 2 * 5 > 1 + 1
    p, f, M = pfm
    model = group_model(PrimeConfig(p, f, M, case))
    for N in range(1, M):
        model.certify_straightening(N)
        model.certify_straightening(N)  # memoized

    def u(t):
        return tuple(p * c for c in model.generator(t))

    ws = {(s, t): model.mul(oracle.inv(model, model.mul(u(s), u(t))), model.mul(u(t), u(s)))
          for s in range(3 * f) for t in range(s + 1, 3 * f)}
    if M == 2:
        assert set(ws.values()) == {model.identity}
    else:
        w = ws[0, 1]
        assert w[:2] == (0, 0) and w[2] % 25 == 0 and w[2] % 125, w


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 2), (7, 1, 2), (5, 2, 2), (5, 1, 3)), ids=str)
def test_pc_relations_match_pairwise_products(case, pfm):
    # the one-pass relations against W = (u_a u_b)^-1 u_b u_a taken pair by
    # pair through the scalar oracle
    p = pfm[0]
    model = group_model(PrimeConfig(*pfm, case))

    def u(g):
        return tuple(p ** g[1] * c for c in model.generator(g[0]))

    for a, b, w in model.pc_relations():
        ab, ba = oracle.mul(model, u(a), u(b)), oracle.mul(model, u(b), u(a))
        assert w == oracle.mul(model, oracle.inv(model, ab), ba), (a, b)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 2), (5, 2, 1), (7, 1, 2), (5, 1, 3)), ids=str)
def test_single_element_ops_match_scalar_oracle(case, pfm):
    # mul realizes its inputs once and decomposes a batch of one; the
    # oracle decomposes the product through the scalar path
    model = group_model(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(11)
    for _ in range(6):
        x, y = random_element(model, rng), random_element(model, rng)
        c = model._mul(model.realize(x), model.realize(y))
        assert model.decompose(np.array([model._key(c)])).tolist() == [
            list(oracle.decompose(model, c))]
        assert model.mul(x, y) == oracle.mul(model, x, y)


@pytest.mark.parametrize("case, pfm, dtype", (
    ("QUAT", (5, 1, 8), np.int64), ("QUAT", (5, 1, 9), object), ("QUAT", (5, 1, 12), object),
    ("GL2", (5, 1, 12), np.int64), ("GL2", (5, 1, 13), object), ("GL2", (101, 1, 10), object),
), ids=str)
def test_deep_point_queries_stay_exact(case, pfm, dtype):
    # past the int64 range of the array products (and, at (101, 1, 10), of
    # the coordinates themselves) the arrays hold Python ints
    model = group_model(PrimeConfig(*pfm, case))
    assert model.dtype is dtype
    rng = random.Random(5)
    for _ in range(3):
        x, y = (tuple(rng.randrange(model.pM) for _ in range(model.n)) for _ in range(2))
        c = model._mul(model.realize(x), model.realize(y))
        assert model.decompose(np.array([model._key(c)], dtype=dtype)).tolist() == [
            list(oracle.decompose(model, c))]
        assert model.decompose(model.realize_array([x])).tolist() == [list(x)]
        assert model.mul(x, y) == oracle.mul(model, x, y)


@pytest.mark.parametrize("pfm", ((5, 1, 2), (5, 2, 1), (7, 1, 2), (5, 1, 3), (13, 2, 2),
                                 (5, 3, 2), (101, 1, 3), (7, 2, 5), (5, 1, 13)), ids=str)
def test_gl2_peel_table_matches_one_power_per_entry(pfm):
    # the running products of GL2Model._peel_array against a power per
    # entry, byte for byte, the object-dtype table at (5, 1, 13) among them
    model = GL2Model(*pfm)
    got, want = model._peel_array, oracle.peel_array(model)
    assert got.dtype == want.dtype and got.shape == want.shape == (pfm[1], pfm[2], pfm[0], pfm[1])
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", ((5, 1, 2), (5, 2, 1), (7, 1, 2)), ids=str)
def test_digit_powers_match_repeated_products(case, pfm):
    # realize and the batch power array, both built from the digit powers
    # g_i^(d p^k), against g_i^e taken one product at a time
    model = group_model(PrimeConfig(*pfm, case))
    for i, g in enumerate(model._gens):
        pw = model._one
        for e in range(model.pM):
            want = model._key(pw)
            x = tuple(e if j == i else 0 for j in range(model.n))
            assert model._key(model.realize(x)) == want, (i, e)
            assert np.array_equal(model._gen_power_array[i, e], want), (i, e)
            pw = model._mul(pw, g)


def _concrete(model, row):
    """The concrete element of one (parts, deg) row of a batch array."""
    if isinstance(model, QuatModel):
        R = model.ctx.ring
        return model.ctx.quat(R.element(row[0]), R.element(row[1]))
    return tuple(model.ring.element(r) for r in row)


# full tables at the small configs, seeded rows at the larger ones
TABLE_CASES = [(pfm, case, None) for pfm in ((5, 1, 1), (7, 1, 1)) for case in ("GL2", "QUAT")]
TABLE_CASES += [((5, 1, 2), "GL2", None), ((5, 1, 2), "QUAT", 500), ((5, 2, 1), "QUAT", 500),
                ((7, 1, 2), "GL2", 500), ((7, 1, 2), "QUAT", 500)]


@pytest.mark.parametrize("pfm,case,rows", TABLE_CASES)
def test_batched_tables_match_scalar_oracle(pfm, case, rows):
    model = group_model(PrimeConfig(*pfm, case))
    rng = np.random.default_rng(20250901)
    for i in range(model.n):
        t = model.right_mul_table(model.generator(i))
        sel = np.arange(model.order) if rows is None else rng.choice(model.order, rows, False)
        assert np.array_equal(t[sel], scalar_rows(model, i, sel)), i
        assert np.array_equal(np.sort(t), np.arange(model.order))
        idx = np.arange(model.order)
        for _ in range(model.pM):  # g_i^(p^M) acts as the identity
            idx = t[idx]
        assert np.array_equal(idx, np.arange(model.order))


ORACLE_CONFIGS = ((5, 1, 1), (7, 1, 1), (5, 1, 2), (7, 1, 2), (5, 2, 1))


@pytest.mark.parametrize("pfm,case", [(pfm, case) for pfm in ORACLE_CONFIGS
                                      for case in ("GL2", "QUAT")], ids=str)
def test_generator_tables_match_whole_group_oracle(pfm, case):
    # the suffix construction against realizing, multiplying and decomposing
    # every element of the group
    model = group_model(PrimeConfig(*pfm, case))
    for i in range(model.n):
        got, want = model.right_mul_table(model.generator(i)), oracle.whole_group_table(model, i)
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want), i


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_depth_3_generator_tables(case, monkeypatch):
    # a fresh model, so its tables of 1.95M entries are freed after the
    # test; each k = 0 table decomposes one batch of the p^(M(n-1))
    # suffixes, so a return to the whole-group pass (p^(Mn) rows) fails here
    model = (QuatModel if case == "QUAT" else GL2Model)(5, 1, 3)
    sizes = []
    decompose = model.decompose
    monkeypatch.setattr(model, "decompose", lambda arr: sizes.append(len(arr)) or decompose(arr))
    rng = np.random.default_rng(20261019)
    for i in range(model.n):
        t = model.right_mul_table(model.generator(i))
        assert sizes == [model.pM ** (model.n - 1)], i
        sizes.clear()
        rows = rng.choice(model.order, 200, replace=False)
        assert np.array_equal(t[rows], scalar_rows(model, i, rows)), i
        assert np.array_equal(np.sort(t), np.arange(model.order))
        power = t  # t^(p^M), as M p-th powers
        for _ in range(model.M):
            q = power
            for _ in range(model.p - 1):
                q = power[q]
            power = q
        assert np.array_equal(power, np.arange(model.order)), i


@pytest.mark.parametrize("case,fault,message", [
    ("QUAT", "scalar", "scalar part must be congruent to 1 mod p"),
    ("GL2", "lower-left", "lower-left entry must vanish mod p"),
    ("QUAT", "central", "a-part layer is not anti-fixed"),
])
def test_batch_decompose_planted_fault(case, fault, message):
    model = group_model(PrimeConfig(5, 1, 2, case))
    rng = np.random.default_rng(7)
    xs = rng.integers(0, model.pM, (40, model.n))
    good = model.realize_array(xs)
    assert np.array_equal(model.decompose(good), xs)
    mod, p = model.p ** (model.M + 1), model.p
    bad = good.copy()
    if fault == "scalar":  # a = 2 mod p
        bad[7, 0] = 2 * bad[7, 0] % mod
    elif fault == "lower-left":  # c = 1 mod p
        bad[7, 2] = (bad[7, 2] + 1) % mod
    else:  # times the central unit 1 + p, of norm (1 + p)^2 != 1
        bad[7] = (1 + p) * bad[7] % mod
    with pytest.raises(NotInGroup) as scalar:
        oracle.decompose(model, _concrete(model, bad[7]))
    with pytest.raises(NotInGroup) as batch:
        model.decompose(bad)
    assert str(scalar.value) == str(batch.value) == message
    if case == "QUAT":  # an earlier check fails first, on whichever element
        bad[30, 0] = 2 * bad[30, 0] % mod
        with pytest.raises(NotInGroup, match="scalar part"):
            model.decompose(bad)


def test_model_state_bounded(model):
    # after every pc-generator table is built, only per-generator state
    # remains, and the tables are keyed by the pc generators alone
    for i in range(model.n):
        for k in range(model.M):
            model.right_mul_table(model.generator(i, k))
    assert set(model._tables) == power_oracle.pc_generators(model)
    for name, v in vars(model).items():
        if isinstance(v, (dict, list, tuple)):
            assert len(v) <= model.n * model.pM, name


@pytest.mark.parametrize("pf", ((5, 1), (5, 2), (7, 1), (23, 1), (61, 1)), ids=str)
def test_solve_tables_match_the_field_table_oracle(pf):
    # the model reads its solve columns off residues of quaternion-ring
    # products, the oracle off the q x q operation tables of F_(p^(2f))
    model = QuatModel(*pf, 1)
    for got, want in zip((model._half_sol, model._int_sol), solve_oracle.solve_tables(model)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_quat_model_builds_no_field_tables(monkeypatch):
    # QuatModel(101, 1, 2) lives over F_(101^2), whose two q x q tables,
    # 2 x 10,201^2 x 2 bytes (416 MB, 4.6 CPU s), were built while the
    # solve columns were products in them.  Fields are built fresh, outside
    # gf's cache, and the model builds its own ring and context, so the
    # traced peak holds all of them, as in test_padic's
    # test_extension_ring_builds_no_field_tables
    monkeypatch.setattr(padic, "gf", GF)
    tracemalloc.start()
    try:
        model = QuatModel(101, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = model.ctx.ring.field
    assert field.q == 101**2
    assert "add" not in vars(field) and "mul" not in vars(field)
    assert peak < 20_000_000, peak
