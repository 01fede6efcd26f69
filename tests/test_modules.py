"""Finite modules over the truncated ring: builders, the three gradings,
minimal annihilator exponents, and the restriction-only reconstruction."""

import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from propring import algebra, cli
from propring import gf as gflib
from propring import modules
from propring.config import BoundedMemo, PrimeConfig
from propring.errors import (
    BoundExceeded,
    ConfigError,
    ContractViolation,
    LevelTooDeep,
    RelationCheckFailed,
)
from propring.gf import gf, matmul, rref
from propring.graded import build_JN, check_central_power_classes, default_ideals, ideal_spec
from propring.groups import GL2Model, QuatModel, group_model
from propring.jsonio import module_from_json, module_to_json
from propring.modules import (
    FiniteModule,
    build_module,
    check_exponent_transfer,
    check_multiplicative,
    deep_line_module,
    dualize,
    grade,
    min_annihilator_exponent,
    module_corpus,
    quotient_module,
    restriction_determinism,
    trivial_module,
    weight_quotient_module,
)

import module_oracle
import monomial_oracle
import power_oracle
from pair_oracle import first_unpaired, regular_module
from transform_oracle import of_group

F5 = gf(5, 1)
IDEALS = default_ideals(1, F5)


@pytest.fixture(scope="session")
def deep(cfg):
    return deep_line_module(cfg)


def piece_dims(gm):
    """Dimensions of the graded pieces: the drops along the chain."""
    return [gm.chain[i].shape[0] - gm.chain[i + 1].shape[0] for i in range(len(gm.chain) - 1)]


def test_trivial_module(cfg):
    mod = trivial_module(cfg)
    assert mod.dim == 1
    for kind in ("gr", "int", "res"):
        gm = grade(mod, kind, N=None if kind == "gr" else 1)
        assert piece_dims(gm) == [1]
        for spec in IDEALS:
            use = spec if kind == "gr" else build_JN(spec, 1, F5)
            rep = min_annihilator_exponent(gm, use)
            assert rep.ell == 1


def test_regular_module_frozen_gradings():
    mod = regular_module(PrimeConfig(5, 1, 1, "GL2"))
    assert mod.dim == 125
    dims = piece_dims(grade(mod, "gr"))
    assert dims == [1, 2, 4, 6, 9, 10, 12, 12, 13, 12, 12, 10, 9, 6, 4, 2, 1]
    assert sum(dims) == 125


def test_regular_module_c_exponent_matches_nilpotency():
    # independent oracle: smallest e with (rho(C) - I)^e = 0 as a dense matrix
    mod = regular_module(PrimeConfig(5, 1, 1, "GL2"))
    field = mod.field
    zc = field.add[mod.gen_action[2], field.neg[mod.identity_matrix()]]
    e = 0
    cur = mod.identity_matrix()
    while cur.any():
        cur = matmul(cur, zc, field)
        e += 1
        assert e <= mod.dim + 1, "nilpotency bound blown"
    rep = min_annihilator_exponent(grade(mod, "gr"), IDEALS[0])
    assert rep.ell == e == 5


def test_weight_quotient_dims(cfg):
    mod = weight_quotient_module(cfg, 6)
    assert mod.dim == 34
    assert piece_dims(grade(mod, "gr")) == [1, 2, 4, 6, 9, 12]


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", [(5, 1, 1), (5, 1, 2), (7, 1, 2), (5, 2, 1)], ids=str)
def test_weight_quotient_matches_per_monomial_oracle(pfm, case):
    # the corpus cuts 5 and 6 and the cut 2 p^(M-1) + 1 of the deep-line
    # closure oracle inside the faithful range, and every cut at (5, 1, 1);
    # the oracle builds each column with one dense product and transform
    p, f, M = pfm
    cfg = PrimeConfig(p, f, M, case)
    cuts = {5, 6, 2 * p ** (M - 1) + 1} | (set(range(2, p**M + 1)) if pfm == (5, 1, 1) else set())
    for jcut in sorted(c for c in cuts if c <= p**M):
        got = weight_quotient_module(cfg, jcut)
        want = monomial_oracle.weight_quotient_module(cfg, jcut)
        assert got.dim == want.dim and got.provenance == want.provenance
        for a, b in zip(got.gen_action, want.gen_action, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape, jcut
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), jcut


def test_generator_kernel_memory_is_chunked():
    # the cut 15 at (7, 1, 2), that of the deep-line closure oracle: 372
    # monomials, so one unchunked expansion block E[g X, rows] holds
    # 138,384 entries; each block of the kernel stays below _KERNEL_CHUNK
    # entries, so the traced peak stays below the result plus a few float64
    # blocks
    cfg = PrimeConfig(7, 1, 2, "GL2")
    # the weights and every pc generator table, built outside the trace
    weight_quotient_module(cfg, 2)
    model = group_model(cfg)
    for i, k in itertools.product(range(cfg.dim), range(cfg.M)):
        model.right_mul_table(model.generator(i, k))
    tracemalloc.start()
    try:
        mod = weight_quotient_module(cfg, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mod.dim == 372
    result = sum(m.nbytes for m in mod.gen_action)
    assert peak < result + 4 * 8 * algebra._KERNEL_CHUNK, peak


def test_deep_module_has_live_twist(deep):
    assert deep.dim == 36
    q = deep.power_of(2 * deep.cfg.f, deep.cfg.p ** (deep.cfg.M - 1))
    assert not np.array_equal(q, deep.identity_matrix())


def test_deep_module_frozen_exponents(deep):
    for out in check_exponent_transfer(deep, IDEALS, 1):
        assert out["ok"]
        assert out["exponents"] == {
            "gr_ideal": 6,
            "gr_twist": 2,
            "int_twist": 2,
            "res_twist": 2,
        }


def _intertwiner_space(old, new):
    """A basis, as columns, of Hom_G(old, new): the X with X A_i = B_i X
    for every generator, the nullspace of the stacked A_i^T (x) I - I (x)
    B_i acting on X read column by column."""
    field, eye = old.field, old.identity_matrix()
    stack = np.concatenate([
        field.add[np.kron(a.T, eye), field.neg[np.kron(eye, b)]]
        for a, b in zip(old.gen_action, new.gen_action, strict=True)])
    red, piv = rref(stack, field)
    free = [c for c in range(stack.shape[1]) if c not in set(piv)]
    basis = np.zeros((stack.shape[1], len(free)), dtype=np.int16)
    basis[free, range(len(free))] = 1
    basis[piv] = field.neg[red[:, free]]
    return basis


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_deep_line_module_is_isomorphic_to_closure_oracle(case):
    # an invertible element of Hom_G(closure quotient, suffix-basis module),
    # drawn from the intertwiner space, certifies the two isomorphic
    cfg = PrimeConfig(5, 1, 2, case)
    old, new = module_oracle.deep_line_closure(cfg), deep_line_module(cfg)
    assert old.dim == new.dim == 36
    field = new.field
    basis = _intertwiner_space(old, new)
    rng = np.random.default_rng(31)
    for _ in range(20):
        coeffs = rng.integers(0, field.q, size=(basis.shape[1], 1)).astype(np.int16)
        x = matmul(basis, coeffs, field).reshape(new.dim, new.dim, order="F")
        try:
            gflib.mat_inverse(x, field)
            break
        except ValueError:
            continue
    else:
        pytest.fail("no invertible intertwiner in 20 draws")
    for a, b in zip(old.gen_action, new.gen_action):
        assert np.array_equal(matmul(x, a, field), matmul(b, x, field))


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_deep_line_module_exponents_match_closure_oracle(pfm, case):
    # (p^(M-1) + 1)^2 suffix monomials, and the same exponents and excess
    # dimensions as the closure quotient for every default ideal, and its
    # twist, on every grading
    cfg = PrimeConfig(*pfm, case)
    old, new = module_oracle.deep_line_closure(cfg), deep_line_module(cfg)
    assert old.dim == new.dim == (cfg.p ** (cfg.M - 1) + 1) ** 2
    field = new.field
    specs = default_ideals(1, field)
    twists = [build_JN(spec, 1, field) for spec in specs]
    for kind, ideals in (("gr", specs + twists), ("int", twists), ("res", twists)):
        N = None if kind == "gr" else 1
        for spec in ideals:
            got = min_annihilator_exponent(grade(new, kind, N), spec)
            want = min_annihilator_exponent(grade(old, kind, N), spec)
            assert (got.ell, got.excess_dims) == (want.ell, want.excess_dims), (kind, spec.name)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_deep_line_generator_columns_stay_on_the_suffix_group(case, monkeypatch):
    # the deep-line basis has k_0 = 0, so every x <= k digit by digit is a
    # suffix, x < |T|: generator_columns expands no element with x_0 > 0
    cfg = PrimeConfig(7, 1, 2, case)
    seen = []
    tensor = algebra.GroupAlgebra._tensor
    monkeypatch.setattr(algebra.GroupAlgebra, "_tensor",
                        lambda self, table, ks, xs: seen.append(xs) or tensor(self, table, ks, xs))
    mod = deep_line_module(cfg)
    monkeypatch.undo()
    alg = algebra.group_algebra(cfg)
    assert mod.dim == 64 and seen
    assert max(int(xs.max()) for xs in seen) < alg.order // alg.pM


def test_quotient_corpus(cfg):
    mods = module_corpus(cfg, count=8)
    assert len(mods) == 10
    assert mods[0].provenance.startswith("trivial")
    assert mods[1].provenance.startswith("deep")
    for mod in mods:
        assert 1 <= mod.dim <= 40
        check_multiplicative(mod)


def test_grading_chains_are_filtrations(deep):
    gr_dims = piece_dims(grade(deep, "gr"))
    int_dims = piece_dims(grade(deep, "int", 1))
    res_dims = piece_dims(grade(deep, "res", 1))
    for dims in (gr_dims, int_dims, res_dims):
        assert sum(dims) == deep.dim
        assert dims[0] >= 1
    # the subsampled chain reads the full chain at multiples of p^N
    sizes = [c.shape[0] for c in grade(deep, "gr").chain]
    last = len(sizes) - 1
    sub = []
    i = 0
    while True:
        sub.append(sizes[min(i * 5, last)])
        if sub[-1] == 0:
            break
        i += 1
    assert int_dims == [sub[t] - sub[t + 1] for t in range(len(sub) - 1)]


def test_weighted_chain_reduces_once_per_step(deep, monkeypatch):
    # R_0 = M is the identity with pivots 0..dim-1 as given: one rref per
    # step after it, for the gr and the res chains of a copy of the deep
    # module that holds no memoized grading yet
    fresh = dataclasses.replace(deep)
    calls = []
    monkeypatch.setattr(modules, "rref", lambda rows, field: calls.append(1) or rref(rows, field))
    for args in (("gr",), ("res", 1)):
        gm = grade(fresh, *args)
        assert np.array_equal(gm.chain[0], np.eye(deep.dim, dtype=np.int16))
        assert gm.pivots[0] == list(range(deep.dim))
        assert len(calls) == len(gm.chain) - 1
        calls.clear()


def test_int_after_gr_reads_the_stored_chain(deep, monkeypatch):
    # each grading is memoized on its module: a repeat and the int grading
    # after gr make no row reduction, and the int chain is the gr chain
    # read at multiples of p^N
    fresh = dataclasses.replace(deep)
    gr = grade(fresh, "gr")
    res = grade(fresh, "res", 1)
    calls = []
    monkeypatch.setattr(modules, "rref", lambda rows, field: calls.append(1) or rref(rows, field))
    gint = grade(fresh, "int", 1)
    assert grade(fresh, "gr") is gr and grade(fresh, "res", 1) is res
    assert grade(fresh, "int", 1) is gint
    assert calls == []
    assert all(c is gr.chain[min(5 * t, len(gr.chain) - 1)] for t, c in enumerate(gint.chain))
    assert [c.tobytes() for c in gint.chain] == \
        [c.tobytes() for c in modules._subsample(grade(deep, "gr"), 1).chain]


def test_multiplicativity_catches_corruption():
    mod = regular_module(PrimeConfig(5, 1, 1, "GL2"))
    broken = FiniteModule(
        cfg=mod.cfg,
        dim=mod.dim,
        gen_action=(mod.identity_matrix(),) + mod.gen_action[1:],
        provenance="corrupted",
    )
    with pytest.raises(RelationCheckFailed):
        check_multiplicative(broken)


def test_build_module_explicit_roundtrip(cfg, monkeypatch):
    # rho(g_i)^(p^M) = 1 makes every generator invertible, so no inverse is
    # taken; a rank only names a generator whose p^M-th power is not the
    # identity as singular
    def no_inverse(*args):
        raise AssertionError("mat_inverse called")

    ranks = []
    real_rank = gflib.rank

    def counting_rank(rows, field):
        ranks.append(rows.shape)
        return real_rank(rows, field)

    monkeypatch.setattr(gflib, "mat_inverse", no_inverse)
    monkeypatch.setattr(gflib, "rank", counting_rank)
    mod = quotient_module(cfg, seed=5)
    again = build_module(
        cfg, "explicit", matrices=[np.array(m) for m in mod.gen_action]
    )
    assert again.dim == mod.dim
    assert ranks == []
    singular = [np.array(m) for m in mod.gen_action]
    singular[0] = np.zeros_like(singular[0])
    with pytest.raises(ConfigError, match="singular"):
        build_module(cfg, "explicit", matrices=singular)
    assert len(ranks) == 1
    # invertible of the wrong order: named by the relation check
    doubled = [np.eye(mod.dim, dtype=np.int16) * 2] + singular[1:]
    with pytest.raises(RelationCheckFailed, match="p\\^M"):
        build_module(cfg, "explicit", matrices=doubled)
    assert len(ranks) == 2


ROOT = Path(__file__).resolve().parent.parent
# GL2 (5, 1, 2) with rho(A) and rho(B) the unipotent shears and rho(C) = 1:
# every generator has order p, and B A = A B W fails at W = [20, 5, 19],
# whose rho(W) is four digit letters
SHEARS = ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]])


def _pool_modules():
    pool = json.loads((ROOT / "bench" / "data" / "modules.json").read_text())
    return [module_from_json(entry["module"]) for case in sorted(pool) for entry in pool[case]]


def _unmemoized(mod, mats=None):
    return FiniteModule(mod.cfg, mod.dim, mod.gen_action if mats is None else mats, "copy")


def _relation_outcome(check, mod):
    try:
        return check(mod)
    except RelationCheckFailed as e:
        return str(e), e.witness


def test_digit_letter_relation_check_matches_oracle():
    # the 12 modules of the bench pool pass both checks, and planted faults
    # (a generator conjugated alone, A and B swapped, the shears) fail both
    # with the same message and witness; each check runs on its own copy,
    # so neither reads powers the other memoized
    mods = _pool_modules()
    assert len(mods) == 12
    compared = []
    for mod in mods:
        a, b, c = mod.gen_action
        conj = module_oracle.conjugate(mod, np.random.default_rng(mod.dim)).gen_action
        for mats in (None, (a, b, conj[2]), (a, conj[1], c), (b, a, c)):
            got = _relation_outcome(check_multiplicative, _unmemoized(mod, mats))
            want = _relation_outcome(module_oracle.check_multiplicative, _unmemoized(mod, mats))
            assert got == want, (mod.cfg.case, mod.dim)
            compared.append(got)
    # 15 relations among the 6 pc generators u_(i,k) of (5, 1, 2)
    assert [type(c) for c in compared] == [int, tuple, tuple, tuple] * 12
    assert {c for c in compared if type(c) is int} == {15}
    mats = tuple(np.array(g, dtype=np.int16) for g in SHEARS)
    mod = FiniteModule(PrimeConfig(5, 1, 2, "GL2"), 2, mats, "shears")
    got = _relation_outcome(check_multiplicative, mod)
    assert got == _relation_outcome(module_oracle.check_multiplicative, _unmemoized(mod))
    assert got[1]["w"] == (20, 5, 19) and "W = [20, 5, 19]" in got[0]


def test_digit_letter_relation_check_takes_fewer_products(monkeypatch):
    # the pool's relation checks with the generator powers built: 76 (GL2)
    # and 77 (QUAT) products, where the ordered generator powers took 105
    # and 117
    mods = [_unmemoized(m) for m in _pool_modules()]
    counts = []
    real = gflib.matmul

    def counting(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(gflib, "matmul", counting)
    for mod in mods:
        counts.append(0)
        check_multiplicative(mod)
    assert counts == [76] * 6 + [77] * 6


def _explicit(mod):
    return build_module(mod.cfg, "explicit", matrices=[np.array(m) for m in mod.gen_action])


def _module_memo(limit):
    """A memo of validated modules with its own limit, sized as the
    library's."""
    return BoundedMemo(limit, modules._VALIDATED.size)


def test_validated_modules_are_stored_once_and_evicted_least_recent_first(monkeypatch):
    checked = []
    real = modules.check_multiplicative
    monkeypatch.setattr(modules, "check_multiplicative",
                        lambda mod: checked.append(mod.dim) or real(mod))
    cfg = PrimeConfig(5, 1, 2, "QUAT")
    mods = [quotient_module(cfg, seed=s, max_dim=12) for s in (1, 2, 3)]
    sizes = [3 * m.dim * m.dim for m in mods]
    memo = _module_memo(max(sizes[0] + sizes[1], sizes[0] + sizes[2]))
    monkeypatch.setattr(modules, "_VALIDATED", memo)
    first = _explicit(mods[0])
    _explicit(mods[1])
    assert _explicit(mods[0]) is first  # now the most recent
    assert len(checked) == 2
    _explicit(mods[2])  # over the bound: mods[1], the least recent, goes
    assert memo.entries == sizes[0] + sizes[2] <= memo.limit
    assert _explicit(mods[0]) is first and _explicit(mods[2]) is _explicit(mods[2])
    assert len(checked) == 3
    again = _explicit(mods[1])
    assert len(checked) == 4 and again is not first
    assert [m.tobytes() for m in again.gen_action] == [m.tobytes() for m in mods[1].gen_action]
    # a module over the whole bound is validated, returned and not kept
    memo = _module_memo(min(sizes) - 1)
    monkeypatch.setattr(modules, "_VALIDATED", memo)
    alone = _explicit(mods[2])
    assert memo == {} and memo.entries == 0
    assert _explicit(mods[2]) is not alone and len(checked) == 6


def test_stored_arrays_are_read_only(monkeypatch):
    # a stored module is shared by every later request: its generators,
    # powers and graded row bases refuse writes
    monkeypatch.setattr(modules, "_VALIDATED", _module_memo(modules._MODULE_MEMO))
    mod = _explicit(quotient_module(PrimeConfig(5, 1, 2, "GL2"), seed=2, max_dim=12))
    arrays = list(mod.gen_action) + [mod.power_of(1, 5), mod.power_of(2, 24)]
    for kind, N in (("gr", None), ("int", 1), ("res", 1)):
        gm = grade(mod, kind, N)
        arrays += gm.chain + list(gm.module.gen_action)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_relation_check_refuses_restriction_data(deep):
    # the relations of G are not those of G_1: on the GL2 deep line module
    # they once failed spuriously at level 1
    with pytest.raises(ConfigError, match="level 1"):
        check_multiplicative(deep.restrict(1))


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_dualize_matches_inverse_oracle(case):
    # the inverse read off the group order equals the row-reduced inverse,
    # on the corpus and on its restriction data at level 1
    cfg = PrimeConfig(5, 1, 2, case)
    for mod in module_corpus(cfg, count=2):
        for src in (mod, mod.restrict(1)):
            got, want = dualize(src), module_oracle.dualize(src)
            assert (got.provenance, got.level) == (want.provenance, want.level)
            assert [g.dtype for g in got.gen_action] == [g.dtype for g in want.gen_action]
            assert [g.tobytes() for g in got.gen_action] == \
                [g.tobytes() for g in want.gen_action], src.provenance


def test_dualize_refuses_a_generator_of_wrong_order(cfg):
    mats = (np.zeros((1, 1), dtype=np.int16),) + (np.eye(1, dtype=np.int16),) * 2
    with pytest.raises(RelationCheckFailed):
        dualize(FiniteModule(cfg, 1, mats, "zero"))


def test_grade_level_gate(deep):
    with pytest.raises(LevelTooDeep):
        grade(deep, "int", 2)
    with pytest.raises(LevelTooDeep):
        grade(deep, "res", None)


def test_twisted_exponent_needs_scaled_ideal(deep):
    gm = grade(deep, "int", 1)
    with pytest.raises(ConfigError):
        min_annihilator_exponent(gm, IDEALS[1])


def test_restriction_data_serves_deeper_twists_at_depth_3():
    # restriction data at level 1 of the GL2 (5, 1, 3) weight quotient at
    # cut 6 (dim 34): each J^[2] acts through the p-th powers of its
    # matrices, with the exponent the full action gives on the same chain;
    # an untwisted spec cannot act on it, nor can the full grading
    cfg = PrimeConfig(5, 1, 3, "GL2")
    mod = weight_quotient_module(cfg, 6)
    restricted = grade(mod.restrict(1), "res", 1)
    assert restricted.module.level == 1
    full_action = dataclasses.replace(restricted, module=mod)
    for spec in IDEALS:
        specN = build_JN(spec, 2, F5)
        want = min_annihilator_exponent(grade(mod, "res", 1), specN).ell
        assert min_annihilator_exponent(restricted, specN).ell == want, spec.name
        assert min_annihilator_exponent(full_action, specN).ell == want, spec.name
        with pytest.raises(ConfigError):
            min_annihilator_exponent(restricted, spec)
    with pytest.raises(LevelTooDeep):
        restricted.module.restrict(0)
    with pytest.raises(ConfigError):
        grade(restricted.module, "gr")
    assert dualize(restricted.module).level == 1


def test_exponent_transfer_on_quotients(cfg):
    for seed in (1, 2, 3):
        mod = quotient_module(cfg, seed=seed)
        outs = check_exponent_transfer(mod, IDEALS, 1)
        assert [out["ideal"] for out in outs] == [spec.name for spec in IDEALS]
        for out in outs:
            assert out["ok"], (seed, out)


def test_restriction_determinism(deep, rng):
    (out,) = restriction_determinism(deep, IDEALS[:1], 1, rng, basis_changes=3)
    assert out["ok"]
    assert out["twist_present"]
    assert out["restricted_path"] == out["exponent"]
    assert set(out["basis_change_exponents"]) == {out["exponent"]}


def test_corpus_checks_grade_each_module_once(deep, monkeypatch):
    # the ideal loop runs inside both checks: with 3 ideals, the module's
    # own gradings and its dual's res grading are built once, and only the
    # random basis changes are graded per ideal; the restriction-only path
    # and the twist are not graded at all; every grading goes through
    # grade's memo, so each build is one call of _grade, counted on a copy
    # of the module with empty memos
    deep = dataclasses.replace(deep)
    calls = []
    real = modules._grade

    def counting(mod, kind, N=None):
        calls.append((mod.provenance, kind))
        return real(mod, kind, N)

    monkeypatch.setattr(modules, "_grade", counting)
    assert len(IDEALS) == 3
    check_exponent_transfer(deep, IDEALS, 1)
    assert sorted(calls) == [(deep.provenance, k) for k in ("gr", "int", "res")]
    calls.clear()
    reps = restriction_determinism(deep, IDEALS, 1, np.random.default_rng(5), basis_changes=2)
    assert [r["ideal"] for r in reps] == [spec.name for spec in IDEALS]
    assert calls.count((f"dual({deep.provenance})", "res")) == 1
    # the restriction-only path and the twist's dual have the dual's level-N
    # matrices byte for byte, so they reuse its grading
    assert calls.count((f"dual(res({deep.provenance}))", "res")) == 0
    assert calls.count((f"dual(twist({deep.provenance}))", "res")) == 0
    assert calls.count((f"dual(conj({deep.provenance}))", "res")) == 3 * 2
    assert len(calls) == 1 + 3 * 2


def test_dual_of_dual_is_isomorphic(cfg):
    # the inverse transpose twice gives back every generator matrix exactly
    mod = quotient_module(cfg, seed=7, max_dim=12)
    dd = dualize(dualize(mod))
    assert dd.dim == mod.dim
    for a, b in zip(dd.gen_action, mod.gen_action, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_relation_check_agrees_with_pair_oracle(case):
    cfg = PrimeConfig(5, 1, 1, case)
    mods = [weight_quotient_module(cfg, j) for j in range(2, 6)]
    mods += module_corpus(cfg, count=4, jcuts=(4, 5))
    for mod in mods:
        assert check_multiplicative(mod) == 3, mod.provenance
        assert first_unpaired(mod) is None, mod.provenance


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_planted_faults_rejected_by_relations_and_pairs(case):
    cfg = PrimeConfig(5, 1, 1, case)
    mod = weight_quotient_module(cfg, 5)
    a, b, c = mod.gen_action
    faults = {
        "identity for g_0": (mod.identity_matrix(), b, c),
        "A and B swapped": (b, a, c),
        "C conjugated alone":
            (a, b, module_oracle.conjugate(mod, np.random.default_rng(7)).gen_action[2]),
    }
    rels = {(r[0], r[1]): r[2] for r in group_model(cfg).pc_relations()}
    for name, mats in faults.items():
        bad = FiniteModule(cfg, mod.dim, mats, name)
        # every generator keeps its order, so only a conjugation relation fails
        for i in range(3):
            assert np.array_equal(bad.power_of(i, 5), bad.identity_matrix()), name
        with pytest.raises(RelationCheckFailed) as err:
            check_multiplicative(bad)
        w = err.value.witness
        assert rels[w["a"], w["b"]] == w["w"], name
        assert f"W = {list(w['w'])}" in str(err.value), name
        assert first_unpaired(bad) is not None, name


def _gradings_and_exponents(cfg, exponent=min_annihilator_exponent, graded=grade):
    """Chains, pivots and (ell, excess_dims) of every default ideal on the
    three gradings at N = 1, for a count-4 corpus and the duals, with the
    exponent search and the grading given."""
    out = []
    for mod in module_corpus(cfg, count=4):
        for m in (mod, dualize(mod)):
            for kind in ("gr", "int", "res"):
                gm = graded(m, kind, None if kind == "gr" else 1)
                specs = [build_JN(spec, 1, F5) for spec in IDEALS]
                if kind == "gr":
                    specs += IDEALS
                reps = [exponent(gm, spec) for spec in specs]
                out.append((m.provenance, [g.tobytes() for g in m.gen_action], kind,
                            gm.chain, gm.pivots, [(r.ell, r.excess_dims) for r in reps]))
    return out


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_sweep_and_prefix_kernels_match_oracles(case, monkeypatch):
    # the certified search without closure, the recursive restriction
    # grading, the BLAS matmul, the batched residue, the closure through
    # gf.rref and the generator kernel against the search with the fixpoint
    # closure, the enumerated restriction grading, the int64 matmul, the
    # row-by-row residue, the closure through the table loop and the
    # per-monomial weight quotient they replaced, all swapped in together
    cfg = PrimeConfig(5, 1, 2, case, N=1)
    got = _gradings_and_exponents(cfg)
    monkeypatch.setattr(modules, "weight_quotient_module", monomial_oracle.weight_quotient_module)
    monkeypatch.setattr(modules, "_stable_closure", module_oracle.stable_closure)
    monkeypatch.setattr(gflib, "matmul", module_oracle.matmul)
    monkeypatch.setattr(gflib, "residue", module_oracle.residue)
    want = _gradings_and_exponents(
        cfg, module_oracle.min_annihilator_exponent,
        lambda m, kind, N: (module_oracle.grade_res_from_restriction(m, N) if kind == "res"
                            else grade(m, kind, N)))
    assert len(got) == len(want) == 36
    for (name, mats, kind, chain, piv, reps), (name2, mats2, _, chain2, piv2, reps2) in zip(
            got, want):
        assert name == name2 and mats == mats2, name
        assert piv == piv2, (name, kind)
        assert len(chain) == len(chain2)
        for c, c2 in zip(chain, chain2):
            assert c.dtype == c2.dtype and c.shape == c2.shape, (name, kind)
            assert c.tobytes() == c2.tobytes(), (name, kind)
        assert reps == reps2, (name, kind)


def test_conjugate_dual_matches_dual_of_conjugate(deep):
    # one inverse per basis change: the dual of T rho T^-1 read off the
    # module's dual, from the same draw as the plain conjugate
    dual = dualize(deep)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        got = module_oracle.conjugate_dual(deep, dual, rng_a)
        want = dualize(module_oracle.conjugate(deep, rng_b))
        assert got.provenance == want.provenance
        for a, b in zip(got.gen_action, want.gen_action, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _unipotent(dim, weights, rng):
    """Matrices I + Z_t, Z_t random and raising a random level of the basis
    vectors by at least weights[t]: nilpotent operators whose powers stay
    nonzero longer than those of the corpus modules."""
    level = np.sort(rng.integers(0, 12, dim))
    raises = level[:, None] >= level[None, :] + np.array(weights)[:, None, None]
    z = rng.integers(0, 5, (len(weights), dim, dim)) * raises
    return [((np.eye(dim, dtype=np.int64) + zt) % 5).astype(np.int16) for zt in z]


def test_weighted_chain_contains_oracle_on_random_unipotents():
    # independent random nilpotents are no representation, so the recursion
    # may exceed the enumerated span; E_i within R_i holds for any matrices
    rng = np.random.default_rng(5)
    weights = (1, 1, 2)
    compared = exceeded = 0
    for _ in range(60):
        qmats = _unipotent(12, weights, rng)
        try:  # either may refuse a chain that stalls
            chain, _ = modules._weighted_chain(modules._aug_ops(qmats, F5), weights, F5)
            want, _ = module_oracle.restriction_chain(qmats, F5, 5, weights)
        except BoundExceeded:
            continue
        assert len(want) <= len(chain)
        for r, e in zip(chain, want):
            assert rref(np.concatenate([r, e]), F5)[0].shape[0] == r.shape[0]
        exceeded += any(r.shape[0] > e.shape[0] for r, e in zip(chain, want))
        compared += 1
    assert compared >= 8 and exceeded >= 4, (compared, exceeded)


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_restriction_grading_matches_oracle_on_representations(pfm, case):
    # corpus modules, their duals and conjugated duals are representations,
    # inside the contract, so the recursion equals the enumeration
    cfg = PrimeConfig(*pfm, case)
    rng = np.random.default_rng(9)
    for mod in module_corpus(cfg, count=4):
        dual = dualize(mod)
        for m in (mod, dual, module_oracle.conjugate_dual(mod, dual, rng)):
            got = grade(m, "res", 1)
            want = module_oracle.grade_res_from_restriction(m, 1)
            assert got.pivots == want.pivots, m.provenance
            assert [c.tobytes() for c in got.chain] == [c.tobytes() for c in want.chain]


def test_basis_changes_peak_near_what_they_return():
    # 24 basis changes of dim 300 over F_5, inverted member by member (2 x
    # 300^2 entries reach the panel path): the members are views into the
    # stacks of draws and inverses, so the traced peak is those stacks
    # (what the function returns and the singular draws of each round)
    # plus one inversion's transients and one draw, where copying the
    # invertible members out of the stacks held twice what it returns
    field, dim, count = gf(5, 1), 300, 24
    rng = np.random.default_rng(3)
    m = rng.integers(0, 5, size=(dim, dim)).astype(np.int16)
    gflib.mat_inverse(m, field)
    tracemalloc.start()
    try:
        gflib.mat_inverse(m, field)
        one = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        out = modules._basis_changes(field, dim, rng, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(t.nbytes + tinv.nbytes for t, tinv in out)
    stacks = sum({id(a.base): a.base.nbytes for pair in out for a in pair}.values())
    assert len(out) == count and held == count * 2 * dim * dim * 2
    assert held <= stacks < 1.5 * held
    assert peak < stacks + one + 2 * dim * dim * 8, (peak, stacks, one)
    assert peak < 2 * held, (peak, held)


@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_basis_changes_draw_the_stream_of_the_loop(pfm, case):
    # the stacked draws keep the loop's stream: the same T and inverses,
    # the same conjugates at level N, the same generator state after each
    # module, with singular draws refused in at least two modules
    cfg = PrimeConfig(*pfm, case)
    rng_a, rng_b, rng_c = (np.random.default_rng(13) for _ in range(3))
    count, singular = 15, 0
    for mod in module_corpus(cfg, count=2):
        field, dual = mod.field, dualize(mod)
        plain = np.random.default_rng()  # count draws, none of them refused
        plain.bit_generator.state = rng_a.bit_generator.state
        for _ in range(count):
            plain.integers(0, field.q, size=(mod.dim, mod.dim))
        got = modules._basis_changes(field, mod.dim, rng_a, count)
        want = [module_oracle.basis_change(field, mod.dim, rng_b) for _ in range(count)]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state, mod.provenance
        for (t, tinv), (t2, tinv2) in zip(got, want, strict=True):
            assert t.dtype == t2.dtype and t.tobytes() == t2.tobytes()
            assert tinv.dtype == tinv2.dtype and tinv.tobytes() == tinv2.tobytes()
            conj = modules._conjugate_dual(mod, dual.restrict(1), t, tinv)
            old = module_oracle.conjugate_dual(mod, dual, rng_c).restrict(1)
            assert conj.level == old.level == 1
            assert conj.provenance == f"dual(conj({mod.provenance}))"
            for a, b in zip(conj.gen_action, old.gen_action, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        singular += plain.bit_generator.state != rng_a.bit_generator.state
    assert rng_a.bit_generator.state == rng_c.bit_generator.state
    assert singular >= 2, singular


@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2)], ids=str)
def test_restriction_determinism_matches_the_sequential_loop(pfm, case):
    # every entry, basis_change_exponents included, and the generator state
    # after each module, against the loop that grades every path and draws
    # each basis change inside the ideal loop
    cfg = PrimeConfig(*pfm, case)
    specs = default_ideals(1, gf(cfg.p, 1))
    rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
    for mod in module_corpus(cfg, count=2):
        got = restriction_determinism(mod, specs, 1, rng_a, 5)
        want = module_oracle.restriction_determinism(mod, specs, 1, rng_b, 5)
        assert got == want, mod.provenance
        assert rng_a.bit_generator.state == rng_b.bit_generator.state, mod.provenance


def _action_bytes(gm):
    return b"".join(g.tobytes() for g in gm.module.gen_action)


@pytest.mark.parametrize("error", (BoundExceeded, RelationCheckFailed))
@pytest.mark.parametrize("k", (0, 6, 11))
def test_planted_fault_in_a_basis_change_raises_as_the_loop(deep, error, k, monkeypatch):
    # the basis changes are all drawn before the searches, which still run
    # in the loop's order: a fault planted in the search of the k-th
    # conjugate and in that of the last raises the message that the loop,
    # which draws each basis change inside it, raises first
    real = modules.min_annihilator_exponent
    seen = []

    def recording(gm, spec):
        if "conj(" in gm.module.provenance:
            seen.append(_action_bytes(gm))
        return real(gm, spec)

    monkeypatch.setattr(modules, "min_annihilator_exponent", recording)
    module_oracle.restriction_determinism(deep, IDEALS, 1, np.random.default_rng(3), 4)
    assert len(seen) == len(set(seen)) == 3 * 4
    planted = {seen[-1]: len(seen) - 1, seen[k]: k}

    def faulty(gm, spec):
        if "conj(" in gm.module.provenance and _action_bytes(gm) in planted:
            raise error(f"planted in {spec.name} at basis change {planted[_action_bytes(gm)]}")
        return real(gm, spec)

    monkeypatch.setattr(modules, "min_annihilator_exponent", faulty)
    for check in (module_oracle.restriction_determinism, restriction_determinism):
        with pytest.raises(error) as err:
            check(deep, IDEALS, 1, np.random.default_rng(3), 4)
        name = build_JN(IDEALS[k // 4], 1, F5).name
        assert str(err.value) == f"planted in {name} at basis change {k}"


@pytest.mark.parametrize("perturb", ("permuted", "trivial"))
def test_restricted_path_that_differs_is_graded_and_searched(deep, perturb, monkeypatch):
    # the restriction-only path's level-N action, perturbed: its bytes
    # differ from the dual's, so it is graded and searched on its own, and
    # ok follows the exponents.  A permutation of the basis is the same
    # module, the identity action another one, whose exponents are all 1
    real_dualize, real_grade = modules.dualize, modules._grade
    perm = np.roll(np.eye(deep.dim, dtype=np.int16), 1, axis=0)

    def perturbed(mod):
        out = real_dualize(mod)
        if mod.level == 1:
            mats = tuple(matmul(perm, matmul(g, perm.T, F5), F5) if perturb == "permuted"
                         else np.eye(mod.dim, dtype=np.int16) for g in out.gen_action)
            out = FiniteModule(out.cfg, out.dim, mats, out.provenance, out.level)
        return out

    graded = []
    monkeypatch.setattr(modules, "dualize", perturbed)
    monkeypatch.setattr(modules, "_grade", lambda mod, kind, N=None:
                        graded.append(mod.provenance) or real_grade(mod, kind, N))
    fresh = dataclasses.replace(deep)
    got = restriction_determinism(fresh, IDEALS, 1, np.random.default_rng(5), 1)
    assert graded.count(f"dual(res({deep.provenance}))") == 1
    assert graded.count(f"dual(twist({deep.provenance}))") == 0
    want = module_oracle.restriction_determinism(fresh, IDEALS, 1, np.random.default_rng(5), 1)
    assert got == want
    for out in got:
        if perturb == "permuted":
            assert out["restricted_path"] == out["exponent"] and out["ok"], out
        else:
            assert out["restricted_path"] == 1 < out["exponent"] and not out["ok"], out


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_subring_monomials_straighten_in_dense_algebra(case):
    # what the straightening certificate proves, checked in F_p[G] at
    # (5, 1, 2): (u_t - 1) z^(p y) lies in the span of the z^(p y') with
    # wt(y') >= wt(y) + w_t, u_t = g_t^p, for all 3 x 125 pairs (t, y)
    cfg = PrimeConfig(5, 1, 2, case)
    alg = algebra.group_algebra(cfg)
    p, w = cfg.p, np.array(alg.model.two_omega)
    ks = np.indices((alg.pM,) * 3).reshape(3, -1).T  # the flat index order
    wt = np.where((ks % p == 0).all(axis=1), ks // p @ w, -1)
    for t in range(3):
        ut = of_group(alg, tuple(p * c for c in alg.model.generator(t)))
        for y in itertools.product(range(p), repeat=3):
            z = alg.monomial(tuple(p * c for c in y))
            coords = alg.to_monomial((alg.mul(ut, z) - z) % p)
            assert (wt[coords != 0] >= w @ y + w[t]).all(), (t, y)


@pytest.mark.parametrize("fault", [(0, 0, 1), (0, 0, 5)], ids=("outside", "shallow"))
def test_planted_commutator_fails_certificate(fault, monkeypatch):
    # [A^5, B^5] = 1 at (5, 1, 2); plant C (not a product of fifth powers)
    # and C^5 (subring weight 2, not above 1 + 1)
    cfg = PrimeConfig(5, 1, 2, "GL2")
    good = group_model(cfg)
    bad = type(good)(5, 1, 2)
    bad._pc = tuple((a, b, fault if (a, b) == ((0, 1), (1, 1)) else w)
                    for a, b, w in good.pc_relations())
    with pytest.raises(ContractViolation) as err:
        bad.certify_straightening(1)
    assert err.value.witness == {"s": 0, "t": 1, "N": 1, "w": fault}
    assert f"W = {list(fault)}" in str(err.value)
    monkeypatch.setattr(modules, "group_model", lambda c: bad)
    with pytest.raises(ContractViolation):  # no fallback to enumeration
        grade(trivial_module(cfg), "res", 1)


def test_restriction_grading_is_bounded_at_level_4(monkeypatch):
    # top^(3f) = 125^3 enumerated products before; the recursion makes at
    # most 3f (dim + 1)
    cfg = PrimeConfig(5, 1, 4, "GL2")
    mod = build_module(cfg, "trivial")
    mod.restrict(1)  # the powers, memoized outside the count
    calls = []
    matmul_ = gflib.matmul
    monkeypatch.setattr(gflib, "matmul", lambda *a: calls.append(1) or matmul_(*a))
    gm = grade(mod, "res", 1)
    assert 1 <= len(calls) <= 3 * (mod.dim + 1)
    monkeypatch.undo()
    assert min_annihilator_exponent(gm, build_JN(IDEALS[0], 1, F5)).ell == 1


def test_stable_closure_matches_oracle_on_random_generators():
    # unipotent generators grow a random start over several rounds, so the
    # fixed point is reached after more than one round
    rng = np.random.default_rng(8)
    grew = 0
    for _ in range(20):
        gens = _unipotent(12, (1, 1, 2), rng)
        rows = rng.integers(0, 5, (int(rng.integers(0, 3)), 12))
        got = modules._stable_closure(rows, gens, F5)
        want = module_oracle.stable_closure(rows, gens, F5)
        assert got[1] == want[1] and got[0].tobytes() == want[0].tobytes()
        grew += got[0].shape[0] > rref(rows, F5)[0].shape[0]
    assert grew >= 10


def _random_ideals(field, rng, count=4):
    """Seeded user ideals at f = 1: one or two generators, each a random
    homogeneous polynomial of degree one or two in a and b."""
    out = []
    for r in range(count):
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            d = int(rng.integers(1, 3))
            gens.append([((m,), (d - m,), int(rng.integers(1, field.q)))
                         for m in range(d + 1) if rng.integers(0, 2)])
        out.append(ideal_spec(gens, 1, name=f"random{r}"))
    return out


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
@pytest.mark.parametrize("pfm", [(5, 1, 2), (7, 1, 2), (11, 1, 2)], ids=str)
def test_exponent_search_matches_closure_oracle(pfm, case):
    # the search on pieces modulo their tails against the search that
    # merges every tail row's image back into the tail, and against the
    # search closed under the ring at every step: corpus modules and duals,
    # the default ideals, seeded user ideals and the twists of both, on the
    # three gradings; a count-2 corpus at p = 7, where the oracle's fixpoint
    # closure is slow, and at p = 11 the deep-line module alone, default
    # ideals and twists, against the tail-merging search only
    cfg = PrimeConfig(*pfm, case)
    field = gf(cfg.p, 1)
    if cfg.p == 11:
        specs = default_ideals(1, field)
        mods, oracles = [deep_line_module(cfg)], (module_oracle.tail_merging_exponent,)
    else:
        count = 4 if cfg.p == 5 else 2
        specs = default_ideals(1, field) + _random_ideals(field, np.random.default_rng(sum(pfm)))
        mods = [m for mod in module_corpus(cfg, count=count) for m in (mod, dualize(mod))]
        oracles = (module_oracle.tail_merging_exponent, module_oracle.min_annihilator_exponent)
    twists = [build_JN(spec, 1, field) for spec in specs]
    compared = 0
    for m in mods:
        for kind, ideals in (("gr", specs + twists), ("int", twists), ("res", twists)):
            gm = grade(m, kind, None if kind == "gr" else 1)
            for spec in ideals:
                got = min_annihilator_exponent(gm, spec)
                for oracle in oracles:
                    want = oracle(gm, spec)
                    assert (got.ell, got.excess_dims) == (want.ell, want.excess_dims), (
                        m.provenance, kind, got.ideal, oracle.__name__)
                compared += 1
    assert compared == len(mods) * 4 * len(specs)


def test_lift_past_the_chain_end_escapes_the_filtration(deep, monkeypatch):
    # an identity lift of weight npieces - 1 keeps piece 0 inside the chain
    # and sends the nonzero piece 1 past its end
    gm = grade(deep, "gr")
    npieces = len(gm.chain) - 1
    assert piece_dims(gm)[1] > 0
    s = npieces - 1
    monkeypatch.setattr(modules, "ideal_operator_lifts",
                        lambda mod, spec: [(mod.identity_matrix(), s)])
    with pytest.raises(RelationCheckFailed, match="escaped the filtration") as err:
        min_annihilator_exponent(gm, IDEALS[0])
    assert err.value.witness == (1, s)


def test_planted_bracket_fails_normal_ideal_certificate(monkeypatch, tmp_path, capsys):
    # a nonzero [a, c] on a fresh model: the gr search refuses, from the
    # library and from the console, while int and res still answer
    cfg = PrimeConfig(5, 1, 2, "GL2")
    bad = GL2Model(5, 1, 2)
    real = bad.bracket_terms

    def planted(x, y, w):
        out = real(x, y, w)
        return {**out, (1, 0, 1): 1} if (x, y) == ((1, 0, 0), (0, 0, 1)) else out

    monkeypatch.setattr(bad, "bracket_terms", planted)
    monkeypatch.setattr(modules, "group_model", lambda c: bad)
    mod = build_module(cfg, "trivial")
    with pytest.raises(ContractViolation) as err:
        min_annihilator_exponent(grade(mod, "gr"), IDEALS[0])
    assert err.value.witness == {"s": 0, "t": 2, "terms": {(1, 0, 1): 1}}
    for kind in ("int", "res"):
        assert min_annihilator_exponent(grade(mod, kind, 1), build_JN(IDEALS[0], 1, F5)).ell == 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_json(mod)))
    for argv, code in ((["--grading", "gr"], 1), (["--grading", "int", "--level-n", "1"], 0),
                       (["--grading", "res", "--level-n", "1"], 0)):
        assert cli.main(["module-exponent", "--in", str(path)] + argv) == code, argv
    assert "[z_0, z_2]" in capsys.readouterr().err
    assert not bad._normal


@pytest.mark.parametrize("case", ("GL2", "QUAT"))
def test_certified_paths_build_no_power_tables(case, monkeypatch):
    # a fresh, uncached model at (7, 1, 2) behind the module layer: the
    # power-class check, the certificate and the exponent search on all
    # three gradings read point products and pc-generator tables only
    fresh = {"GL2": GL2Model, "QUAT": QuatModel}[case](7, 1, 2)
    alg = algebra.GroupAlgebra(fresh)
    monkeypatch.setattr(modules, "group_model", lambda c: fresh)
    monkeypatch.setattr(modules, "group_algebra", lambda c: alg)
    assert check_central_power_classes(fresh, 1)["ok"]
    cfg = PrimeConfig(7, 1, 2, case)
    field = gf(7, 1)
    specs = default_ideals(1, field)
    for mod in module_corpus(cfg, count=1):
        for kind in ("gr", "int", "res"):
            gm = grade(mod, kind, None if kind == "gr" else 1)
            for spec in specs:
                min_annihilator_exponent(gm, spec if kind == "gr" else build_JN(spec, 1, field))
    assert fresh._normal
    assert set(fresh._tables) <= power_oracle.pc_generators(fresh)
