"""The field lifts against the one-candidate-at-a-time search they replace,
the finite-field tables against the polynomial construction they replace,
matmul against the int64 product it replaced, the row reduction over F_p and
F_{p^f} against the column-at-a-time table loop, and the echelon insertion
and batched residue against the full rref and the row-by-row residue."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propring import gf as gflib

import lift_oracle
import module_oracle
import rref_oracle


def _power(mul, a, e):
    """a^e for e >= 0 by e products in the table mul."""
    r = 1
    for _ in range(e):
        r = int(mul[r, a])
    return r


def polynomial_tables(p, f):
    """add, mul, neg, inv, frob and gen of F_{p^f}, one polynomial product
    and reduction per pair of elements."""
    field = gflib.GF.__new__(gflib.GF)
    field.p, field.f, field.q = p, f, p**f
    poly = list(gflib.irreducible_lift(p, f))
    q = field.q
    coords = [field.coords(i) for i in range(q)]
    add = np.zeros((q, q), dtype=np.int16)
    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        for b in range(a, q):
            add[a, b] = add[b, a] = field.index((x + y) % p for x, y in zip(coords[a], coords[b]))
            m = lift_oracle._polmod(lift_oracle._polmul(list(coords[a]), list(coords[b]), p), poly, p)
            mul[a, b] = mul[b, a] = field.index(m + [0] * (f - len(m)))
    neg = np.array([field.index((-c) % p for c in coords[a]) for a in range(q)], dtype=np.int16)
    inv = np.zeros(q, dtype=np.int16)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
    frob = np.array([_power(mul, a, p) for a in range(q)], dtype=np.int16)
    gen = (-poly[0]) % p if f == 1 else p
    return {"add": add, "mul": mul, "neg": neg, "inv": inv, "frob": frob, "gen": gen}


@pytest.mark.parametrize("p,f", [(5, 1), (5, 2), (5, 4), (7, 2)])
def test_tables_match_polynomial_construction(p, f):
    field = gflib.GF(p, f)
    for name, want in polynomial_tables(p, f).items():
        got = getattr(field, name)
        if name == "gen":
            assert got == want
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("p,f", [(5, 1), (5, 2), (7, 2)])
def test_pow_reads_the_log_table(p, f):
    # a^e off the discrete-log table against e products in the polynomial
    # tables, a^(-e) as the inverse's; 0^0 = 1 and 0^e = 0 otherwise
    field, want = gflib.GF(p, f), polynomial_tables(p, f)
    q = p**f
    for a in range(q):
        for e in (0, 1, 2, p, q - 1, q + 3):
            assert field.pow(a, e) == _power(want["mul"], a, e), (a, e)
            assert field.pow(a, -e) == _power(want["mul"], int(want["inv"][a]), e), (a, -e)


def test_field_tables_are_built_on_first_use():
    # F_(5^6) for the p-adic rings: its q x q tables would take 2 x 15,625^2
    # x 2 bytes, and a fresh field builds neither until it is asked for one
    field = gflib.GF(5, 6)
    assert "add" not in vars(field) and "mul" not in vars(field)
    small = gflib.GF(5, 2)
    assert small.mul[small.gen, small.inv[small.gen]] == 1
    assert "mul" in vars(small) and "add" not in vars(small)


@pytest.fixture
def searched_lift(monkeypatch):
    """gf.irreducible_lift with IRREDUCIBLE_LIFTS bypassed for every degree."""
    monkeypatch.setattr(gflib, "IRREDUCIBLE_LIFTS", {})
    return gflib.irreducible_lift


def test_lift_table_is_the_search_cache(searched_lift):
    table = dict(gflib.IRREDUCIBLE_LIFTS)
    for (p, deg), lift in table.items():
        assert p**deg < 2**15, (p, deg)  # GF refuses the field otherwise
        assert searched_lift(p, deg) == lift, (p, deg)


@pytest.mark.parametrize("p,deg", [(17, 1), (17, 2), (19, 2), (23, 2), (5, 5), (29, 3)])
def test_lift_search_matches_oracle(searched_lift, p, deg):
    assert searched_lift(p, deg) == lift_oracle.irreducible_lift(p, deg)


@pytest.mark.parametrize("p,deg,lift", [(101, 2, (99, 6, 1)), (181, 2, (179, 3, 1))])
def test_lift_search_at_large_p(searched_lift, p, deg, lift):
    # values of the oracle's search, which takes 3 and 11 s here
    assert searched_lift(p, deg) == lift


@pytest.mark.parametrize("p,m,n", [(5, 1, 2), (5, 2, 4), (7, 1, 2), (7, 2, 4), (11, 1, 2),
                                   (13, 1, 2)])
def test_smaller_lift_vanishes_at_the_norm_of_gen(p, m, n):
    # QuatContext.alpha_residue embeds the generator of F_(p^f) in F_(p^(2f))
    # as zeta^(p^f + 1) = zeta^((p^n - 1)/(p^m - 1)): the degree-m lift must
    # vanish there, with its coefficients in F_p as indices
    field = gflib.gf(p, n)
    root = field.pow(field.gen, (p**n - 1) // (p**m - 1))
    value = 0
    for c in reversed(gflib.irreducible_lift(p, m)):
        value = int(field.add[field.mul[value, root], c])
    assert value == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_matmul_matches_int64_oracle(p):
    # the float64 BLAS product reduced once against the int64 product, up
    # to inner dimension 4096, on random operands and on the all-(p-1)
    # operands with the largest sums
    field = gflib.gf(p, 1)
    rng = np.random.default_rng(p)
    for k in (1, 2, 33, 257, 4096):
        a = rng.integers(0, p, size=(9, k)).astype(np.int16)
        b = rng.integers(0, p, size=(k, 7)).astype(np.int16)
        worst_a = np.full((3, k), p - 1, dtype=np.int16)
        worst_b = np.full((k, 4), p - 1, dtype=np.int16)
        for x, y in ((a, b), (worst_a, worst_b)):
            got = gflib.matmul(x, y, field)
            want = module_oracle.matmul(x, y, field)
            assert got.dtype == np.int16 and got.tobytes() == want.tobytes(), (k, x.shape)
    # an odd sum past 2^24, where float32 would round and float64 is exact
    k = 2**24 // (p - 1) ** 2 + 2
    x = np.full((2, k), p - 1, dtype=np.int16)
    x[:, 0] = 1
    assert gflib.matmul(x, x.T, field).tobytes() == module_oracle.matmul(x, x.T, field).tobytes()


@pytest.mark.parametrize("p,f", [(5, 2), (7, 2)])
def test_extension_matmul_bytes_unchanged(p, f):
    field = gflib.gf(p, f)
    rng = np.random.default_rng(p * f)
    for k in (1, 33, 257):
        a = rng.integers(0, field.q, size=(9, k)).astype(np.int16)
        b = rng.integers(0, field.q, size=(k, 7)).astype(np.int16)
        got = gflib.matmul(a, b, field)
        assert got.dtype == np.int16
        assert got.tobytes() == module_oracle.matmul(a, b, field).tobytes(), k


def _field(q):
    """F_q for a prime q or for q in {25, 49}."""
    return gflib.gf(*{25: (5, 2), 49: (7, 2)}.get(q, (q, 1)))


def _residue_case(q, ncols, rank, nrows, seed):
    """(basis, pivots, rows): an rref basis of at most the given rank and
    rows drawn at random."""
    field = _field(q)
    rng = np.random.default_rng(seed)
    basis, piv = gflib.rref(rng.integers(0, q, (rank, ncols)), field)
    return field, basis, piv, rng.integers(0, q, (nrows, ncols)).astype(np.int16)


@pytest.mark.parametrize("q", [5, 7, 25])
def test_batched_residue_matches_row_by_row(q):
    for seed in range(20):
        field, basis, piv, rows = _residue_case(q, 10, seed % 11, 7, seed)
        got = gflib.residue(rows, basis, piv, field)
        want = module_oracle.residue(rows, basis, piv, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        inside = gflib.matmul(rows[:, : basis.shape[0]], basis, field)
        assert not gflib.residue(inside, basis, piv, field).any()


def _low_rank(field, nrows, ncols, rank, zero_share, rng):
    """A random nrows x ncols matrix of rank at most rank, with about
    zero_share of its columns set to zero."""
    left = rng.integers(0, field.q, (nrows, rank))
    right = rng.integers(0, field.q, (rank, ncols))
    m = gflib.matmul(left, right, field) if rank else np.zeros((nrows, ncols), dtype=np.int16)
    m[:, rng.random(ncols) < zero_share] = 0
    return m


def _same_rref(got, want):
    assert got[1] == want[1]
    assert got[0].dtype == want[0].dtype == np.int16
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(q=st.sampled_from([5, 7, 13, 31, 197, 25, 49]), nrows=st.integers(0, 24),
       ncols=st.integers(0, 24), rank=st.integers(0, 24),
       zero_share=st.sampled_from([0.0, 0.3, 0.7]), seed=st.integers(0, 2**32 - 1))
@example(q=5, nrows=0, ncols=7, rank=0, zero_share=0.0, seed=1)     # no rows
@example(q=13, nrows=6, ncols=0, rank=3, zero_share=0.0, seed=2)    # no columns
@example(q=7, nrows=5, ncols=9, rank=0, zero_share=0.0, seed=3)     # all zero
@example(q=197, nrows=12, ncols=12, rank=12, zero_share=0.0, seed=4)  # full rank, int32
@example(q=31, nrows=10, ncols=14, rank=4, zero_share=0.3, seed=5)  # rank-deficient
@example(q=49, nrows=12, ncols=16, rank=9, zero_share=0.3, seed=6)  # extension field
def test_rref_matches_table_oracle(q, nrows, ncols, rank, zero_share, seed):
    # rref, rank, mat_inverse and residue against the
    # column-at-a-time table loop they replaced, in dtype, shape, bytes
    # and pivots
    field = _field(q)
    rng = np.random.default_rng(seed)
    m = _low_rank(field, nrows, ncols, rank, zero_share, rng)
    _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))
    assert gflib.rank(m, field) == rref_oracle.rank(m, field)
    square = m[: min(nrows, ncols), : min(nrows, ncols)]
    try:
        want = rref_oracle.mat_inverse(square, field)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            gflib.mat_inverse(square, field)
    else:
        got = gflib.mat_inverse(square, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    half = nrows // 2
    basis, piv = gflib.rref(m[:half], field)
    rows = m[half:]
    got = gflib.residue(rows, basis, piv, field)
    want = module_oracle.residue(rows, basis, piv, field)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [5, 13, 197, 25, 49])
@pytest.mark.parametrize("ncols,rank", [(63, 63), (64, 40), (65, 65), (129, 100), (129, 30)])
def test_rref_on_both_sides_of_the_panel_threshold(q, ncols, rank):
    # just enough rows for the panel path when there are more than PANEL
    # columns: 63 and 64 columns are eliminated one pivot at a time, 65 in
    # a full panel and one column, 129 in two full panels and one column;
    # rank 30 leaves the later panels without a pivot
    field = _field(q)
    rng = np.random.default_rng(ncols * rank + q)
    nrows = -(-gflib.PANEL_CELLS // ncols)
    m = _low_rank(field, nrows, ncols, rank, 0.0, rng)
    _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))


@pytest.mark.parametrize("p", [5, 13, 197])
def test_panels_with_rows_above_and_zero_columns(p):
    # many panels, each with earlier pivot rows above it, a rank below the
    # row count and zero columns between the panels
    field = gflib.gf(p, 1)
    rng = np.random.default_rng(p)
    m = _low_rank(field, 300, 1200, 230, 0.2, rng)
    assert (m != 0).any(axis=0).sum() * 300 >= gflib.PANEL_CELLS
    _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))


@pytest.mark.parametrize("p", [31, 181])
def test_lazy_reduction_up_to_the_int16_bound(p):
    # one pivot at a time, entries are reduced mod p only every
    # 2^15 // (p - 1)^2 updates: 36 at p = 31, 1 at p = 181, the largest
    # prime in int16; 150 pivots pass that count at both
    field = gflib.gf(p, 1)
    m = np.random.default_rng(p).integers(0, p, (150, 170)).astype(np.int16)
    assert m.size < gflib.PANEL_CELLS
    _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))


@pytest.mark.parametrize("p", [191, 197])
def test_primes_past_the_int16_bound(p):
    # (p - 1)^2 >= 2^15: a product of two residues leaves int16, so the
    # kernel reduces in int32; the all-(p - 1) rows give the largest terms
    field = gflib.gf(p, 1)
    rng = np.random.default_rng(p)
    worst = np.full((6, 9), p - 1, dtype=np.int16)
    worst[np.arange(6), np.arange(6)] = 1
    for m in (worst, rng.integers(0, p, (30, 40)).astype(np.int16)):
        _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))
    a = rng.integers(0, p, (20, 20)).astype(np.int16)
    inv = gflib.mat_inverse(a, field)
    assert inv.tobytes() == rref_oracle.mat_inverse(a, field).tobytes()
    assert (gflib.matmul(a, inv, field) == np.eye(20, dtype=np.int16)).all()


def test_extension_field_through_zero_columns_and_panels():
    # over F_25 the rref drops zero columns and leaves enough entries on
    # the rest for the panel updates; the residue reduces against a basis
    # of a few of the rows
    field = _field(25)
    rng = np.random.default_rng(25)
    m = _low_rank(field, 360, 720, 300, 0.2, rng)
    nonzero = (m != 0).any(axis=0)
    assert 0 < nonzero.sum() < 720 and nonzero.sum() * 360 >= gflib.PANEL_CELLS
    _same_rref(gflib.rref(m, field), rref_oracle.rref(m, field))
    basis, piv = gflib.rref(m[:60], field)
    rows = m[60:]
    res = gflib.residue(rows, basis, piv, field)
    want = module_oracle.residue(rows, basis, piv, field)
    assert res.dtype == want.dtype and res.tobytes() == want.tobytes()


def test_extension_field_mat_inverse():
    field = _field(25)
    a = np.random.default_rng(100).integers(0, 25, (100, 100)).astype(np.int16)
    inv = gflib.mat_inverse(a, field)
    assert inv.dtype == np.int16
    assert inv.tobytes() == rref_oracle.mat_inverse(a, field).tobytes()
    assert (gflib.matmul(a, inv, field) == np.eye(100, dtype=np.int16)).all()
    singular = a.copy()
    singular[70] = gflib.matmul(np.array([[7, 19]]), a[[3, 55]], field)[0]
    with pytest.raises(ValueError, match="singular"):
        gflib.mat_inverse(singular, field)
    with pytest.raises(ValueError, match="singular"):
        rref_oracle.mat_inverse(singular, field)


def test_mat_inverse_at_depth_3_size():
    # 676 is the dimension of the depth-3 deep module; the augmented
    # 676 x 1352 system is reduced panel by panel
    field = gflib.gf(5, 1)
    a = np.random.default_rng(676).integers(0, 5, (676, 676)).astype(np.int16)
    inv = gflib.mat_inverse(a, field)
    assert inv.dtype == np.int16
    assert (gflib.matmul(a, inv, field) == np.eye(676, dtype=np.int16)).all()
    singular = a.copy()
    singular[400] = gflib.matmul(np.array([[2, 3]]), a[[17, 300]], field)[0]
    with pytest.raises(ValueError, match="singular"):
        gflib.mat_inverse(singular, field)


def _stack_with_singular_members(field, nb, n, rng):
    """nb random n x n matrices over field, one of them zero and one with
    a row repeated, so at least two are singular."""
    a = rng.integers(0, field.q, (nb, n, n)).astype(np.int16)
    a[1] = 0
    if n > 1:
        a[nb - 2, -1] = a[nb - 2, 0]
    return a


def _same_as_each_member(stack, field, want_inverse):
    """mat_inverse of the stack against want_inverse of each member: the
    same inverse bytes, zero for a singular member, and the mask."""
    inv, ok = gflib.mat_inverse(stack, field)
    assert inv.dtype == np.int16 and inv.shape == stack.shape and ok.dtype == bool
    for b, m in enumerate(stack):
        try:
            want = want_inverse(m, field)
        except ValueError:
            assert not ok[b] and not inv[b].any(), b
        else:
            assert ok[b] and inv[b].tobytes() == want.tobytes(), b
    return ok


@pytest.mark.parametrize("p", [5, 7, 13, 181, 197])
def test_stacked_inverse_matches_each_member(p, monkeypatch):
    # one elimination over the stack axis, lazy mod p up to p = 181 and in
    # int32 past it, against the table loop's inverse of each member
    field = gflib.gf(p, 1)
    rng = np.random.default_rng(p)
    calls = []
    stacked = gflib._invert_stack
    monkeypatch.setattr(gflib, "_invert_stack", lambda a, f: calls.append(a.shape) or stacked(a, f))
    for n in (1, 2, 9, 36):
        a = _stack_with_singular_members(field, 12, n, rng)
        ok = _same_as_each_member(a, field, rref_oracle.mat_inverse)
        assert (~ok).sum() >= 1 + (n > 1) and ok.sum() >= 6
    assert calls == [(12, n, n) for n in (1, 2, 9, 36)]


def test_stacked_inverse_routes_per_member(monkeypatch):
    # a stack of one, a stack whose n x 2n systems reach PANEL_CELLS and a
    # stack over F_25 go member by member through rref, as a single matrix
    # does; a stack just below the threshold is eliminated at once
    calls = []
    stacked = gflib._invert_stack
    monkeypatch.setattr(gflib, "_invert_stack", lambda a, f: calls.append(a.shape) or stacked(a, f))
    f5, f25 = gflib.gf(5, 1), gflib.gf(5, 2)
    rng = np.random.default_rng(400)
    assert 2 * 256 * 256 == gflib.PANEL_CELLS
    for field, nb, n in ((f5, 1, 30), (f5, 2, 256), (f5, 2, 400), (f25, 6, 12)):
        a = _stack_with_singular_members(field, nb, n, rng) if nb > 2 else \
            rng.integers(0, field.q, (nb, n, n)).astype(np.int16)
        want = rref_oracle.mat_inverse if n < 100 else gflib.mat_inverse
        _same_as_each_member(a, field, want)
        assert calls == [], (field.q, nb, n)
    big = rng.integers(0, 5, (2, 400, 400)).astype(np.int16)
    inv, ok = gflib.mat_inverse(big, f5)
    assert ok.any()
    for b in np.flatnonzero(ok):
        assert (gflib.matmul(big[b], inv[b], f5) == np.eye(400, dtype=np.int16)).all()
    a = _stack_with_singular_members(f5, 2, 255, rng)
    _same_as_each_member(a, f5, gflib.mat_inverse)
    assert calls == [(2, 255, 255)]
