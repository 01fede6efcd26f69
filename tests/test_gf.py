"""The finite-field tables against the polynomial construction they replace,
matmul against the int64 product it replaced, and the echelon insertion and
batched residue against the full rref and the row-by-row residue."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propring import gf as gflib

import module_oracle


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
            m = gflib._polmod(gflib._polmul(list(coords[a]), list(coords[b]), p), poly, p)
            mul[a, b] = mul[b, a] = field.index(m + [0] * (f - len(m)))
    neg = np.array([field.index((-c) % p for c in coords[a]) for a in range(q)], dtype=np.int16)
    inv = np.zeros(q, dtype=np.int16)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
    field.mul = mul
    frob = np.array([field.pow(a, p) for a in range(q)], dtype=np.int16)
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


def _insertion_case(q, ncols, rank, nrows, kind, seed):
    """(basis, pivots, new rows): an rref basis of at most the given rank,
    and new rows drawn at random, from the basis span, or as the missing
    unit rows plus span noise, which complete the space to full rank."""
    field = gflib.gf(*{5: (5, 1), 7: (7, 1), 25: (5, 2)}[q])
    rng = np.random.default_rng(seed)
    basis, piv = gflib.rref(rng.integers(0, q, (rank, ncols)), field)
    if kind == "random":
        rows = rng.integers(0, q, (nrows, ncols)).astype(np.int16)
    else:
        rows = gflib.matmul(rng.integers(0, q, (nrows, basis.shape[0])), basis, field)
        if kind == "complete":
            missing = [c for c in range(ncols) if c not in piv]
            units = np.eye(ncols, dtype=np.int16)[missing]
            rows = np.concatenate([units, rows])
            rows = field.add[rows, gflib.matmul(
                rng.integers(0, q, (rows.shape[0], basis.shape[0])), basis, field)]
    return field, basis, piv, rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(q=st.sampled_from([5, 7, 25]), ncols=st.integers(1, 12), rank=st.integers(0, 12),
       nrows=st.integers(0, 9), kind=st.sampled_from(["random", "span", "complete"]),
       seed=st.integers(0, 2**32 - 1))
@example(q=5, ncols=6, rank=0, nrows=4, kind="random", seed=1)     # empty basis
@example(q=7, ncols=6, rank=3, nrows=0, kind="random", seed=2)     # no new rows
@example(q=25, ncols=6, rank=0, nrows=0, kind="random", seed=3)    # both empty
@example(q=25, ncols=8, rank=5, nrows=6, kind="span", seed=4)      # nothing new
@example(q=7, ncols=8, rank=4, nrows=3, kind="complete", seed=5)   # reaches full rank
def test_rref_insert_matches_full_rref(q, ncols, rank, nrows, kind, seed):
    field, basis, piv, rows = _insertion_case(q, ncols, rank, nrows, kind, seed)
    got, got_piv = gflib.rref_insert(basis, piv, rows, field)
    want, want_piv = module_oracle.rref_insert(basis, piv, rows, field)
    assert got_piv == want_piv
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if kind == "span":
        assert got_piv == piv
    if kind == "complete":
        assert got_piv == list(range(ncols))


@pytest.mark.parametrize("q", [5, 7, 25])
def test_batched_residue_matches_row_by_row(q):
    for seed in range(20):
        field, basis, piv, rows = _insertion_case(q, 10, seed % 11, 7, "random", seed)
        got = gflib.residue(rows, basis, piv, field)
        want = module_oracle.residue(rows, basis, piv, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        inside = gflib.matmul(rows[:, : basis.shape[0]], basis, field)
        assert not gflib.residue(inside, basis, piv, field).any()
