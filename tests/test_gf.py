"""The finite-field tables against the polynomial construction they replace,
and matmul against the int64 product it replaced."""

import numpy as np
import pytest

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
