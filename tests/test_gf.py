"""The finite-field tables against the polynomial construction they replace."""

import numpy as np
import pytest

from propring import gf as gflib


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
