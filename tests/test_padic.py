"""Unit arithmetic over truncated unramified extensions and the ramified
quaternion order: Teichmueller lifts, Hensel square roots, Frobenius,
reduced norms."""

import tracemalloc

import numpy as np
import pytest

from propring import padic
from propring.errors import InputNotUnitOne
from propring.gf import GF
from propring.padic import ZqRing, quat_context, zq_ring

import teich_oracle

R25 = zq_ring(5, 1, 2)


def test_teichmuller_frozen_values():
    # the unique x = 2 mod 5 with x^5 = x in Z/25 is 7
    assert R25.teichmuller(2).vec == (7,)
    assert R25.teichmuller(3).vec == (18,)


def test_teichmuller_multiplicative_and_fixed():
    for a in range(5):
        ta = R25.teichmuller(a)
        assert ta**5 == ta
        for b in range(5):
            assert ta * R25.teichmuller(b) == R25.teichmuller((a * b) % 5)


def test_hensel_sqrt_frozen_values():
    assert R25.hensel_sqrt(R25.from_int(21)).vec == (11,)
    assert R25.hensel_sqrt(R25.from_int(6)).vec == (16,)


def test_hensel_sqrt_squares_back():
    for u in (1, 6, 11, 16, 21):
        r = R25.hensel_sqrt(R25.from_int(u))
        assert r * r == R25.from_int(u)
        assert r.residue_index == 1


def test_hensel_sqrt_rejects_non_unit_one():
    with pytest.raises(InputNotUnitOne):
        R25.hensel_sqrt(R25.from_int(7))


def test_inverse_frozen_value():
    assert R25.inv(R25.from_int(6)) == R25.from_int(21)
    for x in (1, 2, 3, 4, 6, 7, 21, 24):
        e = R25.from_int(x)
        assert e * R25.inv(e) == R25.from_int(1)


def test_valuation_and_units():
    assert R25.from_int(5).vp() == 1
    assert R25.from_int(1).vp() == 0
    assert R25.from_int(0).vp() == 2  # capped at the truncation level
    assert R25.is_unit(R25.from_int(7))
    assert not R25.is_unit(R25.from_int(10))


def test_unramified_degree_two_frobenius():
    R = zq_ring(5, 2, 2)
    frob = R.frobenius(1)
    one = R.from_int(1)
    assert frob(one) == one
    for idx in range(1, 25):
        t = R.teichmuller(idx)
        # order two on the degree-two extension, multiplicative
        assert frob(frob(t)) == t
        assert frob(t * t) == frob(t) * frob(t)
        assert frob(t + one) == frob(t) + one


def test_teich_coordinate_roundtrip():
    R = zq_ring(5, 2, 2)
    for idx in (0, 1, 7, 12, 23):
        e = R.teichmuller(idx) + R.teichmuller((idx * 3) % 25) * R.from_int(5)
        back = R.zero
        for c, b in zip(R.teich_coords(e), R.teich_basis, strict=True):
            back = back + int(c) * b
        assert back == e


@pytest.mark.parametrize("p,deg", [(5, 2), (5, 4), (7, 2), (7, 4), (13, 2)])
def test_teich_inverse_matches_gauss_jordan(p, deg):
    # the residue inverse lifted by Newton against the Gauss-Jordan
    # elimination mod p^level it replaced, in both dtypes of the ring
    dtypes = set()
    for level in range(2, 41):
        R = ZqRing(p, deg, level)
        got = R._teich_inverse
        assert got.dtype == R.dtype and got.shape == (deg, deg)
        assert got.tolist() == teich_oracle.invert_basis(R), level
        dtypes.add(np.dtype(R.dtype))
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_quaternion_norm_frozen():
    ctx = quat_context(5, 1, 3)
    R = ctx.ring
    one_plus_pi = ctx.quat(R.from_int(1), R.from_int(1))
    assert one_plus_pi.nrd() == R.from_int(1 - 5)


def test_quaternion_uniformizer():
    ctx = quat_context(5, 1, 3)
    R = ctx.ring
    pi = ctx.quat(R.from_int(0), R.from_int(1))
    assert pi * pi == ctx.quat(R.from_int(5), R.from_int(0))
    assert pi.nrd() == R.from_int(-5)


def test_quaternion_norm_multiplicative():
    import numpy as np

    ctx = quat_context(5, 1, 3)
    R = ctx.ring
    rng = np.random.default_rng(11)

    def rand_unit():
        while True:
            q = ctx.quat(R.from_int(int(rng.integers(125))),
                         R.from_int(int(rng.integers(125))))
            if R.is_unit(q.nrd()):
                return q

    for _ in range(25):
        x, y = rand_unit(), rand_unit()
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert (x * y).conj() == y.conj() * x.conj()
        xi = x.inv()
        assert x * xi == ctx.quat(R.from_int(1), R.from_int(0))


def test_extension_ring_builds_no_field_tables(monkeypatch):
    # zq_ring(5, 6, 3) reads the residue field F_(5^6) through its log
    # tables only: its q x q add and mul tables, 2 x 15,625^2 x 2 bytes
    # (976 MB), are never built.  The field is built fresh, outside gf's
    # cache, so the traced peak holds all of it
    monkeypatch.setattr(padic, "gf", GF)
    tracemalloc.start()
    try:
        R = ZqRing(5, 6, 3)
        t = R.teichmuller(R.field.gen)
        u = R.one + R.x
        checks = t**R.field.q == t and u * R.inv(u) == R.one
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks
    assert "add" not in vars(R.field) and "mul" not in vars(R.field)
    assert peak < 8_000_000, peak
