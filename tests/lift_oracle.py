"""The replaced lift search, kept as the test oracle of gf.irreducible_lift.

irreducible_lift here walks the monic candidates x^d + a_(d-1) x^(d-1) + ...
+ a_0 in ascending-lex order (a_0 most significant) one at a time and tests
each with a pure-Python polynomial library: irreducibility by Rabin's test,
primitivity by the order of x, and norm compatibility by evaluating every
smaller lift g of degree m | d at x^((p^d - 1)/(p^m - 1)).  gf.irreducible_lift
runs one batched test on a block of candidates instead, in numpy, and skips
the irreducibility test, which the order test implies.  This oracle takes
its smaller lifts from itself, not from gf.IRREDUCIBLE_LIFTS.
_polmul and _polmod also serve test_gf's polynomial construction of the
field tables."""

import functools

from propring.config import prime_factors


def _polmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _polmod(a, m, p):
    a = [c % p for c in a]
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        if c:
            sh = len(a) - 1 - dm
            for i, y in enumerate(m):
                a[sh + i] = (a[sh + i] - c * y) % p
        a.pop()
        while len(a) > 1 and a[-1] == 0 and len(a) - 1 >= dm:
            a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _polpow(a, e, m, p):
    r = [1]
    a = _polmod(a, m, p)
    while e:
        if e & 1:
            r = _polmod(_polmul(r, a, p), m, p)
        a = _polmod(_polmul(a, a, p), m, p)
        e >>= 1
    return r


def _is_irreducible(f, p):
    n = len(f) - 1
    x = [0, 1]
    t = x
    for _ in range(n):
        t = _polpow(t, p, f, p)
    if t != _polmod(x, f, p):
        return False
    for ell in prime_factors(n):
        t = x
        for _ in range(n // ell):
            t = _polpow(t, p, f, p)
        if t == _polmod(x, f, p):
            return False
    return True


def _is_primitive(f, p):
    n = len(f) - 1
    q1 = p**n - 1
    x = [0, 1]
    if _polpow(x, q1, f, p) != [1]:
        return False
    return all(_polpow(x, q1 // ell, f, p) != [1] for ell in prime_factors(q1))


def _is_compatible(f, p, smaller):
    n = len(f) - 1
    for m, g in smaller.items():
        if m < n and n % m == 0:
            e = (p**n - 1) // (p**m - 1)
            xe = _polpow([0, 1], e, f, p)
            acc = [0]
            powr = [1]
            for c in g:
                if c:
                    t = _polmul([c], powr, p)
                    acc = [
                        ((acc[i] if i < len(acc) else 0) + (t[i] if i < len(t) else 0)) % p
                        for i in range(max(len(acc), len(t)))
                    ]
                powr = _polmod(_polmul(powr, xe, p), f, p)
            if _polmod(acc, f, p) != [0]:
                return False
    return True


@functools.cache
def irreducible_lift(p, deg):
    """Monic degree-deg polynomial over Z, irreducible and primitive mod p,
    norm-compatible with the smaller-degree choices: the first in
    ascending-lex order, found one candidate at a time."""
    smaller = {m: list(irreducible_lift(p, m)) for m in range(1, deg) if deg % m == 0}

    def rec(prefix):
        if len(prefix) == deg:
            if prefix[0] == 0:
                return None
            f = prefix + [1]
            if _is_irreducible(f, p) and _is_primitive(f, p) and _is_compatible(f, p, smaller):
                return tuple(f)
            return None
        for a in range(p):
            r = rec(prefix + [a])
            if r is not None:
                return r
        return None

    found = rec([])
    assert found is not None, (p, deg)
    return found
