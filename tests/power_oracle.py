"""Right multiplication by generator powers from exponent-indexed tables:
the test oracle for GroupModel.right_act, the pc-generator tables of
GroupModel.right_mul_table, and GroupAlgebra.mul.

It composes the table of g_i^e for every e < p^M, one generator step at a
time, where the library keeps one table per pc generator u_(i,k) =
g_i^(p^k), derives the k >= 1 tables as p-th powers of the one before and
walks the base-p digits of each exponent.  The two share only the generator
tables right_mul_table(g_i); the oracle never asks for the table of a pc
generator with k >= 1."""

import functools

import numpy as np


def pc_generators(model) -> set:
    """The digits of the n M pc generators u_(i,k) = g_i^(p^k), k < M: the
    only keys GroupModel._tables may hold."""
    return {tuple(model.p**k * (j == i) for j in range(model.n))
            for i in range(model.n) for k in range(model.M)}


@functools.lru_cache(maxsize=1)
def power_tables(model) -> np.ndarray:
    """R[i, e] = index table of right multiplication by g_i^e for e < p^M:
    n p^M rows of the group's order, each one generator step past the
    last."""
    R = np.empty((model.n, model.pM, model.order), dtype=np.int32)
    for i in range(model.n):
        g = model.right_mul_table(model.generator(i))
        R[i, 0] = np.arange(model.order)
        for e in range(1, model.pM):
            R[i, e] = g[R[i, e - 1]]
    return R


@functools.lru_cache(maxsize=64)
def pc_row(model, i: int, k: int) -> np.ndarray:
    """Index table of right multiplication by g_i^(p^k): p^k steps through
    the generator table."""
    g = model.right_mul_table(model.generator(i))
    t = np.arange(model.order)
    for _ in range(model.p**k):
        t = g[t]
    return t


def walk(model, idx, digits) -> np.ndarray:
    """right_act one generator step at a time, on exponent digits (an (n,
    batch) array): h_i steps through the table of g_i, for each i in basis
    order."""
    idx = np.asarray(idx)
    for i, h in enumerate(digits):
        g = model.right_mul_table(model.generator(i))
        for s in range(int(np.max(h, initial=0))):
            idx = np.where(h > s, g[idx], idx)
    return idx


def right_mul_table(model, h) -> np.ndarray:
    """Right multiplication by any element h, composed from the power
    tables along its digit word: x h = ((x g_1^(h_1)) g_2^(h_2)) ...
    matches the basis order."""
    powers = power_tables(model)
    t = np.arange(model.order, dtype=np.int32)
    for i, e in enumerate(h):
        if e:
            t = powers[i, e][t]
    return t


def mul(alg, a, b) -> np.ndarray:
    """The dense product of a and b: for each h in the support of b, the
    support of a is carried through the power tables of the digits of h."""
    xs, hs = np.flatnonzero(a), np.flatnonzero(b)
    R = power_tables(alg.model)
    out = np.zeros(alg.order, dtype=np.int64)
    for h in hs:
        idx = xs
        for i, e in enumerate(alg.model.digits_of(int(h))):
            idx = R[i, e][idx]
        # right multiplication by h is a bijection, so idx has no repeats
        out[idx] += a[xs].astype(np.int64) * int(b[h])
    return (out % alg.p).astype(np.int16)
