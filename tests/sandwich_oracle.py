"""The dense product and the first inclusion of the filtration sandwich, one
sample at a time: the test oracles for the row-batched
GroupAlgebra.mul_rows and for graded.check_sandwich, which draws all
samples of an index first and walks their support pairs in row groups.
window_monomial and tau_monomial are the row-by-row rejection loops of the
second inclusion and of check_tau_contract, the oracles for
graded.draw_row, which draws its rows in blocks.  chk_sandwich is the
sandwich check one index k after another, the oracle for check_sandwich
on all k at once, which draws every k first and rewrites the monomials
of all k as one lockstep stream.

mul accumulates one dense product over the support pairs of its factors,
PAIR_CHUNK pairs per GroupModel.right_act and one bincount of the group's
order per chunk; first_inclusion draws a sample, builds u from dense
monomials, multiplies by mul and reads the dense nu before it draws the
next, where the library reads each product's support pair at the window
k p^N - 1 by support_expansion.  They share with the library the right
action."""

import numpy as np

from propring.algebra import group_algebra
from propring.graded import check_sandwich

# support pairs per accumulation step
PAIR_CHUNK = 1 << 18


def mul(alg, a, b) -> np.ndarray:
    """General product, summed over the support pairs (x, h) of a and b:
    the index of x h is GroupModel.right_act, and the coefficients a[x]
    b[h] are accumulated PAIR_CHUNK pairs at a time."""
    xs, hs = np.flatnonzero(a), np.flatnonzero(b)
    av, bv = a[xs].astype(np.float64), b[hs].astype(np.float64)
    out = np.zeros(alg.order, dtype=np.int64)
    pairs = xs.size * hs.size
    for start in range(0, pairs, PAIR_CHUNK):
        t = np.arange(start, min(start + PAIR_CHUNK, pairs))
        xi, hi = np.divmod(t, hs.size)
        idx = alg.model.right_act(xs[xi], alg.model.index_digits(hs[hi]))
        # exact: each bin sums at most PAIR_CHUNK (p-1)^2 < 2^53
        acc = np.bincount(idx, weights=av[xi] * bv[hi], minlength=alg.order)
        out = (out + acc.astype(np.int64)) % alg.p
    return out.astype(np.int16)


def first_inclusion(alg, k: int, N: int, rng, samples: int) -> dict:
    """The first inclusion of check_sandwich at index k, one sample at a
    time, with the same draws: products (element of the k-th subring
    filtration step) x (random ring element) keep weight >= k p^N.  After
    the first product that does not, the samples are drawn and not
    multiplied, as the library draws every sample whatever the verdict."""
    p, n, q = alg.p, alg.n, alg.p**N
    top = p ** (alg.model.M - N)

    def sample_subring_exps():
        while True:
            y = tuple(int(v) for v in rng.integers(0, top, size=n))
            if sum(w * v for w, v in zip(alg.nu_weights, y)) >= k:
                return tuple(q * v for v in y)

    checked, failed = 0, None
    for _ in range(samples):
        u = alg.zero().astype(np.int64)
        for _ in range(int(rng.integers(1, 4))):
            coeff = int(rng.integers(1, p))
            u += coeff * alg.monomial(sample_subring_exps())
        u = (u % p).astype(np.int16)
        v = alg.zero()
        support = rng.choice(alg.order, size=30, replace=False)
        v[support] = rng.integers(0, p, size=30)
        if failed is None:
            val = alg.nu(mul(alg, u, v))
            checked += 1
            if val is not None and val < k * q:
                failed = {"samples": checked, "ok": False}
    return failed or {"samples": checked, "ok": True}


def window_monomial(alg, k: int, N: int, rng) -> tuple[int, ...]:
    """A monomial of the second inclusion at index k: rows of exponents
    below p^M drawn one at a time until one has weight in [k p^N,
    min(p^M - 1, k p^N + 10)]."""
    q = alg.p**N
    while True:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if k * q <= alg.nu_prime(x) <= min(alg.pM - 1, k * q + 10):
            return x


def tau_monomial(alg, rng) -> tuple[int, ...]:
    """A monomial of check_tau_contract: rows drawn one at a time until one
    is not the identity and has weight below p^M."""
    while True:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=alg.n))
        if any(x) and alg.nu_prime(x) <= alg.pM - 1:
            return x


def chk_sandwich(run, rng, N, kmax, samples, mono_samples) -> dict:
    """checks' sandwich check one k after another: check_sandwich on each
    index alone, so the draws of k + 1 follow the checks of k, where the
    library draws every k first and rewrites the monomials of all k as one
    lockstep stream.  A k past the cutoff raises when its turn comes, after
    the k before it are checked."""
    alg = group_algebra(run.cfg)
    per_k = []
    for k in range(1, kmax + 1):
        res, = check_sandwich(alg, [k], N, rng, samples=samples, mono_samples=mono_samples)
        per_k.append(
            {
                "k": k,
                "ok": res["ok"],
                "first_samples": res["first_inclusion"]["samples"],
                **{key: res["second_inclusion"][key]
                   for key in ("transcripts", "monomials_touched", "min_chunk_margin")},
            }
        )
    return {"ok": all(r["ok"] for r in per_k), "N": N, "per_k": per_k}
