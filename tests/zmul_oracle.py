"""Right multiplication by tau words: the test oracles for the batched
word builder GroupAlgebra.zmul.

zmul and word_mul are dense: one pass over the whole group per unit of
digit sum of the exponent, the digits above the units read from the
oracle rows of g_i^(p^k) (power_oracle.pc_row), where the library walks
only the support of the element through the generator table; the two
share only the group model's generator tables.

support_zmul and support_word_mul walk one word's support at a time,
factor by factor from the identity, the chunk factors included, with one
collect per factor: the word builder the library had before it built the
words of many rows at once and the chunk half in closed form.

tau_word is the word of a rewritten monomial as a list of (i, e) factors,
its chunk and remainder split one exponent at a time (tau_split), where
the library splits the exponent rows of a whole pass at once
(graded.tau_exponents) and builds the words from the two arrays."""

import math

import numpy as np

from power_oracle import pc_row


def tau_split(alg, exps, N):
    """The chunk and the remainder of a monomial's exponents: the largest
    multiple of p^N not above each, and the rest."""
    q = alg.p**N
    return tuple(e // q * q for e in exps), tuple(e % q for e in exps)


def term_word(chunk, frac):
    """The word of a rewriting term: the chunk factors in basis order, then
    the remainders in basis order."""
    return ([(i, int(e)) for i, e in enumerate(chunk) if e]
            + [(i, int(e)) for i, e in enumerate(frac) if e])


def tau_word(alg, exps, N):
    return term_word(*tau_split(alg, exps, N))


def zmul(alg, a, i, e=1):
    """Right multiplication of the dense vector a by (g_i - 1)^e.  In
    characteristic p, (g - 1)^(p^k) = g^(p^k) - 1, so over the base-p
    digits e_k of e

        (g_i - 1)^e = prod_k (g_i^(p^k) - 1)^(e_k),

    one pass per unit of digit sum, each through the permutation
    pc_row(model, i, k); the units digit reads the generator table.
    Since g_i^(p^M) = 1, e >= p^M gives zero."""
    if e >= alg.pM:
        return np.zeros_like(a)
    perm = alg.model.right_mul_table(alg.model.generator(i))
    k = 0
    while e:
        e, digit = divmod(e, alg.p)
        for _ in range(digit):
            b = np.empty_like(a)
            b[perm] = a
            a = (b - a) % alg.p
        k += 1
        if e:
            perm = pc_row(alg.model, i, k)
    return a


def word_mul(alg, a, word):
    """Right multiplication of the dense vector a by an ordered word of
    (i, e) z-chunks."""
    for i, e in word:
        a = zmul(alg, a, i, e)
    return a


def support_zmul(alg, idx, coeffs, i, e=1):
    """Right multiplication by (g_i - 1)^e of the element sum_t coeffs[t]
    [idx[t]] on its support: by (g_i - 1)^e = sum_s (-1)^(e-s) binom(e, s)
    g_i^s, term s walks the support s steps through the generator table,
    and collect merges the terms.  e >= p^M gives the empty support."""
    if e >= alg.pM:
        return idx[:0], coeffs[:0]
    perm = alg.model.right_mul_table(alg.model.generator(i))
    walk, terms, weights = idx, [], []
    for s in range(e + 1):
        if s:
            walk = perm[walk]
        c = math.comb(e, s) % alg.p
        if c:
            terms.append(walk)
            weights.append(coeffs * (-c if (e - s) % 2 else c))
    return alg.collect(np.concatenate(terms), np.concatenate(weights))


def support_word_mul(alg, word):
    """Support pair of an ordered word of (i, e) z-chunks: the identity's
    support carried through support_zmul factor by factor."""
    idx, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for i, e in word:
        idx, coeffs = support_zmul(alg, idx, coeffs, i, e)
    return idx, coeffs
