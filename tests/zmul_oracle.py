"""Right multiplication by tau words: the test oracles for the batched
word builder GroupAlgebra.zmul, which forms each word as the ring product
z^chunk z^frac of two closed-form monomials (GroupAlgebra.mul_rows).

zmul and word_mul are dense: one pass over the whole group per unit of
digit sum of the exponent, the digits above the units read from the
oracle rows of g_i^(p^k) (power_oracle.pc_row), where the library walks
only the support of the element through the pc generator tables; the two
share only the group model's generator tables.

table_zmul is the batched builder the library had before its words were
ring products: the chunk half in closed form, then each remainder factor
(g_i - 1)^e expanded by binomials and walked e steps through the table of
g_i, with one collect per axis for all rows.

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


def table_zmul(alg, chunks, fracs):
    """GroupAlgebra.zmul, its row groups joined, by the generator tables:
    the words of the rows r of two (rows, n) exponent arrays as one
    row-keyed support pair (keys r order + index ascending).  The chunk half is z^chunk in closed form
    (GroupAlgebra._lucas_rows); then axis i right-multiplies every row's
    support by (g_i - 1)^e, e = fracs[r, i], through

        (g_i - 1)^e = sum_s (-1)^(e-s) binom(e, s) g_i^s,

    binom(e, s) mod p read per row from the Lucas table GroupAlgebra._P:
    term s walks the entries of the rows with e >= s s steps through the
    table of g_i, and one collect merges the terms of all rows.  An axis
    on which every exponent is 0 is skipped."""
    order = alg.order
    row, idx, coeffs = alg._lucas_rows(chunks)
    for i in range(alg.n):
        e = fracs[row, i]
        if not e.any():
            continue
        perm = alg.model.right_mul_table(alg.model.generator(i))
        live = np.arange(e.size)  # the entries with e >= s
        walk, keys, weights = idx, [], []
        for s in range(int(e.max()) + 1):
            if s:
                more = e[live] >= s
                live, walk = live[more], perm[walk[more]]
            el = e[live]
            c = alg._P[el, s].astype(np.int64)
            c[(el - s) % 2 == 1] *= -1
            keys.append(row[live] * order + walk)
            weights.append(coeffs[live] * c)
        # exact: each key sums at most p^M terms below p^2 in size
        merged, coeffs = alg.collect(np.concatenate(keys), np.concatenate(weights))
        row = merged // order
        idx = merged - row * order
    return row * order + idx, coeffs


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
