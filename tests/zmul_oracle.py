"""Dense right multiplication by tau words: the test oracle for the
support-walking GroupAlgebra.zmul and GroupAlgebra.word_mul.

It makes one pass over the whole group per unit of digit sum of the
exponent and reads the digits above the units from the oracle rows of
g_i^(p^k) (power_oracle.pc_row), where the library walks only the support
of the element through the generator table; the two share only the group
model's generator tables."""

import numpy as np

from power_oracle import pc_row


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
