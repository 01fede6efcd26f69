"""The per-axis-reduced int64 digit-axis transform: the test oracle for
GroupAlgebra._digit_apply.

It contracts the p x p matrix against one base-p digit axis at a time in
int64 and reduces mod p after every axis, so no intermediate exceeds
p (p-1)^2 and any int16 input is exact.  The library kernel instead sums
in float64 and reduces once at the end; the two share only the Pascal
pair.  expand_group_sparse is the closed-form expansion of one group
element with math.comb, for the binomial expansion and the transforms."""

import itertools
import math

import numpy as np


def digit_apply(alg, mat, arr):
    """mat[k, x] contracted against each of the nM digit axes of arr (one
    optional leading batch axis), reduced mod p after every axis."""
    a = arr.astype(np.int64)
    axes = alg.n * alg.model.M
    for j in range(axes):
        a = mat @ a.reshape(-1, alg.p, alg.p ** (axes - 1 - j)) % alg.p
    return a.astype(np.int16).reshape(arr.shape)


def transforms(alg):
    """(name, library transform, oracle transform) for the three
    transforms, with the matrices the library applies."""
    P, Q = alg._pair
    return (("to_monomial", alg.to_monomial, lambda a: digit_apply(alg, P.T, a)),
            ("from_monomial", alg.from_monomial, lambda a: digit_apply(alg, Q.T, a)),
            ("dual_to_monomial", alg.dual_to_monomial, lambda a: digit_apply(alg, Q, a)))


def expand_group_sparse(alg, x):
    """Monomial expansion {k: coefficient} of the group element x by the
    closed form prod_i binom(x_i, k_i) mod p, with math.comb."""
    per_axis = [[(k, c) for k in range(xi + 1) if (c := math.comb(xi, k) % alg.p)]
                for xi in x]
    return {tuple(k for k, _ in combo): math.prod(c for _, c in combo) % alg.p
            for combo in itertools.product(*per_axis)}
