"""The per-axis-reduced int64 digit-axis transform: the test oracle for
GroupAlgebra._digit_apply.

It contracts the p x p matrix against one base-p digit axis at a time in
int64 and reduces mod p after every axis, so no intermediate exceeds
p (p-1)^2 and any int16 input is exact.  The library kernel instead sums
in float64 and reduces once at the end; the two share only the Pascal
pair.  expand_group_sparse is the closed-form expansion of one group
element with math.comb, for the binomial expansion and the transforms.

dense_element, dense_nu and dense_expansion are the point-query path that
GroupAlgebra.support_expansion replaced: the element as f dense vectors of
the group's order, nu as the least per-component alg.nu, and the
expansion as one stacked to_monomial, a scan of the weight array and one
dict per term.  axis_expansion is the earlier body of support_expansion,
which builds each step's new columns by dividing the kept positions back
into exponent and column and casts the float table on every call."""

import itertools
import math

import numpy as np

from propring.gf import gf


def digit_apply(alg, mat, arr, axes=None):
    """mat[k, x] contracted against each of the digit axes of arr (one
    optional leading batch axis), nM unless given, reduced mod p after
    every axis."""
    a = arr.astype(np.int64)
    axes = alg.n * alg.model.M if axes is None else axes
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


def of_group(alg, x):
    """The dense vector of the group element with digits x."""
    a = alg.zero()
    a[alg.model.index_of(alg.model.check_digits(x))] = 1
    return a


def of_support(alg, pair):
    """The dense vector of a prime-field support pair (indices,
    coefficients), in whichever coordinates the indices are."""
    a = alg.zero()
    a[pair[0]] = pair[1]
    return a


def dense_element(alg, items):
    """The support list {digits, coeff} as f dense component vectors, one
    entry added mod p per item."""
    field = gf(alg.p, alg.model.f)
    comps = [alg.zero() for _ in range(alg.model.f)]
    for item in items:
        c = item["coeff"]
        coords = field.coords(field.index(c) if isinstance(c, list) else c)
        flat = alg.model.index_of(tuple(item["digits"]))
        for e, comp in enumerate(comps):
            comp[flat] = (int(comp[flat]) + coords[e]) % alg.p
    return comps


def dense_nu(alg, comps):
    """The least nu over the nonzero components, None for zero; may reach
    p^M, where the truncation is no longer faithful."""
    vals = [alg.nu(c) for c in comps if c.any()]
    return min(vals) if vals else None


def dense_expansion(alg, comps, cutoff):
    """{cutoff, terms} of the components at the weight cutoff, terms
    {exps, coeff} in lexicographic exponent order."""
    monos = alg.to_monomial(np.stack(comps))
    # flat indices ascend in lexicographic exponent order
    hits = np.flatnonzero(monos.any(axis=0) & (alg.nu_weight_array <= cutoff))
    exps = np.stack(np.unravel_index(hits, (alg.pM,) * alg.n), axis=1)
    terms = [{"exps": e, "coeff": c}
             for e, c in zip(exps.tolist(), monos[:, hits].T.tolist())]
    return {"cutoff": cutoff, "terms": terms}


def axis_expansion(alg, idx, coeffs, cutoff):
    """support_expansion as it was before its step built the new columns
    as outer sums: the same (ks, weights, c)."""
    p, pM, f = alg.p, alg.pM, coeffs.shape[1]
    table = alg._P.astype(np.float64)
    ks = wt = np.zeros(1, dtype=np.int64)
    rows, block = idx, coeffs.astype(np.float64)[:, None]  # (rows, columns, f)
    for i, w in enumerate(reversed(alg.nu_weights)):
        if not ks.size:
            break
        prefix = rows // pM
        x = prefix * pM
        np.subtract(rows, x, out=x)
        rows = prefix
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows = rows[first]
        present = np.bincount(x, minlength=pM) > 0
        xs, place = np.flatnonzero(present), np.cumsum(present) - 1
        width = ks.size * f
        if rows.size * xs.size == x.size:
            spread = block.reshape(rows.size, xs.size, width)
        else:
            spread = np.zeros((rows.size * xs.size, width))
            spread[(np.cumsum(first) - 1) * xs.size + place[x]] = block.reshape(-1, width)
            spread = spread.reshape(rows.size, xs.size, width)
        top = min(pM - 1, (cutoff - int(wt.min())) // w) + 1
        sub = table[xs, :top]
        if width == 1:
            out = (spread[:, :, 0] @ sub)[:, :, None]
        else:
            out = (sub.T @ spread).reshape(rows.size, top * ks.size, f)
        live = out.any(axis=0).any(axis=1) & (np.arange(top)[:, None] <= (cutoff - wt) // w).ravel()
        block = np.compress(live, out, axis=1)
        r = np.flatnonzero(live)
        k = r // ks.size
        r -= k * ks.size
        ks, wt = ks[r] + k * pM ** i, wt[r] + w * k
    c = (block.reshape(ks.size, f) % p).astype(np.int64)
    keep = np.flatnonzero(c.any(axis=1))
    return ks[keep], wt[keep], c[keep]
