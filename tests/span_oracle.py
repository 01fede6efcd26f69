"""Two test oracles for the certificate algebra.check_maximal_ideal_powers.

The primal span chain builds the powers of the maximal ideal as
row-reduced spans, where the certificate runs a dual induction; the two
share only the algebra's basic operations.

The dense sweep is the dual induction as the certificate ran it before it
moved to the suffix group: for every functional e_k of weight at most
jmax and every generator g_i, the functional e_k o g_i - e_k as a vector of
the group's order, read off the whole right-multiplication table, and its
coordinates over the e_k' by one dual_to_monomial of the group's order."""

import numpy as np

from propring import gf as gflib
from propring.algebra import _WITNESSES, frattini_witness
from propring.errors import CutoffBeyondFaithful
from propring.gf import gf

from rref_oracle import rref
from zmul_oracle import zmul


def monomial_columns(alg, ks, rows, op):
    """Column t: the monomial coordinates, at the flat indices rows, of
    op(z^k) for the flat index k = ks[t]."""
    out = np.zeros((rows.size, ks.size), dtype=np.int16)
    for t, k in enumerate(ks):
        mono = alg.monomial(alg.model.digits_of(int(k)))
        out[:, t] = alg.to_monomial(op(mono))[rows]
    return out


def primal_ideal_power_spans(alg, jmax: int) -> dict:
    """Span-computed powers of the maximal ideal against the weighted
    coordinate subspaces, inside the weight <= jmax quotient space.

    The quotient by span{z^k : nu'(k) > jmax} is legitimate because that
    span is a two-sided ideal (products only raise weight).  m is built
    from every augmentation difference [x] - [1], with no reference to the
    weighted description; each next power uses m^(j+1) = sum_i m^j z_i.
    Equality with the coordinate subspace is dimension count plus support
    inclusion; the report also carries the graded dimensions this span
    chain measures."""
    if jmax + 1 > alg.pM:
        raise CutoffBeyondFaithful(f"jmax {jmax} reaches the unfaithful range")
    F = gf(alg.p, 1)
    nu_w = alg.nu_weight_array
    sel = np.nonzero(nu_w <= jmax)[0]
    width = sel.size
    weights = nu_w[sel]

    # right multiplication by z_i on quotient coordinates
    zmats = [monomial_columns(alg, sel, sel, lambda mono, i=i: zmul(alg, mono, i, 1))
             for i in range(alg.n)]

    # m itself: every [x] - [1], accumulated incrementally
    basis = np.zeros((0, width), dtype=np.int16)
    order = alg.order
    chunk = 1024
    id_col = int(np.searchsorted(sel, alg.model.index_of(alg.model.identity)))
    for start in range(0, order, chunk):
        rows = alg.binomial_expansion(np.arange(start, min(start + chunk, order)), sel)
        rows[:, id_col] = (rows[:, id_col] - 1) % alg.p
        stacked = np.concatenate([basis, rows]) if basis.size else rows
        basis, _ = rref(stacked, F)

    expected = [int((weights >= j).sum()) for j in range(jmax + 2)]
    results = []
    span_dims = [width]
    cur = basis
    ok = True
    for j in range(1, jmax + 2):
        dim_ok = cur.shape[0] == expected[j]
        support_ok = not cur[:, weights < j].any() if cur.size else True
        results.append({"j": j, "dim": int(cur.shape[0]), "expected": expected[j],
                        "equal": bool(dim_ok and support_ok)})
        ok = ok and dim_ok and support_ok
        span_dims.append(int(cur.shape[0]))
        if j <= jmax:
            nxt = np.concatenate([gflib.matmul(cur, zm.T, F) for zm in zmats])
            cur, _ = rref(nxt, F)
    graded = [span_dims[j] - span_dims[j + 1] for j in range(jmax + 1)]
    return {"jmax": jmax, "powers": results, "graded_dims": graded, "ok": ok}


def coefficient_functional(alg, k: int) -> np.ndarray:
    """Values on the group basis of the coefficient functional e_k of
    the flat index k, e_k[x] = prod_i binom(x_i, k_i) mod p: the tensor
    product of the Pascal columns P[., k_i], as GroupAlgebra._lucas_rows
    builds z^k from the rows Q[k_i, .]."""
    e_k = np.ones(1, dtype=np.int16)
    for ki in alg.model.digits_of(k):
        e_k = np.multiply.outer(e_k, alg._P[:, ki]).ravel() % alg.p
    return e_k


def composed_coordinates(alg, e_k, perm) -> np.ndarray:
    """Coordinates over the e_k' of e_k o g - e_k, perm the
    right-multiplication table of g: one transform of the group's order."""
    return alg.dual_to_monomial((e_k[perm] - e_k) % alg.p)


def dense_ideal_power_certificate(alg, jmax: int) -> dict:
    """The dense sweep: the same report as check_maximal_ideal_powers,
    witnesses in the order k, generator, index, after the central step
    frattini_witness that both share."""
    if jmax + 1 > alg.pM:
        raise CutoffBeyondFaithful(f"jmax {jmax} reaches the unfaithful range")
    model = alg.model
    nu_w = alg.nu_weight_array

    witness = frattini_witness(model)
    perms = [model.right_mul_table(model.generator(i)) for i in range(alg.n)]
    sel = np.flatnonzero(nu_w <= jmax)
    for k in sel:
        e_k = coefficient_functional(alg, int(k))
        for i, perm in enumerate(perms):
            coords = composed_coordinates(alg, e_k, perm)
            hits = np.flatnonzero((coords != 0) & (nu_w >= nu_w[k]))
            for c in hits[: _WITNESSES - len(witness)]:
                witness.append({"k": model.digits_of(int(k)), "generator": i,
                                "lands_on": model.digits_of(int(c))})
        if len(witness) >= _WITNESSES:
            break

    if witness:
        return {"ok": False, "jmax": jmax, "witness": witness}
    counts = np.bincount(nu_w[sel], minlength=jmax + 1)
    above = counts[::-1].cumsum()[::-1]  # above[j] = #{k : j <= nu'(k) <= jmax}
    return {"ok": True, "jmax": jmax,
            "power_dims": [int(v) for v in above[1:]] + [0],
            "graded_dims": [int(v) for v in counts]}
