"""The primal span chain for the powers of the maximal ideal: the test
oracle for the dual certificate algebra.check_maximal_ideal_powers.

It builds the powers primally, as row-reduced spans, where the
certificate runs a dual induction; the two share only the algebra's
basic operations."""

import numpy as np

from propring import gf as gflib
from propring.errors import CutoffBeyondFaithful
from propring.gf import gf, rref

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
