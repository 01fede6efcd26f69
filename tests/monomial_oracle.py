"""The per-monomial paths that GroupAlgebra.generator_columns replaced,
kept as test oracles: each column is one dense product (GroupAlgebra.mul
for a left factor, zmul for a right one) and one transform to monomial
coordinates, through span_oracle.monomial_columns.  They share with the
kernel only the dense ring itself.  all_rows_mult_matrix is the kernel's
earlier use in GradedRing.mult_matrix, which read every row of weight up to
the target and kept the target rows only."""

import numpy as np

from propring.algebra import group_algebra
from propring.errors import ConfigError
from propring.modules import FiniteModule

from span_oracle import monomial_columns
from transform_oracle import of_group
from zmul_oracle import zmul


def weight_quotient_module(cfg, jcut):
    """modules.weight_quotient_module, one dense left product per monomial."""
    alg = group_algebra(cfg)
    if not 1 <= jcut <= alg.pM:
        raise ConfigError("weight cut must stay inside the faithful range")
    sel = np.nonzero(alg.nu_weight_array < jcut)[0]
    mats = []
    for i in range(cfg.dim):
        gd = of_group(alg, alg.model.generator(i))
        mats.append(monomial_columns(alg, sel, sel, lambda mono: alg.mul(gd, mono)))
    return FiniteModule(cfg, int(sel.size), tuple(mats), f"weight-quotient<{jcut}")


def mult_matrix(gr, side, gi, d):
    """GradedRing.mult_matrix (uncached): (g - 1) z^k through alg.mul, or
    z^k (g - 1) through zmul."""
    w = 2 if gi >= 2 * gr.f else 1
    gr._gate(d + w)
    alg = gr.alg
    gen_dense = of_group(alg, gr.model.generator(gi))

    def op(mono):
        if side == "right":
            return zmul(alg, mono, gi, 1)
        return (alg.mul(gen_dense, mono) - mono) % gr.p

    nu_w = alg.nu_weight_array
    rows = np.nonzero(nu_w <= d + w)[0]
    cols = monomial_columns(alg, gr.weight_index(d), rows, op)
    low = nu_w[rows] < d + w
    assert not cols[low].any()
    return cols[~low]


def all_rows_mult_matrix(gr, side, gi, d):
    """GradedRing.mult_matrix through generator_columns over every row of
    weight <= d + w: the identity subtracted at k, the rows below d + w
    asserted zero, then the weight-(d + w) rows."""
    w = 2 if gi >= 2 * gr.f else 1
    gr._gate(d + w)
    nu_w = gr.alg.nu_weight_array
    rows = np.nonzero(nu_w <= d + w)[0]
    ks = gr.weight_index(d)
    cols = gr.alg.generator_columns(gi, side, ks, rows)
    at_k = np.searchsorted(rows, ks), np.arange(ks.size)
    cols[at_k] = (cols[at_k] - 1) % gr.p
    low = nu_w[rows] < d + w
    assert not cols[low].any()
    return cols[~low]
