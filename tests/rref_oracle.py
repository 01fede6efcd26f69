"""The replaced row reduction, kept as the test oracle of gf.rref.

rref here is the column-at-a-time loop over the q x q operation tables that
gf.rref ran for every field: it visits every column, swaps rows by fancy
indexing and updates every hit row through add[a, mul[-factor, row]].
gf.rref no longer runs this loop for any field: it drops the zero columns,
eliminates one pivot at a time by a rank-one update (arithmetic mod p over
F_p, one table lookup over F_{p^f}) and updates the columns right of each
64-column panel by two matrix products.  Reduced row echelon form is unique
for a row space, so the two agree byte for byte.
rank and mat_inverse are gf's, built on this rref; the other oracles read
them from here, so that no oracle shares the kernel it checks."""

import numpy as np


def rref(rows, field):
    """Reduced row echelon form over F_q: (reduced nonzero rows, pivot
    column list).  Input is not modified."""
    a = np.array(rows, dtype=np.int16)
    if a.ndim != 2:
        raise ValueError("rref expects a matrix")
    nrows, ncols = a.shape
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        s = inv[a[r, c]]
        a[r] = mul[s, a[r]]
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            factors = neg[col[hit]]
            a[hit] = add[a[hit], mul[factors.reshape(-1, 1), a[r].reshape(1, -1)]]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(rows, field):
    if len(rows) == 0:
        return 0
    return rref(rows, field)[0].shape[0]


def mat_inverse(a, field):
    """Inverse of a square matrix over F_q; raises ValueError if singular."""
    a = np.asarray(a, dtype=np.int16)
    n = a.shape[0]
    aug = np.zeros((n, 2 * n), dtype=np.int16)
    aug[:, :n] = a
    aug[np.arange(n), n + np.arange(n)] = 1
    red, piv = rref(aug, field)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:].copy()
