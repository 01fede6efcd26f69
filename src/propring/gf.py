"""Exact arithmetic and linear algebra over the small finite fields F_{p^f}.

Field elements are encoded as integers in [0, q) with q = p^f: the element
with polynomial-basis coordinates (c_0, ..., c_{f-1}) gets the index
sum(c_i * p^i).  For f = 1 the index is the residue itself.  Indices are
int16, so q stays below 2^15.  The linear algebra of the package (row
reduction, rank, inverse, residue, products) runs over these index arrays,
and all of its elimination is here (padic lifts its one matrix inverse mod
p^level from mat_inverse by Newton).  rref is one elimination for every
field: it drops the zero columns, eliminates one pivot at a time with a
rank-one update, and above a size threshold updates the columns right of
each 64-column panel by two matrix products.  Only the arithmetic depends
on the field kind:

* over F_p, integer arithmetic mod p on whole rows; matmul is one float64
  BLAS product reduced mod p;
* over F_{p^f}, f > 1, numpy fancy-indexing into the q x q operation
  tables; matmul contracts one shared axis at a time.

Both are exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import CACHED_CONFIGS, prime_factors
from .errors import ConfigError

# irreducible_lift's results for the fields the scenarios and the benchmark
# use: key (p, deg), p^deg < 2^15, value the coefficients (a_0, ..., 1)
# ascending.  The test suite re-derives every entry by the search
IRREDUCIBLE_LIFTS = {
    (5, 1): (2, 1),
    (5, 2): (3, 2, 1),
    (5, 3): (2, 0, 1, 1),
    (5, 4): (3, 0, 2, 2, 1),
    (5, 6): (3, 0, 1, 0, 0, 1, 1),
    (7, 1): (2, 1),
    (7, 2): (5, 2, 1),
    (7, 3): (2, 1, 1, 1),
    (7, 4): (5, 0, 4, 1, 1),
    (11, 1): (3, 1),
    (11, 2): (8, 1, 1),
    (11, 4): (8, 0, 5, 2, 1),
    (13, 1): (2, 1),
    (13, 2): (11, 4, 1),
    (13, 4): (11, 0, 8, 1, 1),
}


@functools.lru_cache(maxsize=CACHED_CONFIGS)
def irreducible_lift(p: int, deg: int) -> tuple[int, ...]:
    """Monic degree-deg polynomial f over Z whose root x generates the
    multiplicative group of F_p[x]/(f), and at whose power
    x^((p^deg - 1)/(p^m - 1)) the lift of every degree m | deg, m < deg,
    vanishes: the first in ascending-lex order of (a_0, ..., a_{deg-1}), a_0
    most significant, tested mod (p, f) in blocks of the p^(deg-1) that
    share a_0; from IRREDUCIBLE_LIFTS if cached.  x of order exactly
    p^deg - 1 makes f irreducible: its powers are that many distinct units,
    so every nonzero residue is a unit and F_p[x]/(f) is a field."""
    if (p, deg) in IRREDUCIBLE_LIFTS:
        return IRREDUCIBLE_LIFTS[(p, deg)]
    q1 = p**deg - 1
    smaller = [(q1 // (p**m - 1), irreducible_lift(p, m)) for m in range(1, deg) if deg % m == 0]
    size = p ** (deg - 1)
    rest = np.arange(size)[:, None] // p ** np.arange(deg - 2, -1, -1) % p
    for a0 in range(p):
        low = np.concatenate([np.full((size, 1), a0), rest], axis=1)
        # xs[:, k] = x^k mod f for k < 2 deg: x^deg = -low
        xs = np.zeros((size, 2 * deg, deg), dtype=np.int64)
        xs[:, 0, 0] = 1
        for k in range(1, 2 * deg):
            xs[:, k, 1:] = xs[:, k - 1, :-1]
            xs[:, k] = (xs[:, k] - xs[:, k - 1, -1:] * low) % p
        one, x = xs[:, 0], xs[:, 1]
        ok = np.ones(size, dtype=bool)
        # the restrictive norm conditions first, then the order of x
        for e, g in smaller:
            xe = _powmod(x, e, xs, p)
            acc = np.zeros_like(x)
            for c in reversed(g):
                acc = _mulmod(acc, xe, xs, p)
                acc[:, 0] = (acc[:, 0] + c) % p
            ok &= ~acc.any(axis=1)
            if not ok.any():
                break
        else:
            ok &= (_powmod(x, q1, xs, p) == one).all(axis=1)
            for ell in prime_factors(q1):
                ok &= (_powmod(x, q1 // ell, xs, p) != one).any(axis=1)
            if ok.any():
                return tuple(low[np.argmax(ok)].tolist()) + (1,)
    raise ConfigError(f"no compatible primitive polynomial found for p={p}, deg={deg}")


def _mulmod(a: np.ndarray, b: np.ndarray, xs: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products a b mod (p, f) of residues held as coefficient rows
    of shape (rows, deg), with xs[:, k] = x^k mod f as above."""
    deg = a.shape[1]
    full = np.zeros((a.shape[0], 2 * deg - 1), dtype=np.int64)
    for i in range(deg):
        full[:, i:i + deg] += a[:, i, None] * b
    return np.einsum("rk,rkj->rj", full % p, xs[:, :2 * deg - 1]) % p


def _powmod(a: np.ndarray, e: int, xs: np.ndarray, p: int) -> np.ndarray:
    """Row-wise powers a^e mod (p, f), by square and multiply."""
    out = xs[:, 0]
    while e:
        if e & 1:
            out = _mulmod(out, a, xs, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, xs, p)
    return out


class GF:
    """F_{p^f} with operation tables on integer indices.  The root of the
    primitive lift generates the multiplicative group, so inverses, the
    Frobenius and powers are read off its discrete-log table.  The two
    q x q tables add and mul, 976 MB at q = 5^6, are built on first use,
    by this module's extension-field elimination and products only."""

    def __init__(self, p: int, f: int):
        # f >= 15 reaches the bound for every p, and keeps p**f small
        if f >= 15 or p**f >= 2**15:
            raise ConfigError(f"q = {p}^{f} must be below 2^15: field elements "
                              f"are int16 indices")
        self.p = p
        self.f = f
        self.q = q = p**f
        self.poly = irreducible_lift(p, f)
        self._weights = weights = p ** np.arange(f)
        digits = np.arange(q)[:, None] // weights % p  # digits[a, j]: coordinate j of a
        self.neg = (-digits % p @ weights).astype(np.int16)
        # antilog[k] = gen^k, stepping by x: shift up, reduce x^f by the monic poly
        antilog = np.zeros(q - 1, dtype=np.int16)
        c = np.zeros(f, dtype=np.int64)
        c[0] = 1
        low = np.array(self.poly[:f], dtype=np.int64)
        for k in range(q - 1):
            antilog[k] = c @ weights
            c = (np.concatenate(([0], c[:-1])) - c[-1] * low) % p
        if (antilog[1:] <= 1).any():  # x^k is 0 or 1 before k = q - 1
            raise ConfigError(f"the root of the lift for p={p}, f={f} is not primitive")
        log = np.zeros(q, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        self._log, self._antilog = log, antilog
        nonzero = np.arange(1, q)
        self.inv = np.zeros(q, dtype=np.int16)
        self.inv[nonzero] = antilog[-log[nonzero] % (q - 1)]
        self.frob = np.zeros(q, dtype=np.int16)  # x -> x^p
        self.frob[nonzero] = antilog[p * log[nonzero] % (q - 1)]

    # row by row: q x q temporaries, freed early, raised the peak RSS of
    # later work
    @functools.cached_property
    def add(self) -> np.ndarray:
        q, p = self.q, self.p
        digits = np.arange(q)[:, None] // self._weights % p
        out = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            out[a] = (digits[a] + digits) % p @ self._weights
        return out

    @functools.cached_property
    def mul(self) -> np.ndarray:
        q, log = self.q, self._log
        out = np.zeros((q, q), dtype=np.int16)
        for a in range(1, q):
            out[a, 1:] = self._antilog[(log[a] + log[1:]) % (q - 1)]
        return out

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.f):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def index(self, coords) -> int:
        out = 0
        for c in reversed(list(coords)):
            out = out * self.p + (c % self.p)
        return out

    def pow(self, a: int, e: int) -> int:
        """a^e, with 0^e = 0 for every e != 0."""
        if not a:
            return int(e == 0)
        return int(self._antilog[self._log[a] * e % (self.q - 1)])

    # generator of the multiplicative group (root of the defining polynomial
    # for f > 1; for f = 1 the residue -poly[0] mod p)
    @property
    def gen(self) -> int:
        if self.f == 1:
            return (-self.poly[0]) % self.p
        return self.p  # index of the coordinate vector (0, 1, 0, ...)


@functools.lru_cache(maxsize=CACHED_CONFIGS)
def gf(p: int, f: int) -> GF:
    return GF(p, f)


# the prime-field elimination reduces a matrix panel by panel (see _panel)
# when it has more than PANEL nonzero columns and at least PANEL_CELLS
# entries on them.  The two break even near 2^17 entries (F_5 and F_13, one
# BLAS thread: 256 x 512 in 16.5-17.8 ms either way); below, each panel's
# inverse and products cost more than they save (400 x 256: 16 ms against
# 13); above, the panels win (676 x 1352: 0.14-0.16 s against 0.23 s)
PANEL = 64
PANEL_CELLS = 2**17


def rref(rows: np.ndarray, field: GF) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q.  Returns (reduced nonzero rows,
    pivot column list).  Input is not modified.

    The all-zero columns are dropped first: such a column never holds a
    pivot and stays zero under row operations, so the rest is reduced on
    its own and scattered back.  Entries are held in int16 while
    (p - 1)^2 < 2^15, that is up to p = 181 and for every extension field
    (q = p^f < 2^15), int32 above."""
    a = np.asarray(rows, dtype=np.int16)
    if a.ndim != 2:
        raise ValueError("rref expects a matrix")
    width = a.shape[1]
    keep = np.flatnonzero(a.any(axis=0))
    a = a[:, keep].astype(np.int16 if (field.p - 1) ** 2 < 2**15 else np.int32, copy=False)
    nrows, ncols = a.shape
    pivots: list[int] = []
    if ncols <= PANEL or nrows * ncols < PANEL_CELLS:
        _eliminate(a, 0, ncols, pivots, field)
    else:
        for c0 in range(0, ncols, PANEL):
            if len(pivots) == nrows:
                break
            _panel(a, c0, min(c0 + PANEL, ncols), pivots, field)
    out = np.zeros((len(pivots), width), dtype=np.int16)
    out[:, keep] = a[: len(pivots)]
    return out, keep[pivots].tolist()


def _eliminate(a: np.ndarray, c0: int, c1: int, pivots: list[int], field: GF,
               perm: np.ndarray | None = None) -> None:
    """Reduce the columns c0..c1-1 of a in place, one pivot at a time, and
    append the pivot columns to pivots.  The pivot row of column c is the
    first row at or below len(pivots) that is nonzero there.  One rank-one
    update both scales it to 1 and clears c in every other row: with s the
    inverse of its entry, row h loses s a[h, c] times it and the pivot row
    itself 1 - s times it.  The update touches only the columns c..c1-1,
    since left of c both rows of a swap and the pivot row vanish.  A swap
    is recorded in perm, if given.

    Over F_p the update is integer arithmetic on the block, and entries
    are reduced mod p lazily.  Factors and the pivot row are reduced
    before each update, so an update keeps an entry below p and lowers it
    by at most (p - 1)^2; the block is reduced after room updates, before
    it could leave the dtype, and the slice on return.  Over F_{p^f} the
    entries are table indices in [0, q), never reduced, and the update is
    one lookup add[block, mul[-factors, pivot row]]."""
    p, q, nrows = field.p, field.q, a.shape[0]
    room = 2 ** (8 * a.itemsize - 1) // (p - 1) ** 2  # updates between reductions
    steps = 0
    r = r0 = len(pivots)
    for c in range(c0, c1):
        if r == nrows:
            break
        factors = a[:, c] % q  # reduces lazy F_p entries, keeps F_{p^f} indices
        nz = factors[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            row = a[r, c:c1].copy()
            a[r, c:c1] = a[i, c:c1]
            a[i, c:c1] = row
            factors[[r, i]] = factors[[i, r]]
            if perm is not None:
                perm[r], perm[i] = perm[i], perm[r]
        pivot = a[r, c:c1] % q
        s = int(field.inv[factors[r]])
        block = a[:, c:c1]
        if field.f > 1:
            factors = field.neg[field.mul[s, factors]]
            factors[r] = field.add[s, field.neg[1]]
            block[:] = field.add[block, field.mul[factors[:, None], pivot]]
        else:
            if s != 1:
                factors *= s
                factors %= p
            factors[r] = (1 - s) % p
            block -= factors[:, None] * pivot
            steps += 1
            if steps == room:
                _mod(block, p)
                steps = 0
        pivots.append(c)
        r += 1
    if pivots[r0:] and field.f == 1:
        _mod(a[:, c0:c1], p)


def _mod(x: np.ndarray, p: int) -> None:
    """x mod p in place, as x - p floor(x / p): numpy divides integers by a
    scalar in SIMD, where its % runs an order of magnitude slower."""
    x -= p * (x // p)


def _panel(a: np.ndarray, c0: int, c1: int, pivots: list[int], field: GF) -> None:
    """Eliminate the columns c0..c1-1 of a, then apply the same row
    operations to the columns right of them by two products.

    Let P be the rows that take the panel's pivots, Q the pivot columns, O
    every other row, and B = a[P, Q], C = a[O, Q] at the start of the
    panel.  The elimination multiplies a on the left by
    G = [[B^-1, 0], [-C B^-1, I]] (rows P, then O): it clears the Q columns
    of O with the rows P only and leaves the identity on P, and G is the
    one such transform.  So the right columns R become B^-1 R[P] on P and
    R[O] - C (B^-1 R[P]) on O.  Left of c0 the rows that can take a pivot
    are zero, so G leaves those columns as they are."""
    r0 = len(pivots)
    start = a[:, c0:c1].copy()
    perm = np.arange(a.shape[0])
    _eliminate(a, c0, c1, pivots, field, perm)
    r1 = len(pivots)
    if r1 == r0 or c1 == a.shape[1]:
        return
    q = np.array(pivots[r0:]) - c0
    prow, orow = perm[r0:r1], np.concatenate([perm[:r0], perm[r1:]])
    b = start[prow][:, q]
    k = b.shape[0]
    aug = np.concatenate([b, np.eye(k, dtype=b.dtype)], axis=1)
    _eliminate(aug, 0, 2 * k, [], field)
    right = a[:, c1:]
    top = matmul(aug[:, k:], right[prow], field)
    rest = sub(right[orow], matmul(start[orow][:, q], top, field), field)
    a[r0:r1, c1:] = top
    a[:r0, c1:] = rest[:r0]
    a[r1:, c1:] = rest[r0:]


def rank(rows: np.ndarray, field: GF) -> int:
    if len(rows) == 0:
        return 0
    return rref(rows, field)[0].shape[0]


def sub(a: np.ndarray, b: np.ndarray, field: GF) -> np.ndarray:
    """a - b entrywise over F_q: mod p for a prime field, through the
    tables for an extension."""
    if field.f == 1:
        out = a - b
        _mod(out, field.p)
        return out
    return field.add[a, field.neg[b]]


def residue(rows: np.ndarray, basis: np.ndarray, pivots: list[int], field: GF) -> np.ndarray:
    """Reduce each row of a 2-D stack against an rref basis B with pivots P
    in one product: rows - rows[:, P] B.  Every row of B vanishes at the
    other pivots, so this equals subtracting v[c] times the row of pivot c
    one pivot at a time; a zero result row means membership."""
    rows = np.asarray(rows, dtype=np.int16)
    return sub(rows, matmul(rows[:, pivots], basis, field), field)


def matmul(a: np.ndarray, b: np.ndarray, field: GF) -> np.ndarray:
    """Matrix product over F_q of 2-D operands.  Prime fields take one
    float64 BLAS product, cast to int64 and reduced mod p in place.  For
    entries in [0, p) every partial sum is at most k (p-1)^2 over the inner
    dimension k, so the product is exact while k (p-1)^2 < 2^53 (k below
    6e13 at p = 13).  Extensions contract one shared axis of table lookups
    at a time."""
    a = np.asarray(a, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16)
    if field.f == 1:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        out %= field.p
        return out.astype(np.int16)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int16)
    for k in range(a.shape[1]):
        out = field.add[out, field.mul[a[:, k].reshape(-1, 1), b[k].reshape(1, -1)]]
    return out


def mat_inverse(a: np.ndarray, field: GF):
    """Inverse of a square matrix over F_q; raises ValueError if singular.

    A stack of matrices (B, n, n) returns (inverses, invertible): the
    inverse of every member, zero for a singular one, and the mask of the
    invertible members.  Over F_p a stack of B > 1 whose n x 2n systems
    stay below PANEL_CELLS entries is eliminated at once (_invert_stack);
    any other stack goes member by member through rref, as does a single
    matrix: a large system takes its panels, and an extension field its
    table lookups."""
    a = np.asarray(a, dtype=np.int16)
    if a.ndim == 3:
        n = a.shape[-1]
        if a.shape[0] > 1 and field.f == 1 and 2 * n * n < PANEL_CELLS:
            return _invert_stack(a, field)
        out, ok = np.zeros_like(a), np.zeros(a.shape[0], dtype=bool)
        for b, m in enumerate(a):
            try:
                out[b] = mat_inverse(m, field)
                ok[b] = True
            except ValueError:
                pass
        return out, ok
    n = a.shape[0]
    aug = np.zeros((n, 2 * n), dtype=np.int16)
    aug[:, :n] = a
    aug[np.arange(n), n + np.arange(n)] = 1
    red, piv = rref(aug, field)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:].copy()


def _invert_stack(a: np.ndarray, field: GF) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan on the systems [A | I] of a prime-field stack (B, n,
    n), every member in the same numpy calls.  Column c takes in each
    member its first row at or below c that is nonzero there as the pivot
    row, swaps it into row c and clears the column by _eliminate's
    rank-one update, with the same lazy reduction mod p.  A member with no
    such row is singular: its inverse of the pivot entry is 0, so its
    update zeroes the pivot row and leaves the rest, and it is masked out.
    On the invertible members the right half ends as the inverse, which is
    unique, so it is byte for byte what rref makes of each system."""
    p = field.p
    nb, n, _ = a.shape
    aug = np.zeros((nb, n, 2 * n), dtype=np.int16 if (p - 1) ** 2 < 2**15 else np.int32)
    aug[:, :, :n] = a
    aug[:, np.arange(n), n + np.arange(n)] = 1
    ok = np.ones(nb, dtype=bool)
    members = np.arange(nb)
    room = 2 ** (8 * aug.itemsize - 1) // (p - 1) ** 2  # updates between reductions
    steps = 0
    for c in range(n):
        factors = aug[:, :, c] % p
        nz = factors[:, c:] != 0
        ok &= nz.any(axis=1)
        i = c + nz.argmax(axis=1)
        if (i != c).any():
            row = aug[members, i]
            aug[members, i] = aug[:, c]
            aug[:, c] = row
            fi = factors[members, i]
            factors[members, i] = factors[:, c]
            factors[:, c] = fi
        block = aug[:, :, c:]
        pivot = block[:, c] % p
        s = field.inv[factors[:, c]].astype(aug.dtype)
        factors *= s[:, None]
        factors %= p
        factors[:, c] = (1 - s) % p
        block -= factors[:, :, None] * pivot[:, None, :]
        steps += 1
        if steps == room:
            _mod(block, p)
            steps = 0
    out = aug[:, :, n:]
    _mod(out, p)
    out = out.astype(np.int16)
    out[~ok] = 0
    return out, ok
