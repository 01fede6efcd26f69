"""The truncated completed group ring F_p[G/G^(p^M)] and its canonical
filtration by powers of the maximal ideal.

Elements are dense vectors over F_p indexed by group digit vectors (flat
index order of groups.GroupModel).  The second coordinate system is the
monomial basis

    z^k = (g_1 - 1)^(k_1) (g_2 - 1)^(k_2) ... (g_n - 1)^(k_n),

ordered products over the generating family, k in [0, p^M)^n.  A group
element with digits x expands as

    [x] = sum_k  prod_i binom(x_i, k_i)  z^k      (mod p),

an exact finite identity because the ordered product of the generator
powers matches the ordering of the monomials, so the change of basis is a
tensor product of univariate binomial matrices mod p.  By Lucas' theorem,
binom(x, k) = prod_j binom(x_j, k_j) mod p over the base-p digits, so each
univariate matrix is the M-fold Kronecker power of the p x p Pascal matrix
P[x, k] = binom(x, k), and the transforms apply P along each of the nM
base-p digit axes of the flat index.  The inverse is the closed form
Q[x, k] = (-1)^(x-k) binom(x, k), the inverse of the lower-triangular
Pascal matrix over Z (checked in tests/test_algebra.py,
test_pascal_pair_inverse).  Each axis is one float64 BLAS product with no
reduction in between, and the result is reduced mod p once at the end.
That is exact while every partial sum stays below 2^53: for inputs with
entries in [0, p) the largest is (p-1) (p(p-1))^(nM), and GroupAlgebra
refuses a configuration beyond that bound with a ConfigError before it
allocates anything of the group's order.

A generator acting on low monomials needs no vector of the group's order:
z^k = sum_(x <= k) Q[k, x] [x] and the coordinate k' of [y] is
prod_i binom(y_i, k'_i), so the coordinates of g_i z^k (or z^k g_i) at a
set of monomials are one product Q[ks, X] E[g_i X, rows] mod p over the
down-set X of weights up to those of ks (generator_columns).  Its left
products g_i x and the support pairs x h of the general product
(mul_rows, which mul calls on a batch of one) go through one index-level
right action, GroupModel.right_act: it walks x through the n M tables of
the pc generators g_i^(p^k), at most p - 1 steps per base-p digit of h.
The rewriting's words z^chunk (g_0 - 1)^(frac_0) ... are ring products
too: their remainder half is the ordered monomial z^frac, so zmul is
mul_rows of two closed-form monomials and hands on its row groups.

A sparse element is a support pair and is read through the same closed
form: the coefficients of sum_t c_t [x_t] at the monomials of weight up to
a cutoff are contracted one exponent axis at a time over the support's
distinct prefixes and the monomial suffixes inside the cutoff
(support_expansion, and element_nu below p^M).  Many elements go through
one call as a row-keyed support pair, keys row order + index: the row is
the part of the key above the n exponent axes, so the contraction leaves
it uncontracted, and each row's monomial terms come back keyed row order
+ k.  A single element is row 0, its keys its indices.  So point queries,
the rewriting and the sandwich's products make no vector of the group's
order, and a batch of them costs one call, not one per element.

The weight of a monomial index is nu'(k) = sum_i w_i k_i with w = 1 for the
A and B positions and w = 2 for the C positions (doubled generator
valuations).  The certified statement about the maximal ideal m (kernel of
the augmentation) is

    m^j = span{ z^k : nu'(k) >= j }   for all j,

from which nu(a) = max{j : a in m^j} is read off the monomial support.
Its certificate, check_maximal_ideal_powers, is the reported check
ideal-power-spans.  It is non-circular: the inclusion m^j <= span comes
from a dual induction (the coefficient functionals e_k with nu'(k) < j
kill m^j, checked through the operators phi -> phi(. z_i) which generate
the step from m^j to m^(j+1)), and the reverse dimension bound comes from
the pc relations, whose commutators place each C_i in the Frattini
subgroup G^p [G, G] and so every z^k inside m^(nu'(k)).  The induction
reads each functional on the suffix group {g_1^(x_1) ... g_(n-1)^(x_(n-1))}
of order p^(M(n-1)), the first axis split off by Lucas and Vandermonde
(see check_maximal_ideal_powers).
Truncation is faithful for nu below p^M: the kernel of the projection from
the full completed ring is spanned by monomials with some k_i >= p^M, all
of weight at least p^M.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import CACHED_CONFIGS, PrimeConfig
from .errors import ConfigError, CutoffBeyondFaithful
from .gf import gf, matmul, rref
from .groups import Digits, GroupModel, group_model


# support pairs per right_act walk of GroupAlgebra.mul_rows; bounds its
# transient index arrays to a few MB
_PAIR_CHUNK = 1 << 14
# entries of the expansion block per step of GroupAlgebra.generator_columns
_KERNEL_CHUNK = 1 << 16
# witness entries a failed certificate reports
_WITNESSES = 10
# float64 represents every integer below this exactly
_EXACT = 2**53


def _pascal_pair(p: int) -> tuple[np.ndarray, np.ndarray]:
    """P[x, k] = binom(x, k) mod p for x, k < p, and its inverse
    Q[x, k] = (-1)^(x-k) binom(x, k) mod p."""
    P = np.array([[math.comb(x, k) % p for k in range(p)] for x in range(p)], dtype=np.int64)
    sign = (-1) ** np.add.outer(np.arange(p), np.arange(p))
    return P, sign * P % p


class GroupAlgebra:
    def __init__(self, model: GroupModel):
        p, nM = model.p, model.n * model.M
        largest = (p - 1) * (p * (p - 1)) ** nM  # largest transform sum
        if largest >= _EXACT:
            raise ConfigError(
                f"p={p}, f={model.f}, M={model.M} is beyond the exact transform bound: "
                f"(p-1)(p(p-1))^(nM) = {largest:.3g} must stay below 2^53 "
                f"(group order {model.order})")
        self.model = model
        self.p = model.p
        self.n = model.n
        self.pM = model.pM
        self.order = model.order
        self.nu_weights = tuple(model.two_omega)
        self._pair = _pascal_pair(self.p)  # (P, Q), applied per base-p digit
        # P[x, k] = binom(x, k) and its inverse for x, k < p^M, the row
        # tables of binomial_expansion and _lucas_rows (Lucas' theorem)
        self._P, self._Q = (
            (functools.reduce(np.kron, [m] * model.M) % self.p).astype(np.int16)
            for m in self._pair
        )
        # the float64 copy of _P that support_expansion contracts against
        self._Pf = self._P.astype(np.float64)
        # the nonzero entries of Q row by row (_lucas_rows): those of row e
        # at _q_ptr[e] .. _q_ptr[e + 1] - 1, the support of z^e on one axis
        nz = self._Q != 0
        self._q_ptr = np.concatenate([[0], np.cumsum(np.count_nonzero(nz, axis=1))])
        self._q_col = np.nonzero(nz)[1].astype(np.int64)
        self._q_val = self._Q[nz].astype(np.int64)

    # -- dense vectors -------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.order, dtype=np.int16)

    # -- multiplication ------------------------------------------------------

    def collect(self, idx: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Support pair of sum_t weights[t] [idx[t]] mod p: repeated indices
        merged, zero coefficients dropped, sorted by index.  weights[t] is
        a scalar or a row of coordinates, such as the f coordinates of a
        coefficient over F_p; a row is dropped when all of it is zero.
        Exact while every index's sum of |weights| stays below 2^53."""
        flat, where = np.unique(idx, return_inverse=True)
        f = math.prod(weights.shape[1:])
        cells = (where[:, None] * f + np.arange(f)).ravel()
        acc = np.bincount(cells, weights.reshape(-1), flat.size * f).astype(np.int64) % self.p
        keep = np.flatnonzero(acc.reshape(flat.size, f).any(axis=1))
        return flat[keep], acc.reshape(flat.shape + weights.shape[1:])[keep]

    def zmul(self, chunks: np.ndarray, fracs: np.ndarray):
        """The words z^(chunks[r]) (g_0 - 1)^(fracs[r, 0]) ... of the rows r
        of two (rows, n) arrays of exponents below p^M, each the product
        z^chunk z^frac of two closed forms (_lucas_rows), as mul_rows' row
        groups keyed r order + index: the cost follows the words' supports."""
        return self.mul_rows(self._lucas_rows(chunks), self._lucas_rows(fracs), len(chunks))

    def mul_rows(self, a, b, rows: int):
        """Row-batched product on support pairs.  a and b are (row, index,
        coefficient) arrays sorted by row, every row below rows; yields,
        for groups of whole rows in order, (key, coefficient) with key =
        row order + index ascending: the row-keyed support pair of the
        products (row of a) (row of b).

        The base-p digits of b's indices are read once (index_digits).
        The support pairs (x, h) of a group, _PAIR_CHUNK at most, go
        through one GroupModel.right_act on the digits of their h, and the
        group's products are merged by collect on the key.  A row with
        more pairs than that is a group of its own, walked in slices of
        _PAIR_CHUNK, each merged into the row's running pair by collect.
        So the transient memory is a few arrays of _PAIR_CHUNK entries
        beside the products, whatever the batch, and a caller that stops
        early skips the groups after it."""
        (ar, ax, ac), (br, bx, bc) = a, b
        a0 = np.searchsorted(ar, np.arange(rows + 1))
        b0 = np.searchsorted(br, np.arange(rows + 1))
        nb = np.diff(b0)
        pairs = np.diff(a0) * nb
        ends = np.cumsum(pairs)  # pairs are numbered row by row
        digits = self.model.index_digits(bx)

        def products(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            # pairs start, ..., stop - 1, keyed by row order + index of x h;
            # exact: each key sums at most _PAIR_CHUNK terms below p^2
            t = np.arange(start, stop)
            own = np.searchsorted(ends, t, side="right")
            xi, hi = np.divmod(t - ends[own] + pairs[own], nb[own])
            xi += a0[own]
            hi += b0[own]
            # np.take gathers each digit row contiguous, which right_act
            # walks row by row; digits[:, hi] would not
            walked = self.model.right_act(ax[xi], np.take(digits, hi, axis=1))
            key = own * self.order + walked
            return self.collect(key, np.multiply(ac[xi], bc[hi], dtype=np.float64))

        r = 0
        while r < rows:
            lo = int(ends[r] - pairs[r])
            # whole rows of _PAIR_CHUNK pairs at most, or one row alone
            end = max(r + 1, int(np.searchsorted(ends, lo + _PAIR_CHUNK, side="right")))
            stop = int(ends[end - 1])
            key, acc = products(lo, min(lo + _PAIR_CHUNK, stop))
            for start in range(lo + _PAIR_CHUNK, stop, _PAIR_CHUNK):
                more = products(start, min(start + _PAIR_CHUNK, stop))
                key, acc = self.collect(*map(np.concatenate, zip((key, acc), more)))
            yield key, acc
            r = end

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """General product of dense vectors: mul_rows on a batch of one."""
        xs, hs = np.flatnonzero(a), np.flatnonzero(b)
        (idx, coeffs), = self.mul_rows((np.zeros_like(xs), xs, a[xs]),
                                     (np.zeros_like(hs), hs, b[hs]), 1)
        out = self.zero()
        out[idx] = coeffs
        return out

    def _lucas_rows(self, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, index, coefficient) arrays of the monomials z^(exps[r]) of
        the rows r of a (rows, n) array, rows ascending and each row's
        indices ascending: row r is the tensor product of the nonzero
        entries of the rows Q[exps[r, i], .] of the inverse binomial
        matrix, those x <= exps[r, i] digit by digit (Lucas), one axis at a
        time, most significant first."""
        pM, p = self.pM, self.p
        row = np.arange(len(exps))
        idx = np.zeros(row.size, dtype=np.int64)
        coeffs = np.ones(row.size, dtype=np.int64)
        for i in range(self.n):
            e = exps[row, i]
            lo, count = self._q_ptr[e], np.diff(self._q_ptr)[e]
            rep = np.repeat(np.arange(row.size), count)
            # the place of each new entry among Q's nonzeros: the start lo
            # of its source's row of Q plus its rank among that row's count
            at = np.arange(rep.size) + np.repeat(lo - np.cumsum(count) + count, count)
            row = row[rep]
            idx = idx[rep] * pM + self._q_col[at]
            coeffs = coeffs[rep] * self._q_val[at] % p
        return row, idx, coeffs

    def monomial(self, k: Digits) -> np.ndarray:
        """Dense vector of z^k, a fresh array (_lucas_rows on one row)."""
        _, idx, coeffs = self._lucas_rows(np.array([self.model.check_digits(k)]))
        out = self.zero()
        out[idx] = coeffs
        return out

    def generator_columns(self, i: int, side: str, ks: np.ndarray,
                          rows: np.ndarray) -> np.ndarray:
        """Matrix whose column t holds the monomial coordinates, at the flat
        indices rows, of g_i z^k (side "left") or z^k g_i (side "right") for
        the flat index k = ks[t], without a dense product or transform.

        z^k = sum_(x <= k) Q[k, x] [x], so the coordinates are the block
        Q[ks, X] E[g_i X or X g_i, rows] mod p, where E[y, k'] =
        prod_i binom(y_i, k'_i) (binomial_expansion) and X = {x : nu'(x) <=
        max nu'(ks), x_0 <= max k_0}.  X holds every x <= k digit by digit:
        nu' is a down-set weight, and flat indices are x_0-major, so X lies
        in the prefix of the first (max k_0 + 1) |T| indices, |T| = order /
        p^M.  Right products read right_mul_table(g_i); a left product g_i
        x is GroupModel.right_act from g_i through the digits of x."""
        model, p = self.model, self.p
        nu_w, suffixes = self.nu_weight_array, self.order // self.pM
        prefix = nu_w[:(ks.max(initial=0) // suffixes + 1) * suffixes]
        xs = np.flatnonzero(prefix <= nu_w[ks].max(initial=-1))
        if side == "right":
            gx = model.right_mul_table(model.generator(i))[xs]
        else:
            gx = model.right_act(np.full(xs.size, model.index_of(model.generator(i))),
                                 model.index_digits(xs))
        field = gf(p, 1)
        out = np.zeros((rows.size, ks.size), dtype=np.int16)
        # blocks Q[ks, X_s], E[g X_s, rows_r] and their product stay below
        # _KERNEL_CHUNK entries each; only the result grows with the cut
        step = max(1, _KERNEL_CHUNK // max(ks.size, 1))
        width = max(1, _KERNEL_CHUNK // max(step, ks.size))
        for s in range(0, xs.size, step):
            q = self._tensor(self._Q, ks, xs[s:s + step])
            for r in range(0, rows.size, width):
                e = self.binomial_expansion(gx[s:s + step], rows[r:r + width])
                out[r:r + width] += matmul(q, e, field).T
                out[r:r + width] %= p
        return out

    # -- basis transforms ----------------------------------------------------

    def _digit_apply(self, mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
        """Contract the p x p matrix mat[k, x] against each base-p digit
        axis of arr's trailing axis (most significant first, the flat C
        order), whose length p^d gives the number of axes d: nM for a
        vector of the group's order, (n - 1) M for one of the suffix
        group.  arr may carry one leading batch axis.  Entries of arr must
        lie in [0, p): the float64 sums are then exact (see __init__, d <=
        nM), and the result is reduced mod p once.

        Each step contracts the leading digit axis and moves it last.  The
        batch axis starts behind the digit axes, so after d steps it is in
        front again and the digit axes are back in order."""
        p, size = self.p, arr.shape[-1]
        a = arr.reshape(-1, size).T.astype(np.float64, order="C")
        mt = mat.T.astype(np.float64)
        for _ in range(round(math.log(size, p))):
            a = a.reshape(p, -1).T @ mt
        a = a.astype(np.int64)
        a %= p  # in place, so no third array of the input's size
        return a.astype(np.int16).reshape(arr.shape)

    def to_monomial(self, a: np.ndarray) -> np.ndarray:
        """Coefficients over the z^k basis, same flat index layout."""
        return self._digit_apply(self._pair[0].T, a)

    def from_monomial(self, c: np.ndarray) -> np.ndarray:
        return self._digit_apply(self._pair[1].T, c)

    def dual_to_monomial(self, phi: np.ndarray) -> np.ndarray:
        """Coordinates of a functional (values on the group basis, or on
        the suffix group's) over the coefficient functionals e_k."""
        return self._digit_apply(self._pair[1], phi)

    # -- expansion without dense arrays --------------------------------------

    def _tensor(self, table: np.ndarray, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """out[s, t] = prod_i table[x_i, k_i] mod p over the digits of the
        flat indices x = xs[s] and k = ks[t]."""
        shape = (self.pM,) * self.n
        out = np.ones((len(xs), len(ks)), dtype=np.int16)
        for xd, kd in zip(np.unravel_index(xs, shape), np.unravel_index(ks, shape)):
            out *= table[:, kd][xd]  # the columns first: one small block, then a row gather
            out %= self.p
        return out

    def binomial_expansion(self, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """E[s, t] = prod_i binom(x_i, k_i) mod p for the flat indices
        x = xs[s] and k = ks[t]: row s holds the monomial coordinates of the
        group element x at the monomials ks."""
        return self._tensor(self._P, xs, ks)

    def support_expansion(self, idx: np.ndarray, coeffs: np.ndarray,
                          cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The monomial terms of weight at most cutoff of the elements
        sum_t coeffs[t] [x_t], one per row, given as keys idx[t] = row
        order + x_t ascending and distinct, cutoff >= 0, where coeffs[t]
        holds the f coordinates of a coefficient over F_p: (ks, weights,
        c), the keys row order + k ascending, the weights nu'(k) and the
        (len, f) coordinates of the nonzero coefficients.  One element is
        row 0, its keys the flat indices x_t and k.

        The coefficient of z^k is sum_t coeffs[t] prod_i binom(x_i, k_i),
        so the expansion contracts the support one exponent axis at a
        time, the last first, against the p^M x p^M table _P (its float64
        copy _Pf).  The block it works on has a row per distinct exponent
        prefix (x_0 .. x_(i-1)) of the support still to contract and a
        column per suffix (k_i .. k_(n-1)) already contracted that carries
        a nonzero entry and has weight at most cutoff.  Each step groups
        the rows by their prefix less its last exponent x, contracts x
        against the rows of _P of the exponents that occur, and keeps the
        new columns, built with their weights as two outer sums, that are
        nonzero and within the cutoff: the axes left only add weight.  So
        the block never holds more entries than the dense vector on the
        kept columns, one product per axis does the arithmetic, and a
        support of a few terms keeps a few rows and columns.  After the n
        axes the block's rows are the elements' rows, which share the
        columns: a batch's block has a row per element and a column per
        monomial live in any of them."""
        p, pM, f = self.p, self.pM, coeffs.shape[1]
        ks = wt = np.zeros(1, dtype=np.int64)
        rows, block = idx, coeffs.astype(np.float64)[:, None]  # (rows, columns, f)
        for i, w in enumerate(reversed(self.nu_weights)):
            if not ks.size:
                break
            # rows = x_prefix p^M + x; numpy's // by a scalar is fast, %
            # and divmod are not
            prefix = rows // pM
            x = prefix * pM
            np.subtract(rows, x, out=x)
            rows = prefix
            first = np.ones(rows.size, dtype=bool)
            first[1:] = rows[1:] != rows[:-1]
            rows = rows[first]
            # the exponents x present
            present = np.bincount(x, minlength=pM) > 0
            xs = np.flatnonzero(present)
            width = ks.size * f
            if rows.size * xs.size == x.size:  # each prefix has every x
                spread = block.reshape(rows.size, xs.size, width)
            else:  # each term to its prefix's row, at its x's place among xs
                place = np.cumsum(present) - 1
                spread = np.zeros((rows.size * xs.size, width))
                spread[(np.cumsum(first) - 1) * xs.size + place[x]] = block.reshape(-1, width)
                spread = spread.reshape(rows.size, xs.size, width)
            top = min(pM - 1, (cutoff - int(wt.min())) // w) + 1
            sub = self._Pf[xs, :top]
            # exact: entries stay below (p-1) ((p-1) p^M)^n, inside the
            # transform bound that __init__ checks
            if width == 1:  # one product, not one per row
                out = (spread[:, :, 0] @ sub)[:, :, None]
            else:
                out = (sub.T @ spread).reshape(rows.size, top * ks.size, f)
            # the new columns, exponent k of this axis major: k p^(M i) + ks
            # of weight w k + wt
            cand = np.arange(top)
            cand_ks = np.add.outer(cand * pM ** i, ks).ravel()
            cand_wt = np.add.outer(cand * w, wt).ravel()
            live = out.any(axis=(0, 2)) & (cand_wt <= cutoff)
            block = out[:, live]
            ks, wt = cand_ks[live], cand_wt[live]
        # rows is now key // order, the row of each block row
        c = block.reshape(-1, f).astype(np.int64)  # exact: integers below 2^53
        c %= p
        keep = np.flatnonzero(c.any(axis=1))
        r, col = np.divmod(keep, ks.size)
        return rows[r] * self.order + ks[col], wt[col], c[keep]

    # -- weights and nu --------------------------------------------------------

    def nu_prime(self, k) -> int:
        return sum(w * int(c) for w, c in zip(self.nu_weights, k))

    @functools.cached_property
    def nu_weight_array(self) -> np.ndarray:
        w = np.zeros(1, dtype=np.int32)
        for wi in self.nu_weights:
            w = np.add.outer(w, wi * np.arange(self.pM, dtype=np.int32)).ravel()
        return w

    def nu(self, a: np.ndarray) -> int | None:
        """min nu' over the monomial support; None for zero."""
        c = self.to_monomial(a)
        hit = np.nonzero(c)[0]
        if hit.size == 0:
            return None
        return int(self.nu_weight_array[hit].min())

    def element_nu(self, idx: np.ndarray, coeffs: np.ndarray) -> int | None:
        """nu of the element sum_t coeffs[t] [idx[t]], read on its support
        by support_expansion as row 0: the least weight of a monomial term,
        over all f coordinates, as the coefficient field is free over F_p.
        None when no term lies below p^M, where the truncation stops
        being faithful."""
        _, weights, _ = self.support_expansion(idx, coeffs, self.pM - 1)
        return int(weights.min()) if weights.size else None


def _suffix_coordinates(alg: GroupAlgebra, perm: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Row r: the coordinates over the suffix group's functionals of the
    restriction to x_0 = 0 of e_k o g - e_k, for the flat index k = ks[r]
    and perm the right-multiplication table of g.  On a suffix t, e_k o g
    is e_k(perm[t]), a binomial expansion of the table's first
    p^(M(n-1)) entries, and e_k is zero unless k_0 = 0, where its
    coordinates are the unit vector at k."""
    suffixes = alg.order // alg.pM
    coords = alg.dual_to_monomial(alg.binomial_expansion(perm[:suffixes], ks).T)
    own = ks < suffixes
    coords[own, ks[own]] = (coords[own, ks[own]] - 1) % alg.p
    return coords


def frattini_witness(model: GroupModel) -> list[dict]:
    """The C generators that the pc relations do not place in the Frattini
    subgroup Phi(G) = G^p [G, G], as {generator, relations_rank} with the
    rank over F_p of the relations' digit vectors mod p; empty when every
    C_i lies in Phi(G).

    Each relation W = (u_a u_b)^(-1) u_b u_a is the commutator [u_b, u_a],
    so it maps to 0 in the elementary abelian G/Phi(G), where the ordered
    product with digits w maps to sum_i (w_i mod p) times the image of g_i.  Every vector of
    the span of these digit vectors mod p is thus a linear relation among
    the images of the g_i, and C = g_c lies in Phi(G) once the unit vector
    e_c is in that span.  The span's reduced row echelon form holds e_c
    exactly when it has e_c as the row of pivot c."""
    rows = np.array([w for _, _, w in model.pc_relations()], dtype=np.int64) % model.p
    basis, pivots = rref(rows, gf(model.p, 1))
    units = {c for c, row in zip(pivots, basis) if np.count_nonzero(row) == 1}
    return [{"generator": c, "relations_rank": len(pivots)}
            for c in range(2 * model.f, model.n) if c not in units]


def check_maximal_ideal_powers(alg: GroupAlgebra, jmax: int) -> dict:
    """Certify m^j = span{z^k : nu'(k) >= j} for 0 <= j <= jmax + 1.

    Two halves, neither assuming the conclusion:

    * Dual induction.  ann(m^j) in the dual is spanned by the coefficient
      functionals e_k with nu'(k) < j.  Since the augmentation ideal is
      generated by the z_i on either side, m^(j+1) = sum_i m^j z_i, so the
      step needs exactly: e_k composed with right multiplication by z_i
      lies in span{e_k' : nu'(k') < nu'(k)}.  That membership is what the
      sweep below verifies for every k with nu'(k) <= jmax.
    * Dimension count.  The inclusion above caps dim ann(m^j); equality
      needs dim m^j >= #{nu' >= j}, which follows once z_i lies in m^(w_i).
      Weight one is the definition of m; weight two follows from C_i in
      the Frattini subgroup Phi(G) = G^p [G, G] (frattini_witness), because
      [x,y] - 1 = x^(-1)y^(-1)((x-1)(y-1) - (y-1)(x-1)) and
      w^p - 1 = (w - 1)^p (characteristic p) land in m^2, and
      gh - 1 = (g-1)(h-1) + (g-1) + (h-1) keeps m^2 closed under products.

    The sweep works on the suffix group T = {g_1^(x_1) ... g_(n-1)^(x_(n-1))}
    of order p^(M(n-1)).  Write x = g_0^(x_0) t and t g_i = g_0^(y_0(t)) t'(t).
    First each generator's whole table is compared with that broadcast
    form, x g_i = g_0^((x_0 + y_0) mod p^M) t' (GroupModel.right_mul_table),
    read off its first |T| entries.  Given the form, Lucas (binom(a, k)
    mod p depends on a mod p^M only, for k < p^M) and Vandermonde give

        e_k(x g_i) = sum_(j <= k_0) binom(x_0, j) binom(y_0, k_0 - j) E_k''(t'),

    k = (k_0, k''), so the coordinate of e_k o g_i - e_k at the flat index
    j |T| + c is that at c of the row of (k_0 - j, k'') (_suffix_coordinates),
    and zero for j > k_0.  Its weight j + nu'(c) reaches nu'(k) exactly
    when nu'(c) reaches the weight of (k_0 - j, k''), which again lies in
    the sweep.  So every k holds once each row (k, i), one dual transform
    over T, has no coordinate of weight nu'(k) or more.  The rows run
    through dual_to_monomial in batches of p^M, each of the group's order
    at most, and the dense sweep's n |sel| transforms of the group's order
    become as many of order |T|.

    On success the report carries the dimensions this proves, inside the
    quotient by weights above jmax: power_dims[j-1] = dim m^j / m^(jmax+1)
    for j = 1..jmax+1, and graded_dims[j] = dim m^j / m^(j+1) for
    j = 0..jmax.  On failure it carries a witness instead, _WITNESSES
    entries at most: a {generator, relations_rank} for each C outside
    the span of the relations (frattini_witness), then the first
    violations {k, generator, lands_on} in the order k, generator, index
    (e_k composed with z_generator has a coordinate on e_lands_on, which
    is not of lower weight), then a {generator, breaks_at} for each table
    that breaks the broadcast form, breaks_at its first element that does.
    The violations are read off the suffix rows, so beside a broken table
    those of j >= 1 describe its broadcast form.
    """
    if jmax + 1 > alg.pM:
        raise CutoffBeyondFaithful(f"jmax {jmax} reaches the unfaithful range")
    model = alg.model
    pM, nu_w = alg.pM, alg.nu_weight_array
    suffixes = alg.order // pM

    witness = frattini_witness(model)
    perms = [model.right_mul_table(model.generator(i)) for i in range(alg.n)]
    breaks = []
    for i, perm in enumerate(perms):
        y0, rest = np.divmod(perm[:suffixes], suffixes)
        form = np.add.outer(np.arange(pM, dtype=perm.dtype), y0)
        form %= pM
        form *= suffixes
        form += rest
        off = np.flatnonzero(form.ravel() != perm)
        if off.size:
            breaks.append({"generator": i, "breaks_at": model.digits_of(int(off[0]))})

    sel = np.flatnonzero(nu_w <= jmax)
    bad = {}  # (k, generator) -> the row's first violations c
    for i, perm in enumerate(perms):
        for s in range(0, sel.size, pM):
            ks = sel[s:s + pM]
            hit = (_suffix_coordinates(alg, perm, ks) != 0) & (nu_w[:suffixes] >= nu_w[ks][:, None])
            for r in np.flatnonzero(hit.any(axis=1)):
                bad[int(ks[r]), i] = np.flatnonzero(hit[r])[:_WITNESSES].tolist()
    # the violations in the dense sweep's order: k, generator, index j |T| + c
    for k in sel.tolist() if bad else ():
        k0, rest = divmod(k, suffixes)
        for i in range(alg.n):
            for j in range(k0 + 1):
                for c in bad.get(((k0 - j) * suffixes + rest, i), [])[: _WITNESSES - len(witness)]:
                    witness.append({"k": model.digits_of(k), "generator": i,
                                    "lands_on": model.digits_of(j * suffixes + c)})
        if len(witness) >= _WITNESSES:
            break
    witness += breaks[: _WITNESSES - len(witness)]

    if witness:
        return {"ok": False, "jmax": jmax, "witness": witness}
    counts = np.bincount(nu_w[sel], minlength=jmax + 1)
    above = counts[::-1].cumsum()[::-1]  # above[j] = #{k : j <= nu'(k) <= jmax}
    return {"ok": True, "jmax": jmax,
            "power_dims": [int(v) for v in above[1:]] + [0],
            "graded_dims": [int(v) for v in counts]}


@functools.lru_cache(maxsize=CACHED_CONFIGS)
def _algebra(p: int, f: int, M: int, case: str) -> GroupAlgebra:
    return GroupAlgebra(group_model(PrimeConfig(p=p, f=f, M=M, case=case)))


def group_algebra(cfg: PrimeConfig) -> GroupAlgebra:
    return _algebra(cfg.p, cfg.f, cfg.M, cfg.case)
