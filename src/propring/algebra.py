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
test_pascal_pair_inverse).

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
exhibited group witnesses C_i = [x,y] w^p which place every z^k inside
m^(nu'(k)).
Truncation is faithful for nu below p^M: the kernel of the projection from
the full completed ring is spanned by monomials with some k_i >= p^M, all
of weight at least p^M.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .config import PrimeConfig
from .errors import CutoffBeyondFaithful
from .gf import rref  # noqa: F401  bench/test_bench.py reaches rref through this module
from .groups import Digits, GroupModel, group_model


# support pairs per accumulation step of GroupAlgebra.mul; bounds its
# transient memory to a few tens of MB
_PAIR_CHUNK = 1 << 18
# witness entries a failed certificate reports
_WITNESSES = 10


def _pascal_pair(p: int) -> tuple[np.ndarray, np.ndarray]:
    """P[x, k] = binom(x, k) mod p for x, k < p, and its inverse
    Q[x, k] = (-1)^(x-k) binom(x, k) mod p."""
    P = np.array([[math.comb(x, k) % p for k in range(p)] for x in range(p)], dtype=np.int64)
    sign = (-1) ** np.add.outer(np.arange(p), np.arange(p))
    return P, sign * P % p


class GroupAlgebra:
    def __init__(self, model: GroupModel):
        self.model = model
        self.p = model.p
        self.n = model.n
        self.pM = model.pM
        self.order = model.order
        self.nu_weights = tuple(model.two_omega)
        self._pair = _pascal_pair(self.p)  # (P, Q), applied per base-p digit
        # P[x, k] = binom(x, k) and its inverse for x, k < p^M, the row
        # tables of monomial and binomial_expansion (Lucas' theorem)
        self._P, self._Q = (
            (functools.reduce(np.kron, [m] * model.M) % self.p).astype(np.int16)
            for m in self._pair
        )
        self._nu_w: np.ndarray | None = None

    # -- dense vectors -------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.order, dtype=np.int16)

    def of_group(self, x: Digits) -> np.ndarray:
        a = self.zero()
        a[self.model.index_of(self.model.check_digits(x))] = 1
        return a

    def of_dict(self, terms: dict[Digits, int]) -> np.ndarray:
        a = self.zero()
        for x, c in terms.items():
            a[self.model.index_of(self.model.check_digits(x))] = (
                a[self.model.index_of(self.model.check_digits(x))] + c
            ) % self.p
        return a

    def to_dict(self, a: np.ndarray) -> dict[Digits, int]:
        out = {}
        for idx in np.nonzero(a)[0]:
            out[self.model.digits_of(int(idx))] = int(a[idx])
        return out

    # -- multiplication ------------------------------------------------------

    def zmul(self, a: np.ndarray, i: int, e: int = 1) -> np.ndarray:
        """Right multiplication by (g_i - 1)^e."""
        perm = self.model.right_mul_table(self.model.generator(i))
        for _ in range(e):
            b = np.empty_like(a)
            b[perm] = a
            a = (b - a) % self.p
        return a

    def word_mul(self, a: np.ndarray, word) -> np.ndarray:
        """Right multiplication by an ordered word of (i, e) z-chunks."""
        for i, e in word:
            a = self.zmul(a, i, e)
        return a

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """General product, summed over the support pairs (x, h) of a and b:
        the index of x h takes n gathers into the power tables, and the
        coefficients a[x] b[h] are accumulated _PAIR_CHUNK pairs at a time."""
        xs = np.flatnonzero(a)
        hs = np.flatnonzero(b)
        out = np.zeros(self.order, dtype=np.int64)
        pairs = xs.size * hs.size
        powers = self.model.power_tables().reshape(self.n, -1)
        hdig = np.stack(np.unravel_index(hs, (self.pM,) * self.n)) * self.order
        av = a[xs].astype(np.float64)
        bv = b[hs].astype(np.float64)
        for start in range(0, pairs, _PAIR_CHUNK):
            t = np.arange(start, min(start + _PAIR_CHUNK, pairs))
            xi, hi = np.divmod(t, hs.size)
            idx = xs[xi]
            for i in range(self.n):
                idx = powers[i][hdig[i, hi] + idx]
            # exact: each bin sums at most _PAIR_CHUNK (p-1)^2 < 2^53
            acc = np.bincount(idx, weights=av[xi] * bv[hi], minlength=self.order)
            out = (out + acc.astype(np.int64)) % self.p
        return out.astype(np.int16)

    def monomial(self, k: Digits) -> np.ndarray:
        """Dense vector of z^k, a fresh array: its group coordinates are the
        tensor product of the rows Q[k_i, .] of the inverse binomial matrix."""
        k = self.model.check_digits(k)
        m = self._Q[k[0]]
        for ki in k[1:]:
            m = np.multiply.outer(m, self._Q[ki]) % self.p
        return m.ravel()

    def monomial_columns(self, ks: np.ndarray, rows: np.ndarray, op) -> np.ndarray:
        """Matrix whose column t holds the monomial coordinates, at the flat
        indices rows, of op(z^k) for the flat index k = ks[t]."""
        out = np.zeros((rows.size, ks.size), dtype=np.int16)
        for t, k in enumerate(ks):
            mono = self.monomial(self.model.digits_of(int(k)))
            out[:, t] = self.to_monomial(op(mono))[rows]
        return out

    # -- basis transforms ----------------------------------------------------

    def _digit_apply(self, mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
        """Contract the p x p matrix mat[k, x] against each of the nM base-p
        digit axes of arr (most significant first, the flat C order); arr
        may carry one leading batch axis."""
        a = arr.astype(np.int64)
        axes = self.n * self.model.M
        for j in range(axes):
            a = mat @ a.reshape(-1, self.p, self.p ** (axes - 1 - j)) % self.p
        return a.astype(np.int16).reshape(arr.shape)

    def to_monomial(self, a: np.ndarray) -> np.ndarray:
        """Coefficients over the z^k basis, same flat index layout."""
        return self._digit_apply(self._pair[0].T, a)

    def from_monomial(self, c: np.ndarray) -> np.ndarray:
        return self._digit_apply(self._pair[1].T, c)

    def dual_to_monomial(self, phi: np.ndarray) -> np.ndarray:
        """Coordinates of a functional (values on the group basis) over the
        coefficient functionals e_k."""
        return self._digit_apply(self._pair[1], phi)

    # -- expansion without dense arrays --------------------------------------

    def binomial_expansion(self, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """E[s, t] = prod_i binom(x_i, k_i) mod p for the flat indices
        x = xs[s] and k = ks[t]: row s holds the monomial coordinates of the
        group element x at the monomials ks."""
        shape = (self.pM,) * self.n
        out = np.ones((len(xs), len(ks)), dtype=np.int16)
        for xd, kd in zip(np.unravel_index(xs, shape), np.unravel_index(ks, shape)):
            out *= self._P[xd[:, None], kd[None, :]]
            out %= self.p
        return out

    def expand_group_sparse(self, x: Digits) -> dict[Digits, int]:
        """Monomial expansion of a single group element by the closed form,
        with math.comb; works at any size since no full-space array is
        involved."""
        x = self.model.check_digits(x)
        per_axis = [
            [(k, c) for k in range(xi + 1) if (c := math.comb(xi, k) % self.p)]
            for xi in x
        ]
        out = {}
        for combo in itertools.product(*per_axis):
            out[tuple(k for k, _ in combo)] = math.prod(c for _, c in combo) % self.p
        return out

    # -- weights and nu --------------------------------------------------------

    def nu_prime(self, k) -> int:
        return sum(w * int(c) for w, c in zip(self.nu_weights, k))

    @property
    def nu_weight_array(self) -> np.ndarray:
        if self._nu_w is None:
            w = np.zeros(1, dtype=np.int32)
            for wi in self.nu_weights:
                w = np.add.outer(w, wi * np.arange(self.pM, dtype=np.int32)).ravel()
            self._nu_w = w
        return self._nu_w

    def nu(self, a: np.ndarray) -> int | None:
        """min nu' over the monomial support; None for zero."""
        c = self.to_monomial(a)
        hit = np.nonzero(c)[0]
        if hit.size == 0:
            return None
        return int(self.nu_weight_array[hit].min())

    def nu_faithful(self, a: np.ndarray) -> int:
        """nu with the guarantee that it agrees with the untruncated ring;
        beyond p^M the truncation cannot certify the value."""
        v = self.nu(a)
        if v is None or v >= self.pM:
            raise CutoffBeyondFaithful(
                f"nu is at least {self.pM}, beyond the faithful range of depth M={self.model.M}"
            )
        return v

    def in_filtration(self, a: np.ndarray, j: int) -> bool:
        """Membership in span{z^k : nu'(k) >= j} (= m^j once certified)."""
        c = self.to_monomial(a)
        return not c[self.nu_weight_array < j].any()


def check_maximal_ideal_powers(alg: GroupAlgebra, jmax: int) -> dict:
    """Certify m^j = span{z^k : nu'(k) >= j} for 0 <= j <= jmax + 1.

    Two halves, neither assuming the conclusion:

    * Dual induction.  ann(m^j) in the dual is spanned by the coefficient
      functionals e_k with nu'(k) < j.  Since the augmentation ideal is
      generated by the z_i on either side, m^(j+1) = sum_i m^j z_i, so the
      step needs exactly: e_k composed with right multiplication by z_i
      lies in span{e_k' : nu'(k') < nu'(k)}.  That membership is what the
      sweep below verifies for every k with nu'(k) <= jmax, reading the
      composed functional off the right-multiplication permutation and
      taking its coordinates over the e_k'.
    * Dimension count.  The inclusion above caps dim ann(m^j); equality
      needs dim m^j >= #{nu' >= j}, which follows once z_i lies in m^(w_i).
      Weight one is the definition of m; weight two is certified by the
      group identity C_i = [x, y] w^p (checked exactly), because
      [x,y] - 1 = x^(-1)y^(-1)((x-1)(y-1) - (y-1)(x-1)) lands in m^2 and
      w^p - 1 = (w - 1)^p in characteristic p.

    On success the report carries the dimensions this proves, inside the
    quotient by weights above jmax: power_dims[j-1] = dim m^j / m^(jmax+1)
    for j = 1..jmax+1, and graded_dims[j] = dim m^j / m^(j+1) for
    j = 0..jmax.  On failure it carries a witness instead: the failing
    central identities and the first violations {k, generator, lands_on}
    (e_k composed with z_generator has a coordinate on e_lands_on, which is
    not of lower weight), _WITNESSES entries at most.
    """
    if jmax + 1 > alg.pM:
        raise CutoffBeyondFaithful(f"jmax {jmax} reaches the unfaithful range")
    model = alg.model
    p, nu_w = alg.p, alg.nu_weight_array

    witness = []
    for i in range(model.f):
        x, y, w = model.central_witness(i)
        gen = 2 * model.f + i
        if model.mul(model.commutator(x, y), model.power(w, p)) != model.generator(gen):
            witness.append({"generator": gen, "x": x, "y": y, "w": w})

    # one functional at a time: batching rows measured no faster, and its
    # int64 transients raise the peak memory by about 0.5 MB per row
    perms = [model.right_mul_table(model.generator(i)) for i in range(alg.n)]
    group = np.arange(alg.order)
    sel = np.flatnonzero(nu_w <= jmax)
    for k in sel:
        e_k = alg.binomial_expansion(group, k[None])[:, 0]  # values on the group basis
        for i, perm in enumerate(perms):
            coords = alg.dual_to_monomial((e_k[perm] - e_k) % p)
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


@functools.lru_cache(maxsize=None)
def _algebra(p: int, f: int, M: int, case: str) -> GroupAlgebra:
    return GroupAlgebra(group_model(PrimeConfig(p=p, f=f, M=M, case=case)))


def group_algebra(cfg: PrimeConfig) -> GroupAlgebra:
    return _algebra(cfg.p, cfg.f, cfg.M, cfg.case)
