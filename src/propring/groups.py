"""Digit-coordinate models of the two truncated 3f-dimensional groups.

Both groups come with an ordered generating family of length 3f,

    indices 0..f-1      "A" generators, valuation 1/2,
    indices f..2f-1     "B" generators, valuation 1/2,
    indices 2f..3f-1    "C" generators, valuation 1,

and every element of the depth-M truncation (the group modulo its subgroup
of p^M-th powers) is an ordered product  prod_i g_i^(x_i)  for a unique
digit vector x in [0, p^M)^(3f).  All group operations run through exact
matrix or quaternion arithmetic at coefficient level p^(M+1): the guard
digit is what makes the top coordinate of every element recoverable, so
multiplication of cosets is computed exactly and no floating or symbolic
approximation appears anywhere.  Group arithmetic has one path: concrete
elements are arrays of shape (batch, parts, deg) in the ring's dtype (int64,
or Python-int objects at levels where int64 products would overflow, see
padic.ZqRing.dtype), and decompose runs
every check on a whole batch at once.  A generator table is one batch
holding the p^(M(n-1)) elements with x_0 = 0 (right_mul_table reads the
rest off the power relation of g_0); a single element is a batch of one,
and mul and the pc relations realize their inputs once, multiply concrete
arrays and decompose once.  The ring and quaternion objects of padic
remain the source of the generator powers.

Case GL2: upper-triangular-unipotent-mod-p matrices over the unramified
degree-f ring, taken modulo the center.  Canonical coset representatives
have determinant exactly 1 (scale by the Hensel square root of the
determinant).  Decomposition is closed-form: g = [[a,b],[c,d]] factors as
U(u) L(w) D(t) with t = d^(-1), u = b t, w = c d; A-digits are the
Teichmueller coordinates of u, B-digits those of w/p, and C-digits come
from peeling t in 1 + pO level by level against the generators 1 + p[a^i].

Case QUAT: norm-one units a + b*P of the quaternion order over the
quadratic ring (P^2 = p, P c = sigma(c) P), modulo the center, with
canonical representatives of reduced norm exactly 1.  Decomposition is by
successive approximation over valuation levels 1/2, 1, 3/2, ..., M: at a
half-integer level the b-part layer is solved in the residue-field basis
{a^i, a^i z}, at an integer level the a-part layer lands in the anti-fixed
line spanned by {a^i eta}, eta = (z - sigma(z))/2, because the norm-one
constraint kills the fixed part.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import CACHED_CONFIGS, PrimeConfig
from .errors import ConfigError, ContractViolation, NotInGroup
from .padic import Quaternion, quat_context, zq_ring

Digits = tuple[int, ...]


def _vp(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class GroupModel:
    """Shared digit machinery; concrete subclasses supply realization and
    decomposition through their coordinate model."""

    def __init__(self, p: int, f: int, M: int):
        self.p = p
        self.f = f
        self.M = M
        self.n = 3 * f
        self.pM = p**M
        self.order = self.pM**self.n
        self.identity: Digits = (0,) * self.n
        # doubled valuations of the generators: 1 for A and B, 2 for C
        self.two_omega = tuple(1 if i < 2 * f else 2 for i in range(self.n))
        self._tables: dict[Digits, np.ndarray] = {}  # pc-generator tables only
        self._pc: tuple | None = None
        self._straight: set[int] = set()  # levels N certified by certify_straightening
        self._normal = False  # set by certify_normal_ideals
        self._strides = tuple(self.pM ** (self.n - 1 - i) for i in range(self.n))

    # -- digit bookkeeping -------------------------------------------------

    def check_digits(self, x) -> Digits:
        t = tuple(int(c) for c in x)
        if len(t) != self.n or any(c < 0 or c >= self.pM for c in t):
            raise NotInGroup(f"digit vector must have {self.n} entries in [0, {self.pM})")
        return t

    def generator(self, i: int, k: int = 0) -> Digits:
        """The digits of g_i, or of the pc generator u_(i,k) = g_i^(p^k)."""
        return tuple(self.p**k if j == i else 0 for j in range(self.n))

    def index_of(self, x: Digits) -> int:
        return sum(c * s for c, s in zip(x, self._strides))

    def digits_of(self, idx: int) -> Digits:
        out = []
        for s in self._strides:
            out.append(idx // s)
            idx %= s
        return tuple(out)

    # -- group operations --------------------------------------------------

    @functools.cached_property
    def _digit_powers(self) -> list[list[list]]:
        """[i][k][d] = g_i^(d p^k) for k < M and d < p, as concrete
        elements: n M p of them, the one source of generator powers."""
        out = []
        for g in self._gens:
            rows = []
            for _ in range(self.M):
                row = [self._one, g]
                for _ in range(2, self.p):
                    row.append(self._mul(row[-1], g))
                rows.append(row)
                g = self._mul(row[-1], g)  # g^p, the base of the next digit
            out.append(rows)
        return out

    @functools.cached_property
    def _gen_power_array(self) -> np.ndarray:
        """g_i^e for e < p^M as one (n, p^M, parts, deg) array, one
        array product per base-p digit of e.  Built for batches of at least
        p^M rows only (the p^(M(n-1)) suffixes of a generator table and the
        decompose levels of that batch), which hold that many already."""
        D = np.array([[[self._key(c) for c in row] for row in rows]
                      for rows in self._digit_powers], dtype=self.dtype)
        out = D[:, 0]
        for k in range(1, self.M):
            # e = d p^k + e_low with d the slower axis, as in the flat order
            out = self._mul_array(D[:, k, :, None], out[:, None])
            out = out.reshape(self.n, -1, *out.shape[3:])
        return out

    def realize(self, x: Digits):
        """The concrete element g_0^(x_0) ... g_(n-1)^(x_(n-1)), each power
        a product over the base-p digits of its exponent."""
        out = self._one
        for rows, e in zip(self._digit_powers, x):
            for row in rows:
                e, d = divmod(e, self.p)
                if d:
                    out = row[d] if out is self._one else self._mul(out, row[d])
        return out

    def realize_array(self, xs) -> np.ndarray:
        """realize on a (batch, n) digit array: a (batch, parts, deg) array.
        A batch of at least p^M rows (the suffixes of a generator table, at
        p^(M(n-1)) rows) gathers each power from the p^M powers of its
        generator; a smaller one is realized row by row from the base-p
        digit powers, so a point query holds no table of p^M powers."""
        if len(xs) >= self.pM:
            xs = np.asarray(xs, dtype=np.int64)
            P = self._gen_power_array
            out = P[0][xs[:, 0]]
            for i in range(1, self.n):
                out = self._mul_array(out, P[i][xs[:, i]])
            return out
        return np.array([self._key(self.realize(x)) for x in xs], dtype=self.dtype)

    def decompose(self, arr: np.ndarray) -> np.ndarray:
        """Digits of a (batch, parts, deg) array of concrete elements, as a
        (batch, n) array.  Every check runs on the whole batch, and the
        first one that some element fails raises NotInGroup."""
        return self._decompose_array(arr)

    def _decompose_one(self, a: np.ndarray) -> Digits:
        """Digits of one (parts, deg) concrete element: a batch of one."""
        return tuple(int(c) for c in self.decompose(a[None])[0])

    def mul(self, x: Digits, y: Digits) -> Digits:
        X, Y = self.realize_array([x, y])
        return self._decompose_one(self._mul_array(X, Y))

    # -- derived structure -------------------------------------------------

    def right_mul_table(self, h: Digits) -> np.ndarray:
        """Permutation of element indices given by right multiplication by
        a pc generator h = u_(i,k) = g_i^(p^k), k < M, memoized.  For k >= 1
        it is the p-th power of the table of u_(i,k-1), composed on indices
        with no group arithmetic.

        For k = 0 only the p^(M(n-1)) suffixes t = g_1^(x_1) ... g_(n-1)^(x_(n-1))
        are realized, multiplied by g_i and decomposed, in one batch, to
        t g_i = g_0^(y_0) g_1^(y_1) ... g_(n-1)^(y_(n-1)).  Every element is
        x = g_0^(x_0) t, and then
            x g_i = g_0^((x_0 + y_0) mod p^M) g_1^(y_1) ... g_(n-1)^(y_(n-1)),
        read off by broadcasting over x_0.  Proof: x g_i = g_0^(x_0) t g_i =
        g_0^(x_0 + y_0) g_1^(y_1) ... g_(n-1)^(y_(n-1)), as g_0 comes first
        in the order and so absorbs y_0.  g_0^(p^M) = 1 in G/G^(p^M) (the
        power relation pc_relations and modules.check_multiplicative rest
        on), so the first exponent may be taken mod p^M; the result is an
        ordered product with digits in [0, p^M), and the ordered form of an
        element is unique, so these are the digits of x g_i."""
        h = self.check_digits(h)
        if h not in self._tables:
            i = next((i for i, c in enumerate(h) if c), 0)
            k = next((k for k in range(self.M) if h == self.generator(i, k)), None)
            if k is None:
                raise ValueError(f"right_mul_table takes a pc generator g_i^(p^k), got {h}")
            if k:
                t = prev = self.right_mul_table(self.generator(i, k - 1))
                for _ in range(self.p - 1):
                    t = prev[t]
            else:
                ts = np.indices((1,) + (self.pM,) * (self.n - 1)).reshape(self.n, -1).T
                ys = self.decompose(self._mul_array(self.realize_array(ts),
                                                    self._gen_power_array[i, 1]))
                head = (np.arange(self.pM)[:, None] + ys[:, 0]) % self.pM * self._strides[0]
                t = (head + ys[:, 1:] @ np.array(self._strides[1:])).astype(np.int32).ravel()
            self._tables[h] = t
        return self._tables[h]

    def index_digits(self, hs: np.ndarray) -> np.ndarray:
        """The base-p digits of the flat indices hs as an (n M, len(hs))
        array of the least unsigned type that holds p - 1: row i M + k is
        digit k of the exponent h_i."""
        out = np.empty((self.n * self.M, len(hs)), dtype=np.min_scalar_type(self.p - 1))
        for i, stride in enumerate(self._strides):
            for k in range(self.M):
                out[i * self.M + k] = hs // (stride * self.p**k) % self.p
        return out

    def right_act(self, xs: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """Indices of the products x h for element indices x = xs[t] and
        the elements h whose base-p digits are the columns digits[:, t]
        (index_digits).  Each digit d of h_i is d <= p - 1 steps through
        the table of the pc generator u_(i,k) = g_i^(p^k); the u_(i,k) of
        one i commute."""
        for row, d in enumerate(digits):
            steps = range(int(d.max(initial=0)))
            table = self.right_mul_table(self.generator(*divmod(row, self.M))) if steps else None
            for s in steps:
                xs = np.where(d > s, table[xs], xs)
        return xs

    def pc_relations(self) -> tuple[tuple[tuple[int, int], tuple[int, int], Digits], ...]:
        """Conjugation relations of a polycyclic presentation from Lazard's
        ordered basis, memoized.  The pc generators are u_(i,k) = g_i^(p^k),
        k < M, ordered by (omega(g_i) + k, i, k).  The entry ((i, k), (j, l),
        W) for u_a = u_(i,k) before u_b = u_(j,l) reads u_b u_a = u_a u_b W,
        and every letter of W (each (i', k') whose base-p digit k' of W_i' is
        nonzero) comes after u_b; a W that breaks this order raises
        ContractViolation naming the pair."""
        if self._pc is None:
            p, M = self.p, self.M
            gens = sorted(((i, k) for i in range(self.n) for k in range(M)),
                          key=lambda g: (self.two_omega[g[0]] + 2 * g[1], g))
            # one array pass: realize every u, both products of every pair,
            # one inverse and one decompose
            U = self.realize_array([self.generator(i, k) for i, k in gens])
            ra, rb = np.triu_indices(len(gens), 1)
            W = self.decompose(self._mul_array(
                self._inv_array(self._mul_array(U[ra], U[rb])), self._mul_array(U[rb], U[ra])))
            rels = []
            for r, s, w in zip(ra, rb, W):
                a, b, w = gens[r], gens[s], tuple(int(c) for c in w)
                letters = {(i, k) for i, c in enumerate(w) for k in range(M) if c // p**k % p}
                if not letters <= set(gens[s + 1:]):
                    raise ContractViolation(f"pc condition fails for {a}, {b}: W = {list(w)}",
                                            witness={"a": a, "b": b, "w": w})
                rels.append((a, b, w))
            self._pc = tuple(rels)
        return self._pc

    def certify_straightening(self, N: int) -> None:
        """Certify, memoized per level N, the straightening condition that
        modules.grade (its "res" grading) rests on: for each pair s < t of
        u_t = g_t^(p^N), the pc relation W = (u_s u_t)^(-1) u_t u_s (u_(s,N)
        comes first, as two_omega never decreases) has every digit d_i
        divisible by p^N and subring weight min_i w_i p^(v_p(d_i) - N) above
        w_s + w_t, w = two_omega.  Raises ContractViolation naming the pair."""
        if N in self._straight:
            return
        q, w = self.p**N, self.two_omega
        rels = {(a, b): x for a, b, x in self.pc_relations()}
        for s in range(self.n):
            for t in range(s + 1, self.n):
                x = rels[(s, N), (t, N)]
                if any(d % q for d in x) or any(
                        w[i] * self.p ** (_vp(d, self.p, self.M) - N) <= w[s] + w[t]
                        for i, d in enumerate(x) if d):
                    raise ContractViolation(
                        f"u_{s}, u_{t} at N = {N} do not straighten: W = {list(x)}",
                        witness={"s": s, "t": t, "N": N, "w": x})
        self._straight.add(N)

    def bracket_terms(self, x: Digits, y: Digits, w: int) -> dict[Digits, int]:
        """The monomial coefficients at weight nu'(k) <= w of [x y] - [y x]
        in F_p[G], as {k: nonzero coefficient mod p}, from two point
        products and one decompose: no table and no dense vector.  By
        Lucas' theorem the coefficient of z^k in [g] is prod_i binom(g_i,
        k_i) mod p, nonzero exactly on the base-p down-set of the digits of
        g, which is where the two products are read.

        For x = g_s^q, y = g_t^r and q, r powers of p, (g - 1)^q = g^q - 1
        in characteristic p, so z_s^q z_t^r - z_t^r z_s^q = [x y] - [y x]
        exactly.  It lies in m^(q w_s + r w_t), w = two_omega, and its part
        at that weight is the graded commutator of the two classes."""
        X, Y = self.realize_array([self.check_digits(x), self.check_digits(y)])
        out: dict[Digits, int] = {}
        for g, sign in zip(self.decompose(np.stack([self._mul_array(X, Y),
                                                    self._mul_array(Y, X)])), (1, -1)):
            terms = [((), sign, 0)]  # (prefix of k, coefficient, weight)
            for gi, wi in zip(g.tolist(), self.two_omega):
                col = [(k, c) for k in range(min(gi, w // wi) + 1) if (c := math.comb(gi, k) % self.p)]
                terms = [(pre + (k,), cf * c, wt + wi * k)
                         for pre, cf, wt in terms for k, c in col if wt + wi * k <= w]
            for k, c, _ in terms:
                out[k] = (out.get(k, 0) + c) % self.p
        return {k: c for k, c in out.items() if c}

    def certify_normal_ideals(self) -> None:
        """Certify, memoized, that every ideal the module layer can express
        is normal in the graded ring gr of F_p[G], so that its annihilator
        search needs no closure under the ring: for each generator pair
        s < t, [z_s, z_t] (bracket_terms) vanishes below weight w_s + w_t,
        and at that weight lies on the z_c for two degree-one generators
        and vanishes when either is a C.  Raises ContractViolation naming
        the pair.

        Proof.  gr is generated by the classes a_i, b_i, c_i of the z_i,
        so the checks make c central and gr/(c) commutative.  As an IdealSpec
        generator f is a polynomial in the a_i, b_i, x f lies in
        f gr + sum_k c_k gr for every x in gr.  For the p^N-twist, each
        bracket of generators is central, so [x, y^p] = p y^(p-1) [x, y] = 0:
        a_i^p and b_i^p, hence their p^(N-1)-th powers, are central, and so
        is every twisted generator and every c_k^(p^N).  Hence sum_f f S is
        gr-stable whenever S is (f over the ideal's generators, the implicit
        c-part included): x f S lies in f S + sum_k c_k S.  By induction,
        J^ell applied to gr M is gr-stable, and the closure adds nothing."""
        if self._normal:
            return
        f, w = self.f, self.two_omega
        for s in range(self.n):
            for t in range(s + 1, self.n):
                terms = self.bracket_terms(self.generator(s), self.generator(t), w[s] + w[t])
                on_c = ({self.generator(2 * f + i) for i in range(f)}
                        if w[s] + w[t] == 2 else set())
                bad = {k: c for k, c in terms.items() if k not in on_c}
                if bad:
                    raise ContractViolation(
                        f"[z_{s}, z_{t}] has terms off the central line: {bad}",
                        witness={"s": s, "t": t, "terms": bad})
        self._normal = True

    # -- to be provided per case: _one and _gens (concrete identity and
    # generators), dtype (the ring's array dtype), and the methods below ---

    def _decompose_array(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inv_array(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _key(self, concrete):
        """The coordinate tuples of a concrete element, parts by deg."""
        raise NotImplementedError


class GL2Model(GroupModel):
    def __init__(self, p: int, f: int, M: int):
        super().__init__(p, f, M)
        self.ring = zq_ring(p, f, M + 1)
        R = self.ring
        self.dtype = R.dtype
        tb = R.teich_basis
        tdiag = [R.one + p * t for t in tb]  # 1 + p[a^i]
        self._tdiag_inv = [R.inv(t) for t in tdiag]
        self._one = (R.one, R.zero, R.zero, R.one)
        # U([a^i]), L(p[a^i]) and D(1 + p[a^i]) = diag(t, t^-1)
        self._gens = ([(R.one, t, R.zero, R.one) for t in tb]
                      + [(R.one, R.zero, p * t, R.one) for t in tb]
                      + [(t, R.zero, R.zero, ti) for t, ti in zip(tdiag, self._tdiag_inv)])

    # concrete elements are 4-tuples (a, b, c, d) of ring elements, det 1;
    # arrays have shape (..., 4, f)

    def _key(self, m):
        return (m[0].vec, m[1].vec, m[2].vec, m[3].vec)

    def _mul(self, m, n):
        a, b, c, d = m
        e, f_, g, h = n
        return (a * e + b * g, a * f_ + b * h, c * e + d * g, c * f_ + d * h)

    def _mul_array(self, m, n):
        R, mod = self.ring, self.ring.modulus
        a, b, c, d = (m[..., j, :] for j in range(4))
        e, f_, g, h = (n[..., j, :] for j in range(4))
        return np.stack([R.mul_array(a, e) + R.mul_array(b, g),
                         R.mul_array(a, f_) + R.mul_array(b, h),
                         R.mul_array(c, e) + R.mul_array(d, g),
                         R.mul_array(c, f_) + R.mul_array(d, h)], axis=-2) % mod

    def _inv_array(self, m):
        """Inverses by the adjugate (d, -b, -c, a): every element has det 1."""
        return m[..., [3, 1, 2, 0], :] * np.array([1, -1, -1, 1])[:, None] % self.ring.modulus

    @functools.cached_property
    def _peel_array(self) -> np.ndarray:
        """(f, M, p, f): entry [i, k-1, delta] is (1 + p[a^i])^(-delta p^(k-1))."""
        p = self.p
        return np.array([[[(t ** (delta * p ** (k - 1))).vec for delta in range(p)]
                          for k in range(1, self.M + 1)] for t in self._tdiag_inv],
                        dtype=self.dtype)

    def _decompose_array(self, m):
        """decompose on a (batch, 4, f) array."""
        R = self.ring
        p, f, M, mod = self.p, self.f, self.M, self.ring.modulus
        b, c, d = m[:, 1], m[:, 2], m[:, 3]
        if not (d % p).any(axis=1).all():
            raise NotInGroup("lower-right entry must be a unit")
        t = R.inv_array(d)
        digits = np.zeros((len(m), self.n), dtype=self.dtype)
        digits[:, :f] = R.teich_coords_array(R.mul_array(b, t)) % self.pM
        cw = R.teich_coords_array(R.mul_array(c, d))
        if (cw % p).any():
            raise NotInGroup("lower-left entry must vanish mod p")
        digits[:, f:2 * f] = cw // p % self.pM
        one = np.array(R.one.vec)
        cur = t
        for k in range(1, M + 1):
            pk = p**k
            dev = R.teich_coords_array((cur - one) % mod)
            if (dev % pk).any():
                raise NotInGroup("diagonal part must be congruent to 1 mod p")
            delta = dev // pk % p
            digits[:, 2 * f:] += delta * p ** (k - 1)
            delta = delta.astype(np.int64, copy=False)
            for i in range(f):
                cur = R.mul_array(cur, self._peel_array[i, k - 1][delta[:, i]])
        if (cur != one).any():
            raise NotInGroup("diagonal peeling did not terminate")
        return digits

    def normalize(self, entries) -> Digits:
        """Digits of a user-supplied matrix [[a,b],[c,d]]: validates the
        congruence pattern, scales to determinant 1, decomposes."""
        R = self.ring
        elems = []
        for e in entries:
            elems.append(R.element(e) if not isinstance(e, int) else R.from_int(e))
        a, b, c, d = elems
        if (a - R.one).vp() < 1 or (d - R.one).vp() < 1 or c.vp() < 1:
            raise NotInGroup("matrix is not in the pro-p Iwahori pattern")
        det = a * d - b * c
        s = R.inv(R.hensel_sqrt(det))
        m = np.array(self._key((a * s, b * s, c * s, d * s)), dtype=self.dtype)
        return self._decompose_one(m)


class QuatModel(GroupModel):
    def __init__(self, p: int, f: int, M: int):
        super().__init__(p, f, M)
        self.ctx = quat_context(p, f, M + 1)
        R = self.ctx.ring
        self.dtype = R.dtype
        F = R.field
        alpha = self.ctx.alpha_residue()
        at = [R.teichmuller(F.pow(alpha, i)) for i in range(f)]
        zt = R.teichmuller(F.gen)
        quat = self.ctx.quat
        self._one = self.ctx.one
        self._gens = ([self._norm_one(quat(R.one, t)) for t in at]
                      + [self._norm_one(quat(R.one, t * zt)) for t in at]
                      + [self._norm_one(quat(R.one + p * (t * zt), R.zero)) for t in at])
        # residue-field solves for the two layer types, columns off ring residues
        eta = (zt - self.ctx.sigma(zt)) * R.inv(R.from_int(2))
        self._half_sol = self._solve_table([F.coords(t.residue_index) for t in at]
                                           + [F.coords((t * zt).residue_index) for t in at])
        self._int_sol = self._solve_table([F.coords((t * eta).residue_index) for t in at])

    def _solve_table(self, cols) -> np.ndarray:
        """Row r: the coefficients s in F_p^k with sum_j s_j cols_j equal to
        the residue of index r in F_q, or -1s where r is outside the span."""
        F = self.ctx.ring.field
        p, k = self.p, len(cols)
        sols = np.indices((p,) * k).reshape(k, -1).T
        image = sols @ np.array(cols, dtype=np.int64) % p @ p ** np.arange(F.f)
        table = np.full((F.q, k), -1, dtype=self.dtype)
        table[image] = sols
        if not np.array_equal(table[image], sols):  # two sols share a residue
            raise ValueError("columns are linearly dependent")
        return table

    def _norm_one(self, q: Quaternion) -> Quaternion:
        R = self.ctx.ring
        s = R.inv(R.hensel_sqrt(q.nrd()))
        return self.ctx.quat(q.a * s, q.b * s)

    # concrete elements are norm-one quaternions, whose inverse is the
    # conjugate; arrays have shape (..., 2, 2f)

    def _key(self, q):
        return (q.a.vec, q.b.vec)

    def _mul(self, a, b):
        return a * b

    def _mul_array(self, a, b):
        return self.ctx.mul_array(a, b)

    def _inv_array(self, a):
        return self.ctx.conj_array(a)

    def _decompose_array(self, qs):
        """decompose on a (batch, 2, 2f) array."""
        ctx = self.ctx
        p, f, M, mod = self.p, self.f, self.M, ctx.ring.modulus
        one = np.array(ctx.ring.one.vec)
        index = p ** np.arange(2 * f)  # residue coordinates -> F_q index
        if ((qs[:, 0] - one) % p).any():
            raise NotInGroup("scalar part must be congruent to 1 mod p")
        digits = np.zeros((len(qs), self.n), dtype=self.dtype)
        for step in range(1, 2 * M + 1):
            d = ctx.mul_array(ctx.conj_array(self.realize_array(digits)), qs)
            k = step // 2
            pk = p**k
            if step % 2 == 1:
                vec = d[:, 1]
                if (vec % pk).any():
                    raise NotInGroup("b-part layer appeared below its level")
                digits[:, :2 * f] += self._half_sol[(vec // pk % p @ index).astype(np.int64)] * pk
            else:
                vec = (d[:, 0] - one) % mod
                if (vec % pk).any():
                    raise NotInGroup("a-part layer appeared below its level")
                sol = self._int_sol[(vec // pk % p @ index).astype(np.int64)]
                if (sol < 0).any():
                    raise NotInGroup("a-part layer is not anti-fixed")
                digits[:, 2 * f:] += sol * p ** (k - 1)
        d = ctx.mul_array(ctx.conj_array(self.realize_array(digits)), qs)
        if (d[:, 0] != one).any() or (d[:, 1] % p**M).any():
            raise NotInGroup("digit extraction did not terminate")
        return digits

    def normalize(self, a_coords, b_coords) -> Digits:
        """Digits of a user-supplied unit a + b*P: validates the unit-one
        pattern, scales to reduced norm 1, decomposes."""
        R = self.ctx.ring
        q = self.ctx.quat(R.element(a_coords), R.element(b_coords))
        if (q.a - R.one).vp() < 1:
            raise NotInGroup("scalar part must be congruent to 1 mod p")
        return self._decompose_one(np.array(self._key(self._norm_one(q)), dtype=self.dtype))


def quaternion_commutator_congruence(p: int, f: int, level: int = 3) -> dict:
    """The commutator of 1 + [zeta]Pi against 1 + gamma Pi equals
    1 + gamma([zeta] - [zeta^(p^f)]) p modulo p Pi O_D, for gamma running
    over all Teichmueller representatives of the residue field of the
    unramified part.

    gamma runs over a full set of representatives of O_K/p^2, where O_K is
    the base ring fixed by the conjugation: Teichmueller lifts of the fixed
    subfield at both digits (p^(2f) values; 25 for f = 1).

    Membership in p Pi O_D means: scalar part divisible by p^2, Pi-part
    divisible by p.  The commutator convention (which of the two bracket
    orders) is not pinned a priori; both are tried on a nonzero sample and
    the matching one is used throughout, recorded in the report.

    The level is the p-adic precision; below 2 it is too coarse to test
    membership in p Pi O_D, so the congruence would read as violated, and
    ConfigError is raised instead."""
    if level < 2:
        raise ConfigError(f"level must be at least 2 to test the congruence, got {level}")
    ctx = quat_context(p, f, level)
    R = ctx.ring
    F = R.field
    sig_idx = F.frob.copy()
    for _ in range(f - 1):
        sig_idx = F.frob[sig_idx]
    fixed = [i for i in range(F.q) if sig_idx[i] == i]
    assert len(fixed) == p**f
    zt = R.teichmuller(F.gen)
    u = ctx.quat(R.one, zt)
    coeff = (zt - ctx.sigma(zt)) * ctx.p_elem

    def bracket(v, order):
        return u.inv() * v.inv() * u * v if order == 0 else u * v * u.inv() * v.inv()

    def holds(g, order):
        v = ctx.quat(R.one, g)
        d = bracket(v, order)
        rhs_a = R.one + g * coeff
        return (d.a - rhs_a).vp() >= 2 and d.b.vp() >= 1

    order = 0 if holds(R.one, 0) else 1
    checked = 0
    failures = []
    for r0 in fixed:
        for r1 in fixed:
            g = R.teichmuller(r0) + R.teichmuller(r1) * R.from_int(p)
            if not holds(g, order):
                failures.append((r0, r1))
            checked += 1
    return {
        "p": p, "f": f, "level": level,
        "convention": "inverse-first" if order == 0 else "direct-first",
        "gammas_checked": checked, "failures": failures[:10], "ok": not failures,
    }


@functools.lru_cache(maxsize=CACHED_CONFIGS)
def _model(p: int, f: int, M: int, case: str) -> GroupModel:
    if case == "GL2":
        return GL2Model(p, f, M)
    if case == "QUAT":
        return QuatModel(p, f, M)
    raise ConfigError(f"unknown case {case!r}")


def group_model(cfg: PrimeConfig) -> GroupModel:
    return _model(cfg.p, cfg.f, cfg.M, cfg.case)
