"""Exact arithmetic in truncated unramified extensions of the p-adic integers.

A ring here is (Z/p^level)[x]/(phi) where phi = gf.irreducible_lift(p, deg),
the fixed monic lift of a primitive polynomial mod p.  Elements are coordinate
tuples (c_0, ..., c_{deg-1}) with entries reduced mod p^level, relative to
the power basis 1, x, ..., x^{deg-1}.  The residue field of the degree-deg
ring is F_{p^deg} in the same polynomial coding, so gf.GF(p, deg) indices and
ring residues agree.

Distinguished elements and maps:

* teichmuller(r): the unique lift of the residue r with t^(p^deg) = t,
  computed as the stable value of repeated p^deg-th powers of any lift.
* hensel_sqrt(u): for u = 1 mod p, the unique square root = 1 mod p,
  by Newton iteration (p odd).
* sigma: on a ring of even degree 2f, the ring automorphism of order two
  lifting x -> x^(p^f) on the residue field; it fixes the degree-f subring
  pointwise.
* the Teichmueller digit basis 1, [a], ..., [a]^(f-1), where a is the
  residue-field generator: every element has unique coordinates over
  Z/p^level in this basis, which is what group-digit extraction uses.

Every inverse is one mod p lifted by Newton's v <- v (2 - e v): of a unit
in inv and inv_array, of the Teichmueller basis matrix in _teich_inverse.

Quaternion elements over the quadratic ring are pairs u = a + b*P with
P^2 = p and P*c = sigma(c)*P; reduced norm nrd(u) = a*sigma(a) - p*b*sigma(b).

The *_array methods run the same arithmetic on whole batches: a ring
element is an array of shape (..., deg) with entries in [0, p^level), and a
quaternion a + b*P one of shape (..., 2, deg).  The arrays have the ring's
dtype: int64 while every array product stays below 2^63, else object, where
numpy computes in Python ints and stays exact at any level.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import prime_factors
from .errors import ConfigError, ConfigMismatch, InputNotUnitOne
from .gf import gf, mat_inverse


class ZqElement:
    __slots__ = ("ring", "vec")

    def __init__(self, ring: "ZqRing", vec: tuple[int, ...]):
        self.ring = ring
        self.vec = vec

    def __add__(self, other):
        r = self.ring
        r._check(other)
        return ZqElement(r, tuple((a + b) % r.modulus for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        r = self.ring
        r._check(other)
        return ZqElement(r, tuple((a - b) % r.modulus for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        r = self.ring
        return ZqElement(r, tuple((-a) % r.modulus for a in self.vec))

    def __mul__(self, other):
        r = self.ring
        if isinstance(other, int):
            return ZqElement(r, tuple((a * other) % r.modulus for a in self.vec))
        r._check(other)
        return ZqElement(r, r._mulvec(self.vec, other.vec))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        r = self.ring
        if e < 0:
            return r.inv(self) ** (-e)
        acc = r.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, ZqElement)
            and self.ring is other.ring
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((id(self.ring), self.vec))

    def __repr__(self):
        return f"Zq{self.vec}@p{self.ring.p}^{self.ring.level}"

    @property
    def residue_index(self) -> int:
        """Index of the reduction mod p in the gf.GF(p, deg) coding."""
        return self.ring.field.index(c % self.ring.p for c in self.vec)

    def vp(self) -> int:
        """p-adic valuation, capped at the ring level for zero."""
        return self.ring.vp(self)


class ZqRing:
    def __init__(self, p: int, deg: int, level: int):
        if prime_factors(p) != [p] or p <= 3:
            raise ConfigError(f"p must be a prime > 3, got {p}")
        if deg < 1 or level < 1:
            raise ConfigError("degree and level must be positive")
        self.p = p
        self.deg = deg
        self.level = level
        self.modulus = p**level
        self.field = gf(p, deg)  # refuses q = p^deg >= 2^15 before the lift search
        self.poly = self.field.poly
        self.zero = ZqElement(self, (0,) * deg)
        self.one = ZqElement(self, (1,) + (0,) * (deg - 1))
        self.x = ZqElement(self, tuple(1 if i == 1 else 0 for i in range(deg))) if deg > 1 else self.one
        self._teich_cache: dict[int, ZqElement] = {}

    def _check(self, other):
        if not isinstance(other, ZqElement) or other.ring is not self:
            raise ConfigMismatch("elements belong to different rings")

    def _mulvec(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, mod, deg, poly = self.p, self.modulus, self.deg, self.poly
        if deg == 1:
            return ((a[0] * b[0]) % mod,)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # reduce by the monic poly
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k] % mod
            if c:
                sh = k - deg
                for i in range(deg):
                    prod[sh + i] -= c * poly[i]
            prod[k] = 0
        return tuple(c % mod for c in prod[:deg])

    def element(self, coords) -> ZqElement:
        vec = tuple(int(c) % self.modulus for c in coords)
        if len(vec) != self.deg:
            raise ConfigError(f"expected {self.deg} coordinates")
        return ZqElement(self, vec)

    def from_int(self, n: int) -> ZqElement:
        return ZqElement(self, (n % self.modulus,) + (0,) * (self.deg - 1))

    def vp(self, e: ZqElement) -> int:
        v = self.level
        for c in e.vec:
            if c:
                w = 0
                while c % self.p == 0:
                    c //= self.p
                    w += 1
                v = min(v, w)
        return v

    def is_unit(self, e: ZqElement) -> bool:
        return e.residue_index != 0

    def inv(self, e: ZqElement) -> ZqElement:
        if not self.is_unit(e):
            raise ZeroDivisionError("element is not a unit")
        # initial inverse from the residue field, then Newton lifting
        r0 = int(self.field.inv[e.residue_index])
        v = self.element(self.field.coords(r0))
        prec = 1
        while prec < self.level:
            v = v * (self.from_int(2) - e * v)
            prec *= 2
        return v

    def teichmuller(self, residue) -> ZqElement:
        """Teichmueller lift of a residue-field element (index or coords)."""
        idx = residue if isinstance(residue, int) else self.field.index(residue)
        if idx in self._teich_cache:
            return self._teich_cache[idx]
        t = self.element(self.field.coords(idx))
        q = self.p**self.deg
        for _ in range(self.level):
            nt = t**q
            if nt == t:
                break
            t = nt
        assert t**q == t
        self._teich_cache[idx] = t
        return t

    def hensel_sqrt(self, u: ZqElement) -> ZqElement:
        """Square root of u that is = 1 mod p; requires u = 1 mod p."""
        self._check(u)
        if u.residue_index != 1:
            raise InputNotUnitOne("hensel_sqrt requires an argument = 1 mod p")
        half = self.inv(self.from_int(2))
        s = self.one
        prec = 1
        while prec < self.level:
            s = (s + u * self.inv(s)) * half
            prec *= 2
        assert s * s == u and s.residue_index == 1
        return s

    @functools.cached_property
    def teich_basis(self) -> list[ZqElement]:
        """Powers 1, [a], ..., [a]^(deg-1) of the Teichmueller lift of the
        residue-field generator; a Z/p^level-basis of the ring."""
        t = self.teichmuller(self.field.gen) if self.deg > 1 else self.one
        basis = [self.one]
        for _ in range(1, self.deg):
            basis.append(basis[-1] * t)
        return basis

    @functools.cached_property
    def _teich_inverse(self) -> np.ndarray:
        """Inverse mod p^level of the matrix A with columns teich_basis: A^-1
        mod p (its residues 1, a, ..., a^(deg-1) are a basis of the residue
        field), lifted by Newton's X <- X (2 - A X) as in inv."""
        a = np.array([b.vec for b in self.teich_basis], dtype=self.dtype).T
        x = mat_inverse(a % self.p, gf(self.p, 1)).astype(self.dtype)
        two = 2 * np.eye(self.deg, dtype=self.dtype)
        prec = 1
        while prec < self.level:
            x = x @ ((two - a @ x) % self.modulus) % self.modulus
            prec *= 2
        return x

    def teich_coords(self, e: ZqElement) -> tuple[int, ...]:
        """Coordinates of e over the Teichmueller power basis."""
        self._check(e)
        return tuple(int(c) for c in self.teich_coords_array(np.array(e.vec, dtype=self.dtype)))

    # -- batched arithmetic on (..., deg) arrays of dtype self.dtype --------

    @functools.cached_property
    def _reduction_rows(self) -> list[tuple[int, ...]]:
        """Row i * deg + j holds the coordinates of x^(i+j) reduced mod phi
        and mod p^level."""
        unit = [tuple(int(k == i) for k in range(self.deg)) for i in range(self.deg)]
        return [self._mulvec(a, b) for a in unit for b in unit]

    @functools.cached_property
    def dtype(self):
        """int64 if no array product can reach 2^63, else object.  The
        largest sums are the mul_array convolution, a column of _reduction
        over products of two coordinates, and the deg-term basis changes
        of teich_coords_array and the Frobenius matrix."""
        weight = max(self.deg, *(sum(col) for col in zip(*self._reduction_rows)))
        return np.int64 if (self.modulus - 1) ** 2 * weight < 2**63 else object

    @functools.cached_property
    def _reduction(self) -> np.ndarray:
        return np.array(self._reduction_rows, dtype=self.dtype)

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of broadcastable (..., deg) arrays: one polynomial
        convolution, reduced mod phi and mod p^level."""
        outer = a[..., :, None] * b[..., None, :]
        return outer.reshape(outer.shape[:-2] + (-1,)) @ self._reduction % self.modulus

    def inv_array(self, a: np.ndarray) -> np.ndarray:
        """Inverses of a (..., deg) array of units: the residue-field inverse,
        then Newton lifting, as in inv."""
        p, mod = self.p, self.modulus
        digits = p ** np.arange(self.deg)
        r0 = self.field.inv[((a % p) @ digits).astype(np.int64, copy=False)].astype(np.int64)
        v = (r0[..., None] // digits % p).astype(self.dtype, copy=False)
        two = np.zeros(self.deg, dtype=self.dtype)
        two[0] = 2
        prec = 1
        while prec < self.level:
            v = self.mul_array(v, (two - self.mul_array(a, v)) % mod)
            prec *= 2
        return v

    def teich_coords_array(self, a: np.ndarray) -> np.ndarray:
        """Coordinates over the Teichmueller power basis of a (..., deg)
        array."""
        if self.deg == 1:
            return a
        return a @ self._teich_inverse.T % self.modulus

    @functools.cached_property
    def sigma(self) -> "FrobeniusMap":
        """Order-two automorphism of the degree-2f ring lifting x -> x^(p^f)."""
        if self.deg % 2:
            raise ConfigError(f"sigma is defined on a ring of even degree, got {self.deg}")
        return FrobeniusMap(self)


class FrobeniusMap:
    """sigma on (Z/p^level)[x]/(phi) of degree 2f: sends the class of x to the
    unique root of phi congruent to x^(p^f) mod p, by Newton refinement."""

    def __init__(self, ring: ZqRing):
        self.ring = ring
        r = ring.x ** (ring.p ** (ring.deg // 2))
        phi = ring.poly
        dphi = tuple(i * phi[i] for i in range(1, len(phi)))

        def ev(coeffs, at):
            acc = ring.zero
            for c in reversed(coeffs):
                acc = acc * at + ring.from_int(c)
            return acc

        for _ in range(ring.level + 1):
            val = ev(phi, r)
            if val == ring.zero:
                break
            r = r - val * ring.inv(ev(dphi, r))
        assert ev(phi, r) == ring.zero
        # matrix columns: coordinates of r^i
        pw = ring.one
        cols = []
        for _ in range(ring.deg):
            cols.append(pw.vec)
            pw = pw * r
        self._cols = cols
        self.matrix = np.array(cols, dtype=ring.dtype)  # sigma(e) = e @ matrix

    def __call__(self, e: ZqElement) -> ZqElement:
        ring = self.ring
        ring._check(e)
        mod = ring.modulus
        out = [0] * ring.deg
        for j, c in enumerate(e.vec):
            if c:
                col = self._cols[j]
                for i in range(ring.deg):
                    out[i] += c * col[i]
        return ZqElement(ring, tuple(v % mod for v in out))


class Quaternion:
    """a + b*P over a quadratic ring, P^2 = p, P c = sigma(c) P."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: "QuatContext", a: ZqElement, b: ZqElement):
        self.ctx = ctx
        self.a = a
        self.b = b

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ConfigMismatch("quaternions belong to different contexts")
        s = ctx.sigma
        a, b, c, d = self.a, self.b, other.a, other.b
        return Quaternion(ctx, a * c + ctx.p_elem * (b * s(d)), a * d + b * s(c))

    def conj(self) -> "Quaternion":
        return Quaternion(self.ctx, self.ctx.sigma(self.a), -self.b)

    def nrd(self) -> ZqElement:
        s = self.ctx.sigma
        return self.a * s(self.a) - self.ctx.p_elem * (self.b * s(self.b))

    def inv(self) -> "Quaternion":
        n = self.ctx.ring.inv(self.nrd())
        c = self.conj()
        return Quaternion(self.ctx, c.a * n, c.b * n)

    def __eq__(self, other):
        return (
            isinstance(other, Quaternion)
            and self.ctx is other.ctx
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((id(self.ctx), self.a.vec, self.b.vec))

    def __repr__(self):
        return f"Quat(a={self.a.vec}, b={self.b.vec})"


class QuatContext:
    """Quadratic ring of degree 2f at a given level plus the order-two
    Frobenius, packaged for quaternion arithmetic."""

    def __init__(self, p: int, f: int, level: int):
        self.p = p
        self.f = f
        self.ring = ZqRing(p, 2 * f, level)
        self.sigma = self.ring.sigma
        self.p_elem = self.ring.from_int(p)
        self.one = Quaternion(self, self.ring.one, self.ring.zero)

    def quat(self, a: ZqElement, b: ZqElement) -> Quaternion:
        return Quaternion(self, a, b)

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Products of broadcastable (..., 2, deg) quaternion arrays."""
        R, S, mod = self.ring, self.sigma.matrix, self.ring.modulus
        a, b, c, d = x[..., 0, :], x[..., 1, :], y[..., 0, :], y[..., 1, :]
        return np.stack([(R.mul_array(a, c) + self.p * R.mul_array(b, d @ S % mod)) % mod,
                         (R.mul_array(a, d) + R.mul_array(b, c @ S % mod)) % mod], axis=-2)

    def conj_array(self, x: np.ndarray) -> np.ndarray:
        """Conjugates sigma(a) - b*P; the inverse of a norm-one quaternion."""
        mod = self.ring.modulus
        return np.stack([x[..., 0, :] @ self.sigma.matrix % mod, -x[..., 1, :] % mod], axis=-2)

    # residue of the fixed-subring generator: the degree-f generator embeds
    # as zeta^(p^f + 1) by norm compatibility of the defining polynomials
    def alpha_residue(self) -> int:
        return self.ring.field.pow(self.ring.field.gen, self.p**self.f + 1)

