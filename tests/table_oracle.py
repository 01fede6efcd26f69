"""The scalar group arithmetic: the test oracle for GroupModel's array path.

decompose here is the single-element decomposition over the ring and
quaternion objects of padic (ZqElement 4-tuples for GL2, Quaternion for
QUAT).  It makes the checks of the batched GroupModel.decompose in the
same order and raises the same NotInGroup messages, one element at a time
and with no array code.  mul, inv, power, commutator and pth_root compose
it with the scalar products of realize, decomposing after every group
operation; the model realizes each input once and decomposes once, and has
mul alone of these.  two_omega_of is the doubled valuation of an element.

central_witness is the explicit form of algebra.frattini_witness: an
identity C_i = [x, y] w^p, found by a commutator of a fixed pair and the
p-th root of the residual, which places C_i in the Frattini subgroup.

scalar_rows builds generator table rows one concrete element at a time,
where the model decomposes the products of the p^(M(n-1)) suffixes with
x_0 = 0 and reads the rest off the power relation of g_0; the two share only
the generator digit powers.  One QUAT row costs about 0.4 ms, so full tables
are for small configurations such as (5, 1, 1).  whole_group_table is the
reference for the suffix construction: it realizes, multiplies and
decomposes every element of the group in one array pass."""

import numpy as np

from propring.errors import NotInGroup
from propring.groups import QuatModel, _vp


class NonConvergent(Exception):
    """pth_root or central_witness found no root at this depth."""


def decompose_gl2(model, m):
    R = model.ring
    p, f, M = model.p, model.f, model.M
    a, b, c, d = m
    if not R.is_unit(d):
        raise NotInGroup("lower-right entry must be a unit")
    t = R.inv(d)
    u = b * t
    w = c * d
    digits = [0] * model.n
    for i, cu in enumerate(R.teich_coords(u)):
        digits[i] = cu % model.pM
    for i, cw in enumerate(R.teich_coords(w)):
        if cw % p:
            raise NotInGroup("lower-left entry must vanish mod p")
        digits[f + i] = (cw // p) % model.pM
    # peel the diagonal part t in 1 + pO against 1 + p[a^i]
    cur = t
    for k in range(1, M + 1):
        pk = p**k
        dev = R.teich_coords(cur - R.one)
        for i in range(f):
            if dev[i] % pk:
                raise NotInGroup("diagonal part must be congruent to 1 mod p")
            delta = (dev[i] // pk) % p
            if delta:
                digits[2 * f + i] += delta * p ** (k - 1)
                cur = cur * model._tdiag_inv[i] ** (delta * p ** (k - 1))
    if cur != R.one:
        raise NotInGroup("diagonal peeling did not terminate")
    return tuple(digits)


def decompose_quat(model, q):
    R = model.ctx.ring
    F = R.field
    p, f, M = model.p, model.f, model.M
    if (q.a - R.one).vp() < 1:
        raise NotInGroup("scalar part must be congruent to 1 mod p")
    digits = [0] * model.n
    for step in range(1, 2 * M + 1):
        d = model.realize(digits).conj() * q
        k = step // 2
        pk = p**k
        if step % 2 == 1:  # level k + 1/2: b-part layer at depth k
            vec = d.b.vec
            if any(c % pk for c in vec):
                raise NotInGroup("b-part layer appeared below its level")
            beta = F.index((c // pk) % p for c in vec)
            if beta:
                for i, s in enumerate(model._half_sol[beta]):  # A then B digits
                    digits[i] += int(s) * pk
        else:  # level k: a-part layer at depth k, anti-fixed
            vec = (d.a - R.one).vec
            if any(c % pk for c in vec):
                raise NotInGroup("a-part layer appeared below its level")
            gamma = F.index((c // pk) % p for c in vec)
            if gamma:
                sol = model._int_sol[gamma]
                if sol[0] < 0:
                    raise NotInGroup("a-part layer is not anti-fixed")
                for i in range(f):
                    digits[2 * f + i] += int(sol[i]) * p ** (k - 1)
    d = model.realize(digits).conj() * q
    if d.a != R.one or d.b.vp() < M:
        raise NotInGroup("digit extraction did not terminate")
    return tuple(digits)


def decompose(model, concrete):
    if isinstance(model, QuatModel):
        return decompose_quat(model, concrete)
    return decompose_gl2(model, concrete)


def concrete_inv(model, c):
    """The inverse of a concrete element: det 1 and reduced norm 1."""
    if isinstance(model, QuatModel):
        return c.conj()
    a, b, c_, d = c
    return (d, -b, -c_, a)


def mul(model, x, y):
    return decompose(model, model._mul(model.realize(x), model.realize(y)))


def inv(model, x):
    return decompose(model, concrete_inv(model, model.realize(x)))


def power(model, x, e):
    if e < 0:
        return power(model, inv(model, x), -e)
    acc, base = model.identity, x
    while e:
        if e & 1:
            acc = mul(model, acc, base)
        base = mul(model, base, base)
        e >>= 1
    return acc


def commutator(model, x, y):
    return mul(model, mul(model, inv(model, x), inv(model, y)), mul(model, x, y))


def pth_root(model, x):
    y = model.identity
    for _ in range(2 * model.M + 3):
        d = mul(model, inv(model, power(model, y, model.p)), x)
        if d == model.identity:
            return y
        if any(c % model.p for c in d):
            raise NonConvergent("element has no p-th root at this depth")
        y = mul(model, y, tuple(c // model.p for c in d))
    raise NonConvergent("p-th root refinement did not stabilize")


def two_omega_of(model, x):
    """Doubled valuation min_i (two_omega_i + 2 v_p(x_i)) over the nonzero
    digits, a value in Z; None for the identity."""
    return min((w + 2 * _vp(c, model.p, model.M) for c, w in zip(x, model.two_omega) if c),
               default=None)


def witness_pair(model, i):
    """GL2: the upper generator [a^i] against the first lower one.  QUAT: the
    b-part gamma = a^i eta / 2, so that gamma - sigma(gamma) = a^i eta,
    eta = (z - sigma(z)) / 2, against the first A generator."""
    if not isinstance(model, QuatModel):
        return model.generator(i), model.generator(model.f)
    F = model.ctx.ring.field
    sig = F.frob.copy()
    for _ in range(model.f - 1):
        sig = F.frob[sig]
    eta = F.mul[F.add[F.gen, F.neg[sig[F.gen]]], F.inv[2]]
    gamma = F.mul[F.mul[F.pow(model.ctx.alpha_residue(), i), eta], F.inv[2]]
    sol = model._half_sol[gamma]  # A then B digits
    return tuple(int(c) for c in sol) + (0,) * model.f, model.generator(0)


def central_witness(model, i):
    """(x, y, w) with C_i = [x, y] w^p exactly in the truncated group."""
    target = model.generator(2 * model.f + i)
    a, b = witness_pair(model, i)
    for x, y in ((a, b), (b, a)):
        c = commutator(model, x, y)
        r = mul(model, inv(model, c), target)
        t = two_omega_of(model, r)
        if t is None or t >= 3:
            w = pth_root(model, r)
            assert mul(model, c, power(model, w, model.p)) == target
            return x, y, w
    raise NonConvergent("no commutator witness with small enough residual")


def scalar_rows(model, i, rows):
    """Row idx of right_mul_table(g_i), for each idx in rows."""
    gi = model.realize(model.generator(i))
    return np.array([model.index_of(decompose(
        model, model._mul(model.realize(model.digits_of(int(idx))), gi))) for idx in rows],
        dtype=np.int32)


def scalar_table(model, i):
    return scalar_rows(model, i, range(model.order))


def whole_group_table(model, i):
    """right_mul_table(g_i) from every element of the group: realize all
    p^(Mn) of them, multiply by g_i and decompose, in one batch."""
    xs = np.indices((model.pM,) * model.n).reshape(model.n, -1).T
    ys = model._mul_array(model.realize_array(xs), model._gen_power_array[i, 1])
    return (model.decompose(ys) @ np.array(model._strides)).astype(np.int32)
