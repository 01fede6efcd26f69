"""Finite modules over the truncated group ring: smooth actions given by
generator matrices, duals, the three associated graded modules, minimal
annihilator exponents of ideal specifications, and the exponent-transfer
inequalities between the gradings.

A module is a left action: rho assigns an invertible matrix to each of the
3f ordered-basis generators, and rho(x) for a digit vector x is the ordered
product of generator powers.  Multiplicativity of that assignment is a
checked invariant, not an assumption: every module is built through
check_multiplicative, which proves it exactly on the relations of a
polycyclic presentation of the truncated group.

Ideal generators act through ring lifts.  A twisted generator (all exponents
divisible by p^N) is a polynomial in the p^N-th power actions rho(g)^(p^N):
in characteristic p, (rho(g) - 1)^(p^N k) = (rho(g)^(p^N) - 1)^k.  So every
computation tagged "restriction" genuinely reads only the subgroup matrices.
The annihilator search spans each ideal power by generator products alone,
with no closure under the ambient graded ring: every ideal it takes is
normal there, which GroupModel.certify_normal_ideals proves once per config.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import gf as gflib
from .algebra import group_algebra
from .config import BoundedMemo, PrimeConfig
from .errors import (
    BoundExceeded,
    ConfigError,
    LevelTooDeep,
    RelationCheckFailed,
)
from .gf import GF, gf, rref
from .graded import IdealSpec, build_JN
from .groups import group_model


def _mat_power(m: np.ndarray, e: int, field: GF) -> np.ndarray:
    """m^e over the field by repeated squaring, at most 2 log2(e) products;
    m^1 is m itself."""
    out = None
    while e:
        if e & 1:
            out = m if out is None else gflib.matmul(out, m, field)
        e >>= 1
        if e:
            m = gflib.matmul(m, m, field)
    return np.eye(m.shape[0], dtype=np.int16) if out is None else out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclasses.dataclass
class FiniteModule:
    """A module of the subgroup G_level = <g_i^(p^level)>: gen_action holds
    rho(g_i^(p^level)), so level 0 is a module of G and level N > 0 is
    restriction data, which serves only the specs twisted at least N deep.
    Its powers and gradings are memoized on it, read-only."""
    cfg: PrimeConfig
    dim: int
    gen_action: tuple[np.ndarray, ...]  # 3f invertible matrices, field indices
    provenance: str = "constructed"
    level: int = 0
    _powers: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)
    _graded: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    @property
    def field(self) -> GF:
        return gf(self.cfg.p, self.cfg.f)

    def identity_matrix(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int16)

    def power_of(self, i: int, e: int) -> np.ndarray:
        """rho(g_i)^e by repeated squaring, memoized per (i, e): the
        callers ask for a few exponents up to p^M, never for all of them."""
        if (i, e) not in self._powers:
            self._powers[i, e] = _read_only(_mat_power(self.gen_action[i], e, self.field))
        return self._powers[i, e]

    def restrict(self, N: int) -> FiniteModule:
        """The module at level N, acting by rho(g_i^(p^N)), the only data
        G_N sees; the module itself at its own level."""
        if N < self.level:
            raise LevelTooDeep(f"restriction data at level {self.level} has no level {N}")
        if N == self.level:
            return self
        q = self.cfg.p ** (N - self.level)
        mats = tuple(self.power_of(i, q) for i in range(len(self.gen_action)))
        return FiniteModule(self.cfg, self.dim, mats, f"res({self.provenance})", N)


def check_multiplicative(mod: FiniteModule) -> int:
    """rho is a representation of the truncated group G, checked on the
    polycyclic presentation of GroupModel.pc_relations.  With
    rho(u_(i,k)) := rho(g_i)^(p^k), the power relations u_(i,k)^p =
    u_(i,k+1) and u_(i,M-1)^p = 1 say that rho(g_i) has order dividing
    p^M, and each u_b u_a = u_a u_b W must hold as rho(u_b) rho(u_a) =
    rho(u_a) rho(u_b) rho(W).  Exact: each generator adds at most a factor
    p, so the presented group has order at most p^(nM) = |G|; G satisfies
    the relations and is generated by the u's, so it is the presented
    group and x -> rho(g_0)^(x_0) ... rho(g_(n-1))^(x_(n-1)) is a
    homomorphism.  rho(W) is that ordered product read off the base-p
    digits d < p of each W_i: the letters rho(u_(i,k))^d, each made once
    per call, no factor an identity.  Returns the number of conjugation
    relations; raises with the failing one as witness.  The relations are
    those of G, so restriction data (level > 0) is refused."""
    if mod.level:
        raise ConfigError(f"the relations of G do not hold for restriction data "
                          f"at level {mod.level}")
    p, M, field = mod.cfg.p, mod.cfg.M, mod.field
    for i in range(len(mod.gen_action)):
        if not np.array_equal(mod.power_of(i, p**M), mod.identity_matrix()):
            raise RelationCheckFailed(f"rho(g_{i})^(p^M) is not the identity", witness=i)
    letters = {}

    def letter(i: int, k: int, d: int) -> np.ndarray:
        # rho(u_(i,k))^d, one product from the letter of d - 1
        if (i, k, d) not in letters:
            u = mod.power_of(i, p**k)
            letters[i, k, d] = u if d == 1 else gflib.matmul(letter(i, k, d - 1), u, field)
        return letters[i, k, d]

    rels = group_model(mod.cfg).pc_relations()
    for (i, k), (j, l), w in rels:
        ua, ub = mod.power_of(i, p**k), mod.power_of(j, p**l)
        rhs = gflib.matmul(ua, ub, field)
        for t, e in enumerate(w):
            for s in range(M):
                if d := e // p**s % p:
                    rhs = gflib.matmul(rhs, letter(t, s, d), field)
        if not np.array_equal(gflib.matmul(ub, ua, field), rhs):
            raise RelationCheckFailed(
                f"action violates u_b u_a = u_a u_b W for u_a = g_{i}^(p^{k}), "
                f"u_b = g_{j}^(p^{l}), W = {list(w)}",
                witness={"a": (i, k), "b": (j, l), "w": w},
            )
    return len(rels)


def trivial_module(cfg: PrimeConfig) -> FiniteModule:
    mats = tuple(np.eye(1, dtype=np.int16) for _ in range(cfg.dim))
    return FiniteModule(cfg, 1, mats, "trivial")


def weight_quotient_module(cfg: PrimeConfig, jcut: int) -> FiniteModule:
    """Quotient of the regular module by the two-sided span of all monomials
    of weight >= jcut, written in monomial coordinates: generator i acts by
    the block of GroupAlgebra.generator_columns on the kept monomials."""
    alg = group_algebra(cfg)
    if not 1 <= jcut <= alg.pM:
        raise ConfigError("weight cut must stay inside the faithful range")
    sel = np.nonzero(alg.nu_weight_array < jcut)[0]
    mats = tuple(alg.generator_columns(i, "left", sel, sel) for i in range(cfg.dim))
    return FiniteModule(cfg, int(sel.size), mats, f"weight-quotient<{jcut}")


def _stable_closure(rows: np.ndarray, gens, field: GF):
    """Smallest row space containing rows and stable under every generator
    (row vectors transform through the transposed matrices): the rref of
    the space stacked with its images, repeated until a round adds no
    dimension."""
    cur, piv = rref(np.array(rows, dtype=np.int16), field)
    while cur.shape[0]:
        nxt, npiv = rref(np.concatenate([cur] + [gflib.matmul(cur, g.T, field) for g in gens]),
                         field)
        if nxt.shape[0] == cur.shape[0]:
            break
        cur, piv = nxt, npiv
    return cur, piv


def _quotient_by_closure(base: FiniteModule, closure, provenance: str):
    """Quotient of base by a submodule given as its _stable_closure
    (echelon basis, pivots), written in the complement coordinates: the
    images of the kept basis vectors are reduced against the closure in one
    product."""
    field = base.field
    sub, piv = closure
    pivset = set(piv)
    keep = [c for c in range(base.dim) if c not in pivset]
    mats = tuple(
        np.ascontiguousarray(gflib.residue(g[:, keep].T, sub, piv, field)[:, keep].T)
        for g in base.gen_action
    )
    return FiniteModule(base.cfg, len(keep), mats, provenance)


def quotient_module(cfg: PrimeConfig, seed: int, jcut: int = 6, max_dim: int = 40,
                    base: FiniteModule | None = None) -> FiniteModule:
    """Seeded quotient of a weight quotient of the regular module: random
    vectors supported in the deeper filtration weights span a submodule,
    and the action descends to the complement coordinates of its echelon
    basis.  Restricting the support keeps the quotient from collapsing,
    since the submodule stays inside the starting weight.  base, when
    given, is the weight quotient at jcut, built once by the caller."""
    base = weight_quotient_module(cfg, jcut) if base is None else base
    alg = group_algebra(cfg)
    wts = alg.nu_weight_array[alg.nu_weight_array < jcut]
    field = base.field
    rng = np.random.default_rng(seed)
    for _ in range(64):
        w0 = int(rng.integers(2, jcut))
        k = int(rng.integers(1, 3))
        mask = wts >= w0
        vecs = np.zeros((k, base.dim), dtype=np.int16)
        vecs[:, mask] = rng.integers(0, field.q, size=(k, int(mask.sum())))
        closure = _stable_closure(vecs, base.gen_action, field)
        if 2 <= base.dim - closure[0].shape[0] <= max_dim:
            return _quotient_by_closure(base, closure, f"quotient seed={seed} j<{jcut}")
    raise ConfigError("seeded submodule search found no quotient in range")


def deep_line_module(cfg: PrimeConfig) -> FiniteModule:
    """D = F_p[G] / (F_p[G] z_a + m^jcut) for a = g_0, z_a = a - 1 and
    jcut = 2 p^(M-1) + 1 (p^M at most), on its own basis.  The surviving
    pure b,c-monomials keep the filtration depth at 4(p^M - 1) - 2, so the
    central element C_0^(p^(M-1)) acts nontrivially; this is the corpus
    member that gives the restriction-twist comparison real work to do.

    g -> g^(-1) fixes m^jcut and sends F_p[G] z_a to a^(-1) z_a F_p[G] =
    z_a F_p[G], so D is the right module F_p[G] / (z_a F_p[G] + m^jcut)
    with g acting by w -> w g^(-1).  z_a z^k = z^(k + e_0), z_a being the
    leftmost factor of z^k, so z_a F_p[G] is the span of the z^k with k_0
    > 0, and m^jcut that of the z^k with nu'(k) >= jcut (the certificate
    of check_maximal_ideal_powers).  So the suffix monomials B (k_0 = 0)
    of weight < jcut, (p^(M-1) + 1)^2 of them at f = 1, are a basis, and
    generator_columns(i, "right", B, B) is the matrix R_i of w -> w g_i on
    it.  (Its Q[B, X] is nonzero only at x <= k digit by digit, so x_0 =
    0, and on the rows of B binom(y_0, 0) = 1: the g_0^(y_0) part of each
    t g_i drops out, as in the permutation module on the cosets <a> t.)
    w -> w g is a right action, so rho(g_i) = R_i^(-1) in the column
    convention of gen_action."""
    alg, field = group_algebra(cfg), gf(cfg.p, 1)
    jcut = min(2 * cfg.p ** (cfg.M - 1) + 1, alg.pM)
    basis = np.flatnonzero(alg.nu_weight_array[:alg.order // alg.pM] < jcut)  # k_0 = 0
    mats = tuple(gflib.mat_inverse(alg.generator_columns(i, "right", basis, basis), field)
                 for i in range(cfg.dim))
    return FiniteModule(cfg, int(basis.size), mats, "deep-line")


# generator entries the memo of validated explicit modules holds, 0.5 MB of
# int16; a stored module also keeps the powers and gradings it was asked
# for, about 6 times its generator entries on the bench pool's modules
# with all three gradings
_MODULE_MEMO = 1 << 18

# the explicit modules that passed validation, keyed by their exact content
# (config, dim and the int16 bytes of every generator): a warm process is
# asked about the same module many times, and a hit skips validation and
# brings the module's memoized powers and gradings with it
_VALIDATED = BoundedMemo(_MODULE_MEMO, lambda mod: mod.dim * mod.dim * len(mod.gen_action))


def build_module(cfg: PrimeConfig, source: str = "quotient", seed: int = 0,
                 matrices=None, jcut: int = 6,
                 base: FiniteModule | None = None) -> FiniteModule:
    """Construct a module and validate it with check_multiplicative, which
    proves that it is a representation of the truncated group.  An explicit
    module is validated once per process: the same content again returns
    the stored module, and a refused one is never stored."""
    if source == "trivial":
        mod = trivial_module(cfg)
    elif source == "quotient":
        mod = quotient_module(cfg, seed, jcut, base=base)
    elif source == "deep":
        mod = deep_line_module(cfg)
    elif source == "explicit":
        if matrices is None:
            raise ConfigError("explicit source needs generator matrices")
        mats = tuple(np.array(m, dtype=np.int16) for m in matrices)
        if len(mats) != cfg.dim:
            raise ConfigError(f"need {cfg.dim} generator matrices, got {len(mats)}")
        dim = mats[0].shape[0]
        field = gf(cfg.p, cfg.f)
        for m in mats:
            if m.shape != (dim, dim):
                raise ConfigError("generator matrices must be square, equal size")
            if (m < 0).any() or (m >= field.q).any():
                raise ConfigError("matrix entries must be field element indices")

        def validated() -> FiniteModule:
            mod = FiniteModule(cfg, dim, tuple(map(_read_only, mats)), "loaded")
            # rho(g_i)^(p^M) = 1, which check_multiplicative proves, makes
            # rho(g_i) invertible; a rank only names a singular generator
            for i, m in enumerate(mats):
                if (not np.array_equal(mod.power_of(i, cfg.p**cfg.M), mod.identity_matrix())
                        and gflib.rank(m, field) < dim):
                    raise ConfigError("generator matrix is singular")
            check_multiplicative(mod)
            return mod

        key = (cfg, dim, tuple(m.tobytes() for m in mats))
        return _VALIDATED.get_or_build(key, validated)
    else:
        raise ConfigError(f"unknown module source {source!r}")
    check_multiplicative(mod)
    return mod


def dualize(mod: FiniteModule) -> FiniteModule:
    """Contragredient action: inverse transpose on every generator.  At
    level N each rho(g_i^(p^N)) has order dividing p^(M - N), so its inverse
    is its (p^(M - N) - 1)-th power; one product checks it."""
    field, one = mod.field, mod.identity_matrix()
    e = mod.cfg.p ** (mod.cfg.M - mod.level) - 1
    mats = []
    for i, g in enumerate(mod.gen_action):
        inv = mod.power_of(i, e)
        if not np.array_equal(gflib.matmul(g, inv, field), one):
            raise RelationCheckFailed(f"rho(g_{i}) has no inverse among its powers",
                                      witness=i)
        mats.append(np.ascontiguousarray(inv.T))
    return FiniteModule(mod.cfg, mod.dim, tuple(mats), f"dual({mod.provenance})", mod.level)


# -- the three gradings ---------------------------------------------------------


@dataclasses.dataclass
class GradedModule:
    kind: str  # "gr" | "int" | "res"
    N: int | None
    chain: list[np.ndarray]  # rref row bases; chain[0] full, last entry empty
    pivots: list[list[int]]
    module: FiniteModule  # the action source of every exponent search


def _aug_ops(mats, field: GF) -> list[np.ndarray]:
    """The operators m - 1, one per matrix m."""
    eye = np.eye(mats[0].shape[0], dtype=np.int16)
    return [gflib.sub(m, eye, field) for m in mats]


def _weighted_chain(ops, weights, field: GF):
    """The filtration R_0 = M, R_i = sum_t Z_t R_max(i - w_t, 0) for the
    operators Z_t = ops[t] of weights w_t = weights[t] >= 1, as rref row
    bases down to zero.  By induction R_i lies in R_(i-1), so a step that
    does not shrink the space raises, and at most dim + 1 steps run, each
    of len(ops) products and one row reduction (R_0 needs none)."""
    chain, pivots = [], []
    dim = ops[0].shape[0]
    cur, piv = np.eye(dim, dtype=np.int16), list(range(dim))  # rref of R_0 = M
    while True:
        chain.append(_read_only(cur))
        pivots.append(piv)
        if cur.shape[0] == 0:
            return chain, pivots
        cur, piv = rref(np.concatenate([gflib.matmul(chain[max(len(chain) - w, 0)], op.T, field)
                                        for op, w in zip(ops, weights)]), field)
        if cur.shape[0] >= chain[-1].shape[0]:
            raise BoundExceeded("filtration failed to decrease strictly")


def _subsample(gr: GradedModule, N: int) -> GradedModule:
    """The "int" grading: the "gr" chain read at multiples of p^N, closed by
    its last step, the only zero one."""
    last = len(gr.chain) - 1
    steps = [*range(0, last, gr.module.cfg.p**N), last]
    return dataclasses.replace(gr, kind="int", N=N, chain=[gr.chain[j] for j in steps],
                               pivots=[gr.pivots[j] for j in steps])


def grade(mod: FiniteModule, kind: str, N: int | None = None) -> GradedModule:
    """The graded module of one of the three filtrations: "gr" steps by the
    maximal ideal, "int" subsamples that chain at multiples of p^N, and
    "res" filters by the subring ideal steps, read off mod.restrict(N)
    alone, the actions rho(u_t) of u_t = g_t^(p^N), which it carries as
    the action source.

    With Z_t = rho(u_t) - 1, w = two_omega and top = p^(M-N), step E_i is
    the span of the images of the ordered products Z^y = Z_0^(y_0) ...
    Z_(3f-1)^(y_(3f-1)), y in [0, top)^(3f), of weight sum_t w_t y_t >= i.
    _weighted_chain computes it as R_i = sum_t Z_t R_max(i - w_t, 0), in at
    most dim + 1 steps.  E_i lies in R_i for any matrices: peel the first
    factor off Z^y and induct on i.  R_i lies in E_i by the same induction
    once the span I_j of the Z^y of weight >= j has I_a I_b within I_(a+b).

    That is Lazard's straightening, given GroupModel.certify_straightening
    (whose failure raises ContractViolation).  Let J_m be the span of all
    words in the Z_t of weight >= m: I_m lies in J_m, J_a J_b in J_(a+b),
    and J_m = 0 for large m (the augmentation ideal of F_q[G_N] is
    nilpotent).  Show J_m within I_m by descending induction on m, then on
    the inversions of a word.  A sorted word is 0 once an exponent reaches
    top (Z_t^top = rho(u_t^top) - 1 = 0), else an ordered product of weight
    >= m.  An inversion Z_t Z_s, s < t, becomes Z_s Z_t + rho(u_s u_t)
    (rho(W) - 1), W = (u_s u_t)^(-1) u_t u_s, whose first term has fewer
    inversions.  The certificate makes W = prod_i u_i^(c_i), c_i = d_i / p^N,
    with w_i p^(v_p(c_i)) > w_s + w_t whenever c_i != 0; as (1 + Z)^c =
    (1 + Z^(p^v))^(c / p^v) for v = v_p(c), rho(W) - 1 lies in
    I_(w_s + w_t + 1), so the second term lies in J_(m+1), within I_(m+1).

    Each grading is memoized on mod, its row bases read-only, so asking
    again, or for "int" after "gr", reads the stored chain."""
    key = kind, None if kind == "gr" else N
    if key not in mod._graded:
        mod._graded[key] = _grade(mod, kind, N)
    return mod._graded[key]


def _grade(mod: FiniteModule, kind: str, N: int | None) -> GradedModule:
    field = mod.field
    if kind == "gr":
        if mod.level:
            raise ConfigError("the full grading needs the full module action")
        chain, piv = _weighted_chain(_aug_ops(mod.gen_action, field), (1,) * mod.cfg.dim, field)
        return GradedModule("gr", None, chain, piv, mod)
    if N is None or not (1 <= N < mod.cfg.M):
        raise LevelTooDeep(f"need 1 <= N < M, got N={N} at M={mod.cfg.M}")
    if kind == "int":
        return _subsample(grade(mod, "gr"), N)
    if kind == "res":
        res = mod.restrict(N)
        model = group_model(mod.cfg)
        model.certify_straightening(N)
        chain, piv = _weighted_chain(_aug_ops(res.gen_action, field), model.two_omega, field)
        return GradedModule("res", N, chain, piv, res)
    raise ConfigError(f"unknown grading kind {kind!r}")


# -- annihilator exponents --------------------------------------------------------


@dataclasses.dataclass
class AnnihilatorReport:
    ideal: str
    kind: str
    N: int | None
    ell: int
    bound: int
    excess_dims: list[int]  # dimension above the chain tails, per power


def ideal_operator_lifts(mod: FiniteModule, spec: IdealSpec) -> list[tuple[np.ndarray, int]]:
    """(operator matrix, ambient weight) for every ideal generator,
    including the implicit central column generators.  The operators read
    only mod.restrict(spec.N), so restriction data at level N serves
    exactly the specs twisted at least N deep."""
    if spec.N < mod.level:
        raise ConfigError(f"restriction data at level {mod.level} can only act "
                          f"through a spec twisted at least that deep")
    field, f, p, dim = mod.field, mod.cfg.f, mod.cfg.p, mod.dim
    unit = p**spec.N
    zs = _aug_ops(mod.restrict(spec.N).gen_action, field)

    def aug_power(i: int, e: int) -> np.ndarray:
        # (rho(g_i) - 1)^e computed as (rho(g_i)^unit - 1)^(e/unit)
        if e % unit:
            raise ConfigError("twisted exponents must be divisible by p^N")
        return _mat_power(zs[i], e // unit, field)

    out = []
    for gen in spec.f_gens:
        degree = sum(gen[0][0]) + sum(gen[0][1])
        if degree == 0:
            raise ConfigError("ideal generator of degree zero")
        terms = []
        for m, n, _ in gen:
            cur = np.eye(dim, dtype=np.int16)
            for i, e in enumerate(m + n):
                if e:
                    cur = gflib.matmul(cur, aug_power(i, e), field)
            terms.append(cur.ravel())
        coeffs = np.array([[coeff for _, _, coeff in gen]])
        out.append((gflib.matmul(coeffs, np.stack(terms), field).reshape(dim, dim), degree))
    for i in range(f):
        out.append((aug_power(2 * f + i, unit), 2 * unit))
    return out


def min_annihilator_exponent(gm: GradedModule, spec: IdealSpec) -> AnnihilatorReport:
    """Smallest ell such that every ell-fold product of ideal generators
    kills every graded piece.  Graded Nakayama caps the answer at dim + 1,
    the search bound; exceeding it raises.

    The search tracks the graded pieces of the ideal powers applied to the
    graded module, piece j held as rref rows modulo its chain tail
    R_(j+1).  A lift of weight s maps R_(j+1) into R_(j+1+s), the tail of
    piece j + s, so the tail's images add nothing: each round multiplies
    the piece rows alone and reduces the images against the target's tail.
    The escape check past the chain end sees all of R_j, which the
    first round's pieces j, j + 1, ... span.

    Generator products alone span each ideal power, so no step is closed
    under the ambient graded ring: on "int" and "res" that ring (of the
    subring) is commutative, and on "gr" every ideal is normal in it, as
    GroupModel.certify_normal_ideals proves once per config (its failure
    raises ContractViolation).  The generators act through gm.module, which
    on "res" is restriction data alone."""
    cfg, field = gm.module.cfg, gm.module.field
    lifts = ideal_operator_lifts(gm.module, spec)
    if gm.kind in ("int", "res"):
        unit = cfg.p**gm.N
        for _, deg in lifts:
            if deg % unit:
                raise ConfigError(f"ambient weight {deg} does not move the {gm.kind} grading")
        lifts = [(op, deg // unit) for op, deg in lifts]
    else:
        group_model(cfg).certify_normal_ideals()
    chain, pivots, bound = gm.chain, gm.pivots, gm.module.dim + 1
    npieces = len(chain) - 1
    # the rows of R_j off the tail's pivots vanish at them: R_j mod R_(j+1)
    pieces = []
    for j in range(npieces):
        tail = set(pivots[j + 1])
        pieces.append(chain[j][[t for t, c in enumerate(pivots[j]) if c not in tail]])
    history = [sum(b.shape[0] for b in pieces)]
    ell = 0
    while history[-1] > 0:
        ell += 1
        if ell > bound:
            raise BoundExceeded(f"no annihilating power of {spec.name} up to {bound}")
        new_rows: list[list[np.ndarray]] = [[] for _ in range(npieces)]
        for op, s in lifts:
            for j, basis in enumerate(pieces):
                if basis.shape[0] == 0:
                    continue
                img = gflib.matmul(basis, op.T, field)
                j2 = j + s
                if j2 < npieces:
                    new_rows[j2].append(img)
                elif img.any():
                    # past the chain end the filtration is zero, so a
                    # homogeneous lift must send the piece to zero
                    raise RelationCheckFailed(
                        "generator image escaped the filtration", witness=(j, s)
                    )
        pieces = [rref(gflib.residue(np.concatenate(rows), chain[j + 1], pivots[j + 1], field),
                       field)[0] if rows else chain[-1] for j, rows in enumerate(new_rows)]
        history.append(sum(b.shape[0] for b in pieces))
    return AnnihilatorReport(spec.name, gm.kind, gm.N, ell, bound, history)


# -- transfer and determinism checks ----------------------------------------------


def check_exponent_transfer(mod: FiniteModule, specs, N: int) -> list[dict]:
    """For each ideal in specs, measure the minimal annihilator exponents of
    the ideal and its twist on the three gradings and verify the five
    transfer inequalities.  The gradings are built once for all ideals."""
    field = mod.field
    f = mod.cfg.f
    q = mod.cfg.p**N
    gres = grade(mod, "res", N)  # refuses N outside [1, M)
    gr = grade(mod, "gr")
    gint = grade(mod, "int", N)
    out = []
    for spec in specs:
        specN = build_JN(spec, N, field)
        ell_gr_J = min_annihilator_exponent(gr, spec).ell
        ell_gr_JN = min_annihilator_exponent(gr, specN).ell
        ell_int = min_annihilator_exponent(gint, specN).ell
        ell_res = min_annihilator_exponent(gres, specN).ell
        implications = {
            "twist_inside_ideal": ell_gr_JN <= ell_gr_J,
            "full_to_subsampled": ell_int <= q * ell_gr_JN,
            "subsampled_to_subring": ell_res <= (4 * f + 1) * ell_int,
            "subring_to_subsampled": ell_int <= (4 * f + 1) * ell_res,
            "subsampled_to_full": ell_gr_JN <= ell_int,
        }
        out.append({
            "module": mod.provenance,
            "dim": mod.dim,
            "ideal": spec.name,
            "N": N,
            "exponents": {
                "gr_ideal": ell_gr_J,
                "gr_twist": ell_gr_JN,
                "int_twist": ell_int,
                "res_twist": ell_res,
            },
            "implications": implications,
            "ok": all(implications.values()),
        })
    return out


def _central_order_p_twist(mod: FiniteModule):
    """A companion action differing from mod only on the first generator:
    rho'(A_0) = rho(A_0) rho(z) for the central element z = C_0^(p^(M-1)).
    The first-layer digit of A_0 is additive modulo p and vanishes on all
    p^N-th powers, so the twist is multiplicative and shares every
    restriction matrix with mod.  Returns None when rho(z) is trivial."""
    cfg = mod.cfg
    z = mod.power_of(2 * cfg.f, cfg.p ** (cfg.M - 1))
    if np.array_equal(z, mod.identity_matrix()):
        return None
    mats = [m.copy() for m in mod.gen_action]
    mats[0] = gflib.matmul(mats[0], z, mod.field)
    return FiniteModule(cfg, mod.dim, tuple(mats), f"twist({mod.provenance})")


def _basis_changes(field: GF, dim: int, rng, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """count random invertible dim x dim matrices T with their inverses:
    the first count invertible draws of one rng.integers call each, the
    stream of a loop that draws until T inverts.  Every round draws the
    shortfall, one matrix per call, and inverts the round as one stack, so
    no draw is made past the count-th invertible one.  The members are
    views into the round's stacks, which are not copied."""
    out = []
    while len(out) < count:
        draws = np.empty((count - len(out), dim, dim), dtype=np.int16)
        for t in draws:
            t[:] = rng.integers(0, field.q, size=(dim, dim))
        inv, ok = gflib.mat_inverse(draws, field)
        out.extend((draws[j], inv[j]) for j in np.flatnonzero(ok))
    return out


def _conjugate_dual(mod: FiniteModule, dual_res: FiniteModule, t: np.ndarray,
                    tinv: np.ndarray) -> FiniteModule:
    """The dual of mod conjugated by the basis change T, at the level N of
    dual_res = dualize(mod).restrict(N), whose matrices are the A_i =
    rho*(g_i)^(p^N): dual(T rho T^-1) = S rho* S^-1 for S = (T^-1)^T and
    S^-1 = T^T, and (S A S^-1)^q = S A^q S^-1, so the S A_i S^-1 are its
    restriction data, exactly."""
    field = mod.field
    mats = tuple(gflib.matmul(tinv.T, gflib.matmul(g, t.T, field), field)
                 for g in dual_res.gen_action)
    return FiniteModule(mod.cfg, mod.dim, mats, f"dual(conj({mod.provenance}))", dual_res.level)


def restriction_determinism(mod: FiniteModule, specs, N: int, rng,
                            basis_changes: int) -> list[dict]:
    """For each ideal in specs: the twisted-ideal exponent on the subring
    grading of the dual depends only on the p^N-th power matrices.  Checked
    three ways: the full-action path against the restriction-only path,
    invariance under random basis changes, and invariance under a twist
    that changes a generator matrix while fixing every restriction matrix.

    Built once per module: the dual, its level-N matrices A_i and their
    "res" grading; the level-N data of the restriction-only path,
    dualize(mod.restrict(N)), and of the twist's dual; and all
    basis_changes x len(specs) basis changes, drawn as the per-ideal loop
    draws them and inverted as one stack (_basis_changes).  Per basis
    change: the conjugate S A_i S^-1, built at level N, its grading and
    its exponent searches.

    The "res" grading and every search on it read nothing but the level-N
    matrices, and both are deterministic.  So a path whose level-N
    matrices equal the A_i byte for byte has the chain and the exponents
    of the dual's, and it reuses them: the comparison is exact, and what
    it skips would recompute the same bytes from the same input.  A path
    that differs in any byte is graded and searched on its own."""
    field = mod.field
    dual = dualize(mod)
    gdual = grade(dual, "res", N)
    dual_res = gdual.module

    def graded(path: FiniteModule) -> GradedModule:
        same = all(map(np.array_equal, path.restrict(N).gen_action, dual_res.gen_action))
        return gdual if same else grade(path, "res", N)

    restricted = mod.restrict(N)
    gm = graded(dualize(restricted))
    twisted = _central_order_p_twist(mod)
    same_restriction, gtwisted = True, gdual  # with no twist, nothing to compare
    if twisted is not None:
        check_multiplicative(twisted)
        same_restriction = all(map(np.array_equal, twisted.restrict(N).gen_action,
                                   restricted.gen_action))
        gtwisted = graded(dualize(twisted))
    changes = iter(_basis_changes(field, mod.dim, rng, basis_changes * len(specs)))
    out = []
    for spec in specs:
        specN = build_JN(spec, N, field)
        ell_full = min_annihilator_exponent(gdual, specN).ell
        ell_restricted = (ell_full if gm is gdual
                          else min_annihilator_exponent(gm, specN).ell)
        conj_ells = [
            min_annihilator_exponent(
                grade(_conjugate_dual(mod, dual_res, *next(changes)), "res", N), specN).ell
            for _ in range(basis_changes)
        ]
        ell_twisted = (ell_full if gtwisted is gdual
                       else min_annihilator_exponent(gtwisted, specN).ell)
        ok = (
            ell_restricted == ell_full
            and all(e == ell_full for e in conj_ells)
            and same_restriction
            and ell_twisted == ell_full
        )
        out.append({
            "module": mod.provenance,
            "dim": mod.dim,
            "ideal": spec.name,
            "N": N,
            "exponent": ell_full,
            "restricted_path": ell_restricted,
            "basis_change_exponents": conj_ells,
            "twist_present": twisted is not None,
            "twist_exponent": ell_twisted,
            "ok": ok,
        })
    return out


def module_corpus(cfg: PrimeConfig, count: int = 20, jcuts=(5, 6)) -> list[FiniteModule]:
    """A deterministic family of validated modules: the trivial module, the
    deep-line module, and seeded quotients of weight quotients of the
    regular module; the seeded quotients share one weight quotient per cut."""
    out = [build_module(cfg, "trivial"), build_module(cfg, "deep")]
    bases = {}
    seed = 0
    while len(out) < count + 2 and seed < 20 * count:
        jcut = jcuts[seed % len(jcuts)]
        try:
            if jcut not in bases:
                bases[jcut] = weight_quotient_module(cfg, jcut)
            out.append(build_module(cfg, "quotient", seed=seed, jcut=jcut, base=bases[jcut]))
        except ConfigError:
            pass
        seed += 1
    if len(out) < count + 2:
        raise ConfigError("module corpus came up short")
    return out
