"""Finite modules over the truncated group ring: smooth actions given by
generator matrices, duals, the three associated graded modules, minimal
annihilator exponents of ideal specifications, and the exponent-transfer
inequalities between the gradings.

A module is a left action: rho assigns an invertible matrix to each of the
3f ordered-basis generators, and rho(x) for a digit vector x is the ordered
product of generator powers.  Multiplicativity of that assignment is a
checked invariant, not an assumption.

Ideal generators act through ring lifts.  A twisted generator (all exponents
divisible by p^N) is a polynomial in the p^N-th power actions rho(g)^(p^N):
in characteristic p, (rho(g) - 1)^(p^N k) = (rho(g)^(p^N) - 1)^k.  So every
computation tagged "restriction" genuinely reads only the subgroup matrices.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import gf as gflib
from .algebra import group_algebra
from .config import PrimeConfig
from .errors import (
    BoundExceeded,
    ConfigError,
    LevelTooDeep,
    RelationCheckFailed,
)
from .gf import GF, gf, rref
from .graded import IdealSpec, IdealSpecN, build_JN
from .groups import Digits, group_model


@dataclasses.dataclass
class FiniteModule:
    cfg: PrimeConfig
    dim: int
    gen_action: tuple[np.ndarray, ...]  # 3f invertible matrices, field indices
    provenance: str = "constructed"

    @property
    def field(self) -> GF:
        return gf(self.cfg.p, self.cfg.f)

    def identity_matrix(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int16)

    def power_of(self, i: int, e: int) -> np.ndarray:
        """rho(g_i)^e, cached for all digit values."""
        cache = getattr(self, "_powers", None)
        if cache is None:
            cache = [[self.identity_matrix()] for _ in self.gen_action]
            self._powers = cache
        col = cache[i]
        while len(col) <= e:
            col.append(gflib.matmul(col[-1], self.gen_action[i], self.field))
        return col[e]

    def element_action(self, x: Digits) -> np.ndarray:
        out = self.identity_matrix()
        for i, e in enumerate(x):
            if e:
                out = gflib.matmul(out, self.power_of(i, int(e)), self.field)
        return out

    def restriction_matrices(self, N: int) -> list[np.ndarray]:
        """The p^N-th power actions, the only data the subgroup sees."""
        q = self.cfg.p**N
        return [self.power_of(i, q) for i in range(len(self.gen_action))]


def _check_orders(mod: FiniteModule) -> None:
    pM = mod.cfg.p**mod.cfg.M
    for i in range(len(mod.gen_action)):
        if not np.array_equal(mod.power_of(i, pM), mod.identity_matrix()):
            raise RelationCheckFailed(
                f"generator {i} does not have order dividing p^M", witness=i
            )


def check_multiplicative(mod: FiniteModule, rng=None, pairs: int = 512) -> int:
    """rho(x) rho(y) = rho(x y) on digit pairs; exhaustive at M = 1, sampled
    above.  Returns the number of pairs verified, raises with a witness."""
    model = group_model(mod.cfg)
    field = mod.field
    if mod.cfg.M == 1:
        todo = itertools.product(list(model.all_elements()), repeat=2)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        todo = (
            (model.random_element(rng), model.random_element(rng))
            for _ in range(pairs)
        )
    cache: dict[Digits, np.ndarray] = {}

    def act(x):
        if x not in cache:
            cache[x] = mod.element_action(x)
        return cache[x]

    checked = 0
    for x, y in todo:
        lhs = gflib.matmul(act(x), act(y), field)
        if not np.array_equal(lhs, act(model.mul(x, y))):
            raise RelationCheckFailed("action is not multiplicative", witness=(x, y))
        checked += 1
    return checked


def trivial_module(cfg: PrimeConfig) -> FiniteModule:
    mats = tuple(np.eye(1, dtype=np.int16) for _ in range(cfg.dim))
    return FiniteModule(cfg, 1, mats, "trivial")


def regular_module(cfg: PrimeConfig) -> FiniteModule:
    """Left translation on the group basis of the truncated group ring."""
    model = group_model(cfg)
    mats = []
    for i in range(cfg.dim):
        g = model.generator(i)
        m = np.zeros((model.order, model.order), dtype=np.int16)
        for x in model.all_elements():
            m[model.index_of(model.mul(g, x)), model.index_of(x)] = 1
        mats.append(m)
    return FiniteModule(cfg, model.order, tuple(mats), "regular")


def weight_quotient_module(cfg: PrimeConfig, jcut: int) -> FiniteModule:
    """Quotient of the regular module by the two-sided span of all monomials
    of weight >= jcut, written in monomial coordinates."""
    alg = group_algebra(cfg)
    if not 1 <= jcut <= alg.pM:
        raise ConfigError("weight cut must stay inside the faithful range")
    sel = np.nonzero(alg.nu_weight_array < jcut)[0]
    mats = []
    for i in range(cfg.dim):
        gd = alg.of_group(alg.model.generator(i))
        mats.append(alg.monomial_columns(sel, sel, lambda mono: alg.mul(gd, mono)))
    return FiniteModule(cfg, int(sel.size), tuple(mats), f"weight-quotient<{jcut}")


def _stable_closure(rows: np.ndarray, gens, field: GF):
    """Smallest row space containing rows and stable under every generator
    (row vectors transform through the transposed matrices)."""
    cur, piv = rref(np.array(rows, dtype=np.int16), field)
    while cur.shape[0]:
        stacked = np.concatenate([cur] + [gflib.matmul(cur, g.T, field) for g in gens])
        nxt, npiv = rref(stacked, field)
        if nxt.shape[0] == cur.shape[0]:
            break
        cur, piv = nxt, npiv
    return cur, piv


def _quotient_by_closure(base: FiniteModule, rows: np.ndarray, provenance: str):
    """Quotient of base by the submodule generated by rows, written in the
    complement coordinates of the closure's echelon basis."""
    field = base.field
    sub, piv = _stable_closure(rows, base.gen_action, field)
    pivset = set(piv)
    keep = [c for c in range(base.dim) if c not in pivset]
    if not keep:
        raise ConfigError("closure swallowed the whole module")
    mats = []
    for g in base.gen_action:
        m = np.zeros((len(keep), len(keep)), dtype=np.int16)
        for t, c in enumerate(keep):
            img = g[:, c].copy()
            if sub.shape[0]:
                img = gflib.residue(img, sub, piv, field)
            m[:, t] = img[keep]
        mats.append(m)
    return FiniteModule(base.cfg, len(keep), tuple(mats), provenance)


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
        sub = _stable_closure(vecs, base.gen_action, field)[0]
        dim = base.dim - sub.shape[0]
        if 2 <= dim <= max_dim:
            return _quotient_by_closure(
                base, vecs, f"quotient seed={seed} j<{jcut}"
            )
    raise ConfigError("seeded submodule search found no quotient in range")


def deep_line_module(cfg: PrimeConfig) -> FiniteModule:
    """Quotient of a deep weight quotient by the left ideal generated by
    the first a-generator augmentation.  The surviving pure b,c-monomials
    keep the filtration depth at 4(p^M - 1) - 2, so the central element
    C_0^(p^(M-1)) acts nontrivially; this is the corpus member that gives
    the restriction-twist comparison real work to do."""
    alg = group_algebra(cfg)
    jcut = min(2 * cfg.p ** (cfg.M - 1) + 1, alg.pM)
    base = weight_quotient_module(cfg, jcut)
    sel = np.nonzero(alg.nu_weight_array < jcut)[0]
    pos = {int(k): t for t, k in enumerate(sel)}
    za = (1,) + (0,) * (cfg.dim - 1)
    rows = np.zeros((1, base.dim), dtype=np.int16)
    rows[0, pos[alg.model.index_of(za)]] = 1
    return _quotient_by_closure(base, rows, "deep-line")


def build_module(cfg: PrimeConfig, source: str = "quotient", seed: int = 0,
                 matrices=None, jcut: int = 6, check_pairs: int = 512,
                 base: FiniteModule | None = None) -> FiniteModule:
    """Construct and validate a module.  Validation always runs the order
    check and the multiplicativity check (exhaustive at M = 1)."""
    if source == "trivial":
        mod = trivial_module(cfg)
    elif source == "regular":
        mod = regular_module(cfg)
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
            try:
                gflib.mat_inverse(m, field)
            except ValueError:
                raise ConfigError("generator matrix is singular") from None
        mod = FiniteModule(cfg, dim, mats, "loaded")
    else:
        raise ConfigError(f"unknown module source {source!r}")
    _check_orders(mod)
    check_multiplicative(mod, np.random.default_rng(seed ^ 0x5EED), pairs=check_pairs)
    return mod


def dualize(mod: FiniteModule) -> FiniteModule:
    """Contragredient action: inverse transpose on every generator."""
    field = mod.field
    mats = tuple(
        np.ascontiguousarray(gflib.mat_inverse(g, field).T) for g in mod.gen_action
    )
    return FiniteModule(mod.cfg, mod.dim, mats, f"dual({mod.provenance})")


def equivariant_maps(src: FiniteModule, dst: FiniteModule) -> list[np.ndarray]:
    """Basis of the space of module maps src -> dst, the solutions of
    phi rho_src(g) = rho_dst(g) phi over all generators."""
    if src.cfg != dst.cfg:
        raise ConfigError("modules live over different configurations")
    field = src.field
    d1, d2 = src.dim, dst.dim

    def kron(a, b):
        out = field.mul[a[:, None, :, None], b[None, :, None, :]]
        return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    eye1 = np.eye(d1, dtype=np.int16)
    eye2 = np.eye(d2, dtype=np.int16)
    blocks = []
    for s, t in zip(src.gen_action, dst.gen_action):
        # column-major vec: vec(phi s) = (s^T kron I) x, vec(t phi) = (I kron t) x
        diff = field.add[kron(s.T, eye2), field.mul[int(field.neg[1]), kron(eye1, t)]]
        blocks.append(diff)
    red, piv = rref(np.concatenate(blocks), field)
    pivset = set(piv)
    basis = []
    for c in range(d1 * d2):
        if c in pivset:
            continue
        x = np.zeros(d1 * d2, dtype=np.int16)
        x[c] = 1
        for row, pc in zip(red, piv):
            x[pc] = field.neg[row[c]]
        basis.append(np.ascontiguousarray(x.reshape(d1, d2).T))
    return basis


def find_isomorphism(src: FiniteModule, dst: FiniteModule, rng, tries: int = 64):
    """An invertible equivariant map if one is found, else None."""
    if src.dim != dst.dim:
        return None
    field = src.field
    maps = equivariant_maps(src, dst)
    candidates = list(maps)
    for _ in range(tries):
        combo = np.zeros((dst.dim, src.dim), dtype=np.int16)
        for m in maps:
            combo = field.add[combo, field.mul[int(rng.integers(field.q)), m]]
        candidates.append(combo)
    for m in candidates:
        try:
            gflib.mat_inverse(m, field)
            return m
        except ValueError:
            continue
    return None


# -- the three gradings ---------------------------------------------------------


@dataclasses.dataclass
class GradedModule:
    kind: str  # "gr" | "int" | "res"
    N: int | None
    dim: int
    field: GF
    cfg: PrimeConfig
    chain: list[np.ndarray]  # rref row bases; chain[0] full, last entry empty
    pivots: list[list[int]]
    module: FiniteModule | None = None

    def piece_dims(self) -> list[int]:
        return [
            self.chain[i].shape[0] - self.chain[i + 1].shape[0]
            for i in range(len(self.chain) - 1)
        ]


def _aug_ops(mod: FiniteModule, power: int = 1) -> list[np.ndarray]:
    """The operators rho(g_i)^power - 1."""
    field = mod.field
    neg_eye = field.mul[int(field.neg[1]), mod.identity_matrix()]
    return [
        field.add[mod.power_of(i, power), neg_eye] for i in range(len(mod.gen_action))
    ]


def _radical_chain(mod: FiniteModule):
    """F_0 = M, F_{j+1} = sum of (rho(g_i) - 1) F_j, down to zero."""
    field = mod.field
    ops = _aug_ops(mod)
    chain, pivots = [], []
    cur, piv = rref(mod.identity_matrix(), field)
    while True:
        chain.append(cur)
        pivots.append(piv)
        if cur.shape[0] == 0:
            return chain, pivots
        nxt = np.concatenate([gflib.matmul(cur, op.T, field) for op in ops])
        cur, piv = rref(nxt, field)
        if cur.shape[0] >= chain[-1].shape[0]:
            raise BoundExceeded("radical chain failed to decrease")


def _restriction_chain(qmats, field: GF, top: int, weights):
    """Subring filtration from restriction data alone: step i is spanned by
    the images of the ordered products prod (rho(g_t)^(p^N) - 1)^(y_t) over
    exponent vectors y in [0, top)^(3f) of subring weight >= i."""
    dim = qmats[0].shape[0]
    neg_eye = field.mul[int(field.neg[1]), np.eye(dim, dtype=np.int16)]
    zops = [field.add[q, neg_eye] for q in qmats]
    pow_cache = []
    for z in zops:
        col = [np.eye(dim, dtype=np.int16)]
        for _ in range(top - 1):
            col.append(gflib.matmul(col[-1], z, field))
        pow_cache.append(col)
    by_weight: dict[int, list[np.ndarray]] = {}
    for y in itertools.product(range(top), repeat=len(qmats)):
        w = sum(wi * yi for wi, yi in zip(weights, y))
        op = pow_cache[0][y[0]]
        for t in range(1, len(qmats)):
            if y[t]:
                op = gflib.matmul(op, pow_cache[t][y[t]], field)
        by_weight.setdefault(w, []).append(np.ascontiguousarray(op.T))
    spans: dict[int, tuple[np.ndarray, list[int]]] = {}
    acc = np.zeros((0, dim), dtype=np.int16)
    for i in sorted(by_weight, reverse=True):
        acc, acc_piv = rref(np.concatenate([acc] + by_weight[i]), field)
        spans[i] = (acc, acc_piv)
    maxw = max(by_weight)
    chain, pivots = [], []
    for i in range(maxw + 1):
        # a weight with no operators of its own inherits the deeper span
        j = i
        while j not in spans:
            j += 1
        cur, piv = spans[j]
        if chain and cur.shape[0] == 0 and chain[-1].shape[0] == 0:
            break
        chain.append(cur)
        pivots.append(piv)
    if chain[-1].shape[0]:
        chain.append(np.zeros((0, dim), dtype=np.int16))
        pivots.append([])
    for i in range(len(chain) - 1):
        if chain[i].shape[0] and chain[i + 1].shape[0] >= chain[i].shape[0]:
            raise BoundExceeded("subring filtration failed to decrease strictly")
    return chain, pivots


def grade(mod: FiniteModule, kind: str, N: int | None = None) -> GradedModule:
    """The graded module of one of the three filtrations: "gr" steps by the
    maximal ideal, "int" subsamples that chain at multiples of p^N, and
    "res" filters by the subring ideal steps (restriction data only)."""
    field = mod.field
    if kind == "gr":
        chain, piv = _radical_chain(mod)
        return GradedModule("gr", None, mod.dim, field, mod.cfg, chain, piv, mod)
    if N is None or not (1 <= N < mod.cfg.M):
        raise LevelTooDeep(f"need 1 <= N < M, got N={N} at M={mod.cfg.M}")
    if kind == "int":
        full, fpiv = _radical_chain(mod)
        q = mod.cfg.p**N
        chain, piv = [], []
        i = 0
        while True:
            j = min(i * q, len(full) - 1)
            chain.append(full[j])
            piv.append(fpiv[j])
            if chain[-1].shape[0] == 0:
                break
            i += 1
        return GradedModule("int", N, mod.dim, field, mod.cfg, chain, piv, mod)
    if kind == "res":
        qmats = mod.restriction_matrices(N)
        top = mod.cfg.p ** (mod.cfg.M - N)
        weights = group_model(mod.cfg).two_omega
        chain, piv = _restriction_chain(qmats, field, top, weights)
        return GradedModule("res", N, mod.dim, field, mod.cfg, chain, piv, mod)
    raise ConfigError(f"unknown grading kind {kind!r}")


def grade_res_from_restriction(qmats, cfg: PrimeConfig, N: int) -> GradedModule:
    """The "res" grading built purely from the p^N-th power matrices."""
    if not 1 <= N < cfg.M:
        raise LevelTooDeep(f"need 1 <= N < M, got N={N} at M={cfg.M}")
    field = gf(cfg.p, cfg.f)
    top = cfg.p ** (cfg.M - N)
    weights = group_model(cfg).two_omega
    chain, piv = _restriction_chain(list(qmats), field, top, weights)
    return GradedModule("res", N, qmats[0].shape[0], field, cfg, chain, piv, None)


# -- annihilator exponents --------------------------------------------------------


@dataclasses.dataclass
class AnnihilatorReport:
    ideal: str
    kind: str
    N: int | None
    ell: int
    bound: int
    excess_dims: list[int]  # dimension above the chain tails, per power

    def summary(self) -> str:
        return f"{self.ideal} on {self.kind}: minimal exponent {self.ell}"


def ideal_operator_lifts(source, spec: IdealSpec | IdealSpecN, field: GF,
                         f: int, p: int) -> list[tuple[np.ndarray, int]]:
    """(operator matrix, ambient weight) for every ideal generator,
    including the implicit central column generators.

    source is either a FiniteModule or a list of p^N-th power generator
    matrices; the latter is accepted exactly when the spec is twisted, so
    the operators provably use restriction data only."""
    if isinstance(source, FiniteModule):
        dim = source.dim

        def powers(i: int, e: int) -> np.ndarray:
            return source.power_of(i, e)
    else:
        if not isinstance(spec, IdealSpecN):
            raise ConfigError("restriction data can only act through a twisted spec")
        mats = list(source)
        dim = mats[0].shape[0]
        eye = np.eye(dim, dtype=np.int16)

        def powers(i: int, e: int) -> np.ndarray:
            return mats[i] if e else eye

    unit = p**spec.N if isinstance(spec, IdealSpecN) else 1
    neg_eye = field.mul[int(field.neg[1]), np.eye(dim, dtype=np.int16)]

    def aug_power(i: int, e: int) -> np.ndarray:
        # (rho(g_i) - 1)^e computed as (rho(g_i)^unit - 1)^(e/unit)
        if e % unit:
            raise ConfigError("twisted exponents must be divisible by p^N")
        z = field.add[powers(i, unit), neg_eye]
        cur = np.eye(dim, dtype=np.int16)
        for _ in range(e // unit):
            cur = gflib.matmul(cur, z, field)
        return cur

    out = []
    for gen in spec.f_gens:
        degree = sum(gen[0][0]) + sum(gen[0][1])
        if degree == 0:
            raise ConfigError("ideal generator of degree zero")
        acc = np.zeros((dim, dim), dtype=np.int16)
        for m, n, coeff in gen:
            cur = np.eye(dim, dtype=np.int16)
            for i, e in enumerate(m):
                if e:
                    cur = gflib.matmul(cur, aug_power(i, e), field)
            for i, e in enumerate(n):
                if e:
                    cur = gflib.matmul(cur, aug_power(f + i, e), field)
            acc = field.add[acc, field.mul[coeff, cur]]
        out.append((acc, degree))
    for i in range(f):
        out.append((aug_power(2 * f + i, unit), 2 * unit))
    return out


def _min_exponent(chain, pivots, lifts, ring_ops, field: GF, bound: int,
                  ideal: str, kind: str, N: int | None) -> AnnihilatorReport:
    """Core search: track the graded pieces of the ideal powers applied to
    the graded module, each piece held as a row space above the chain tail.
    ring_ops (operator, weight shift) closes each step under the ambient
    ring generators; pass None when the ambient graded ring is commutative,
    where generator products alone span the ideal power."""
    npieces = len(chain) - 1
    tails = [chain[j + 1] for j in range(npieces)]
    tail_dims = [t.shape[0] for t in tails]

    def close(spaces):
        if ring_ops is None:
            return spaces
        changed = True
        while changed:
            changed = False
            for j in range(npieces):
                basis = spaces[j][0]
                if basis.shape[0] == 0:
                    continue
                for op, w in ring_ops:
                    j2 = j + w
                    if j2 >= npieces:
                        continue
                    img = gflib.matmul(basis, op.T, field)
                    b2 = spaces[j2][0]
                    nb, npv = rref(np.concatenate([b2, img]), field)
                    if nb.shape[0] != b2.shape[0]:
                        spaces[j2] = (nb, npv)
                        changed = True
        return spaces

    def excess(spaces):
        return sum(spaces[j][0].shape[0] - tail_dims[j] for j in range(npieces))

    spaces = close([(chain[j], pivots[j]) for j in range(npieces)])
    history = [excess(spaces)]
    ell = 0
    while excess(spaces) > 0:
        ell += 1
        if ell > bound:
            raise BoundExceeded(f"no annihilating power of {ideal} up to {bound}")
        new_rows: list[list[np.ndarray]] = [[] for _ in range(npieces)]
        for op, s in lifts:
            for j in range(npieces):
                basis = spaces[j][0]
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
        spaces = []
        for j in range(npieces):
            if new_rows[j]:
                spaces.append(rref(np.concatenate([tails[j]] + new_rows[j]), field))
            else:
                spaces.append((tails[j], pivots[j + 1]))
        spaces = close(spaces)
        history.append(excess(spaces))
    return AnnihilatorReport(ideal, kind, N, ell, bound, history)


def min_annihilator_exponent(gm: GradedModule, spec: IdealSpec | IdealSpecN,
                             source=None, bound: int | None = None) -> AnnihilatorReport:
    """Smallest ell such that every ell-fold product of ideal generators
    kills every graded piece.  Graded Nakayama caps the answer at dim + 1,
    the default bound; exceeding it raises.

    source defaults to the module the grading was built from; pass the
    restriction matrices instead to force the restriction-only data path."""
    cfg = gm.cfg
    field = gm.field
    if source is None:
        if gm.module is None:
            raise ConfigError("grading carries no module; pass the action source")
        source = gm.module
    lifts = ideal_operator_lifts(source, spec, field, cfg.f, cfg.p)
    if gm.kind in ("int", "res"):
        unit = cfg.p**gm.N
        shifts = []
        for op, deg in lifts:
            if deg % unit:
                raise ConfigError(
                    f"ambient weight {deg} does not move the {gm.kind} grading"
                )
            shifts.append((op, deg // unit))
        ring_ops = None  # ambient graded ring of the subring is commutative
    else:
        shifts = list(lifts)
        if isinstance(source, FiniteModule):
            ring_ops = list(zip(_aug_ops(source), group_model(cfg).two_omega))
        else:
            raise ConfigError("the full grading needs the full module action")
    if bound is None:
        bound = gm.dim + 1
    name = f"{spec.base.name}^[{spec.N}]" if isinstance(spec, IdealSpecN) else spec.name
    return _min_exponent(gm.chain, gm.pivots, shifts, ring_ops, field, bound,
                         name, gm.kind, gm.N)


# -- transfer and determinism checks ----------------------------------------------


def check_exponent_transfer(mod: FiniteModule, spec: IdealSpec, N: int) -> dict:
    """Measure the minimal annihilator exponents of an ideal and its twist
    on the three gradings and verify the five transfer inequalities."""
    field = mod.field
    f = mod.cfg.f
    q = mod.cfg.p**N
    specN = build_JN(spec, N, field)
    gr = grade(mod, "gr")
    gint = grade(mod, "int", N)
    gres = grade(mod, "res", N)
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
    return {
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
    }


def _central_order_p_twist(mod: FiniteModule, N: int):
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


def _conjugate(mod: FiniteModule, rng) -> FiniteModule:
    field = mod.field
    while True:
        t = rng.integers(0, field.q, size=(mod.dim, mod.dim)).astype(np.int16)
        try:
            tinv = gflib.mat_inverse(t, field)
            break
        except ValueError:
            continue
    mats = tuple(
        gflib.matmul(t, gflib.matmul(g, tinv, field), field) for g in mod.gen_action
    )
    return FiniteModule(mod.cfg, mod.dim, mats, f"conj({mod.provenance})")


def restriction_determinism(mod: FiniteModule, spec: IdealSpec, N: int, rng,
                            basis_changes: int = 5) -> dict:
    """The twisted-ideal exponent on the subring grading of the dual depends
    only on the p^N-th power matrices.  Checked three ways: the full-action
    path against the restriction-only path, invariance under random basis
    changes, and invariance under a twist that changes a generator matrix
    while fixing every restriction matrix."""
    field = mod.field
    specN = build_JN(spec, N, field)
    dual = dualize(mod)

    def res_exponent(m: FiniteModule) -> int:
        return min_annihilator_exponent(grade(m, "res", N), specN).ell

    ell_full = res_exponent(dual)
    qmats = [
        np.ascontiguousarray(gflib.mat_inverse(q, field).T)
        for q in mod.restriction_matrices(N)
    ]
    gm = grade_res_from_restriction(qmats, mod.cfg, N)
    ell_restricted = min_annihilator_exponent(gm, specN, source=qmats).ell
    conj_ells = [
        res_exponent(dualize(_conjugate(mod, rng))) for _ in range(basis_changes)
    ]
    twisted = _central_order_p_twist(mod, N)
    if twisted is not None:
        check_multiplicative(twisted, rng, pairs=64)
        same_restriction = all(
            np.array_equal(a, b)
            for a, b in zip(
                twisted.restriction_matrices(N), mod.restriction_matrices(N)
            )
        )
        ell_twisted = res_exponent(dualize(twisted))
    else:
        same_restriction = True
        ell_twisted = ell_full
    ok = (
        ell_restricted == ell_full
        and all(e == ell_full for e in conj_ells)
        and same_restriction
        and ell_twisted == ell_full
    )
    return {
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
    }


def module_corpus(cfg: PrimeConfig, count: int = 20, start_seed: int = 0,
                  jcuts=(5, 6)) -> list[FiniteModule]:
    """A deterministic family of validated modules: the trivial module, the
    deep line quotient, and seeded quotients of weight quotients of the
    regular module; the seeded quotients share one weight quotient per cut."""
    out = [build_module(cfg, "trivial"), build_module(cfg, "deep")]
    bases = {}
    seed = start_seed
    while len(out) < count + 2 and seed < start_seed + 20 * count:
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
