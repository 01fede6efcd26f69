"""The replaced module kernels, kept as test oracles: the annihilator search
with a fixpoint closure of its graded pieces, the restriction chain over
itertools.product, the int64 prime-field matmul, the plain basis change,
the one-vector-at-a-time residue and the stable closure through the
table-loop rref.

min_annihilator_exponent closes every step of the search under the ambient
ring operators rho(g_i) - 1 on "gr", repeating one rref per (piece,
operator) in close until nothing changes; modules.min_annihilator_exponent
adds no closure, since GroupModel.certify_normal_ideals proves every ideal
it takes normal in the graded ring, so each step is stable already.
tail_merging_exponent holds each piece of the search as the whole space
above its chain tail R_(j+1), multiplies every row of it by every lift and
merges the images into the target's tail with rref_insert below, where
modules.min_annihilator_exponent holds each piece modulo its tail and
multiplies no tail row: a lift of weight s maps R_(j+1) into R_(j+1+s),
the next tail.  On the depth-3 deep-line module of dim 676 at GL2
(5, 1, 3) its three "gr" searches took 32.2, 56.4 and 65.8 CPU s, the
library's 0.95, 1.52 and 2.36 s.
restriction_chain enumerates all top^(3f) ordered products
Z^y = Z_0^(y_0) ... Z_(3f-1)^(y_(3f-1)), Z_t = rho(g_t)^(p^N) - 1, and
spans their images by weight wt(y) = sum_t w_t y_t, one product per
factor.  modules.grade(mod, "res", N) computes the same filtration as the
recursion R_i = sum_t Z_t R_max(i - w_t, 0): at most dim + 1 steps, each
of 3f products and one row reduction.  The recursion always contains the
enumerated steps, and equals them once GroupModel.certify_straightening
has shown that every commutator of two subgroup generators lies deeper than
their weights add up to; grade_res_from_restriction below is the
enumerated grading of mod.restrict(N).  matmul reduces an int64
product mod p, where gf.matmul sums in float64 through BLAS.  The first two
multiply through the oracle matmul and every oracle here row-reduces
through rref_oracle's table loop, so all three share with the library only
the field tables.
basis_change draws one T at a time until a draw inverts, where
modules._basis_changes draws every basis change of a module before its
searches and inverts them as one stack; conjugate returns T rho T^-1, whose
dualize conjugate_dual reads off the dual with one inverse at level 0,
where modules._conjugate_dual conjugates the dual's level-N matrices.
restriction_determinism is the check as it was before: one loop per ideal
that grades and searches every path on its own and draws each basis
change inside it, where modules.restriction_determinism reuses the dual's
grading and exponents for a path whose level-N matrices are the dual's,
byte for byte.
rref_insert extends an echelon basis to the rref of it stacked with new
rows.  residue reduces one row at a time, one pivot at a time, where
gf.residue takes one product for the whole stack.  stable_closure is the
fixed point of modules._stable_closure through rref_oracle's table loop and
the int64 matmul here.
deep_line_closure builds the deep-line module as a quotient of the weight
quotient at jcut by the stable closure of z_a, where
modules.deep_line_module reads the right action off the suffix monomials;
the two are isomorphic, not equal.
dualize inverts every generator by row reduction, where modules.dualize
reads the inverse of rho(g_i^(p^N)) off its (p^(M - N) - 1)-th power.
check_multiplicative builds each relation's rho(W) as the ordered product
of the generator powers rho(g_i)^(W_i), starting from the identity, where
modules.check_multiplicative multiplies the base-p digit letters
rho(u_(i,k))^d of W, each made once per call."""

import itertools

import numpy as np

from propring import gf as gflib
from propring import modules
from propring.algebra import group_algebra
from propring.errors import BoundExceeded, ConfigError, RelationCheckFailed
from propring.graded import build_JN
from propring.groups import group_model
from propring.modules import AnnihilatorReport, FiniteModule, GradedModule, ideal_operator_lifts

from pair_oracle import element_action
from rref_oracle import mat_inverse, rref


def matmul(a, b, field):
    """Matrix product over F_q: int64 matmul reduced mod p for prime fields,
    one shared axis of table lookups at a time for extensions."""
    a = np.asarray(a, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16)
    if field.f == 1:
        return (a.astype(np.int64) @ b.astype(np.int64) % field.p).astype(np.int16)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int16)
    for k in range(a.shape[1]):
        out = field.add[out, field.mul[a[:, k].reshape(-1, 1), b[k].reshape(1, -1)]]
    return out


def aug_ops(mats, field):
    """The operators m - 1, one per matrix m."""
    neg_eye = field.mul[int(field.neg[1]), np.eye(mats[0].shape[0], dtype=np.int16)]
    return [field.add[m, neg_eye] for m in mats]


def close(spaces, ring_ops, field):
    """Close the graded pieces, each (echelon basis, pivots), under the ring
    operators (operator, weight shift) by fixpoint iteration."""
    npieces = len(spaces)
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
                img = matmul(basis, op.T, field)
                b2 = spaces[j2][0]
                nb, npv = rref(np.concatenate([b2, img]), field)
                if nb.shape[0] != b2.shape[0]:
                    spaces[j2] = (nb, npv)
                    changed = True
    return spaces


def min_annihilator_exponent(gm, spec):
    """The annihilator search with every step closed under the ambient ring
    by close: rho(g_i) - 1 with weight shift two_omega_i on "gr", none on
    "int" and "res"; the signature of modules.min_annihilator_exponent."""
    mod = gm.module
    cfg, field = mod.cfg, mod.field
    lifts = ideal_operator_lifts(mod, spec)
    if gm.kind == "gr":
        ring_ops = list(zip(aug_ops(mod.gen_action, field), group_model(cfg).two_omega))
    else:
        ring_ops = []
        lifts = [(op, deg // cfg.p**gm.N) for op, deg in lifts]
    npieces = len(gm.chain) - 1
    tails = gm.chain[1:]

    def excess(spaces):
        return sum(s[0].shape[0] - t.shape[0] for s, t in zip(spaces, tails))

    spaces = close([(gm.chain[j], gm.pivots[j]) for j in range(npieces)], ring_ops, field)
    history = [excess(spaces)]
    while history[-1] > 0:
        if len(history) > mod.dim + 1:
            raise BoundExceeded("no annihilating power up to the bound")
        spaces = [rref(np.concatenate([tails[j]] + [
            matmul(spaces[j - s][0], op.T, field) for op, s in lifts if 0 <= j - s]), field)
            for j in range(npieces)]
        spaces = close(spaces, ring_ops, field)
        history.append(excess(spaces))
    return AnnihilatorReport(spec.name, gm.kind, gm.N, len(history) - 1, mod.dim + 1, history)


def tail_merging_exponent(gm, spec):
    """The annihilator search with each piece held as the whole space
    above its chain tail: every round multiplies every row of every piece,
    tail rows included, by every lift and merges the images back into the
    target's tail with rref_insert; the signature of
    modules.min_annihilator_exponent."""
    mod = gm.module
    cfg, field = mod.cfg, mod.field
    lifts = ideal_operator_lifts(mod, spec)
    if gm.kind in ("int", "res"):
        unit = cfg.p**gm.N
        for _, deg in lifts:
            if deg % unit:
                raise ConfigError(f"ambient weight {deg} does not move the {gm.kind} grading")
        lifts = [(op, deg // unit) for op, deg in lifts]
    else:
        group_model(cfg).certify_normal_ideals()
    chain, pivots, bound = gm.chain, gm.pivots, mod.dim + 1
    npieces = len(chain) - 1
    tails = [chain[j + 1] for j in range(npieces)]
    tail_dims = [t.shape[0] for t in tails]

    def excess(spaces):
        return sum(spaces[j][0].shape[0] - tail_dims[j] for j in range(npieces))

    spaces = [(chain[j], pivots[j]) for j in range(npieces)]
    history = [excess(spaces)]
    ell = 0
    while excess(spaces) > 0:
        ell += 1
        if ell > bound:
            raise BoundExceeded(f"no annihilating power of {spec.name} up to {bound}")
        new_rows = [[] for _ in range(npieces)]
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
                    raise RelationCheckFailed(
                        "generator image escaped the filtration", witness=(j, s)
                    )
        spaces = []
        for j in range(npieces):
            if new_rows[j]:
                spaces.append(rref_insert(tails[j], pivots[j + 1],
                                          np.concatenate(new_rows[j]), field))
            else:
                spaces.append((tails[j], pivots[j + 1]))
        history.append(excess(spaces))
    return AnnihilatorReport(spec.name, gm.kind, gm.N, ell, bound, history)


def restriction_chain(qmats, field, top, weights):
    """The subring filtration, one ordered product per exponent vector y in
    [0, top)^len(qmats): (chain, pivots), the step i spanned by the images
    of the products of weight >= i."""
    dim = qmats[0].shape[0]
    zops = aug_ops(qmats, field)
    pow_cache = []
    for z in zops:
        col = [np.eye(dim, dtype=np.int16)]
        for _ in range(top - 1):
            col.append(matmul(col[-1], z, field))
        pow_cache.append(col)
    by_weight = {}
    for y in itertools.product(range(top), repeat=len(qmats)):
        w = sum(wi * yi for wi, yi in zip(weights, y))
        op = pow_cache[0][y[0]]
        for t in range(1, len(qmats)):
            if y[t]:
                op = matmul(op, pow_cache[t][y[t]], field)
        by_weight.setdefault(w, []).append(np.ascontiguousarray(op.T))
    spans = {}
    acc = np.zeros((0, dim), dtype=np.int16)
    for i in sorted(by_weight, reverse=True):
        acc, acc_piv = rref(np.concatenate([acc] + by_weight[i]), field)
        spans[i] = (acc, acc_piv)
    maxw = max(by_weight)
    chain, pivots = [], []
    for i in range(maxw + 1):
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


def grade_res_from_restriction(mod, N):
    """The "res" grading of mod.restrict(N) through restriction_chain; what
    modules.grade(mod, "res", N) returns."""
    restricted, cfg = mod.restrict(N), mod.cfg
    chain, piv = restriction_chain(list(restricted.gen_action), mod.field,
                                   cfg.p ** (cfg.M - N), group_model(cfg).two_omega)
    return GradedModule("res", N, chain, piv, restricted)


def basis_change(field, dim, rng):
    """One random invertible T with its inverse, drawn one matrix at a time
    until a draw inverts."""
    while True:
        t = rng.integers(0, field.q, size=(dim, dim)).astype(np.int16)
        try:
            return t, mat_inverse(t, field)
        except ValueError:
            continue


def conjugate(mod, rng):
    """mod conjugated by a random basis change T: T rho T^-1."""
    field = mod.field
    t, tinv = basis_change(field, mod.dim, rng)
    mats = tuple(matmul(t, matmul(g, tinv, field), field) for g in mod.gen_action)
    return FiniteModule(mod.cfg, mod.dim, mats, f"conj({mod.provenance})")


def conjugate_dual(mod, dual, rng):
    """The dual of mod conjugated by one random basis change T, drawn as
    basis_change draws it, read off dual = dualize(mod) at level 0 with the
    one inverse of T: dual(T rho T^-1) = S rho* S^-1 for S = (T^-1)^T and
    S^-1 = T^T; the level-N data is its restrict(N)."""
    field = mod.field
    t, tinv = basis_change(field, mod.dim, rng)
    mats = tuple(gflib.matmul(tinv.T, gflib.matmul(g, t.T, field), field)
                 for g in dual.gen_action)
    return FiniteModule(mod.cfg, mod.dim, mats, f"dual(conj({mod.provenance}))")


def restriction_determinism(mod, specs, N, rng, basis_changes):
    """The check as one loop per ideal: every path graded and searched on
    its own, the basis changes drawn one at a time inside the loop and
    conjugated at level 0; the signature and the entries of
    modules.restriction_determinism."""
    field = mod.field
    dual = modules.dualize(mod)
    gdual = modules.grade(dual, "res", N)
    restricted = mod.restrict(N)
    gm = modules.grade(modules.dualize(restricted), "res", N)
    twisted = modules._central_order_p_twist(mod)
    same_restriction = True
    if twisted is not None:
        modules.check_multiplicative(twisted)
        same_restriction = all(map(np.array_equal, twisted.restrict(N).gen_action,
                                   restricted.gen_action))
        gtwisted = modules.grade(modules.dualize(twisted), "res", N)
    out = []
    for spec in specs:
        specN = build_JN(spec, N, field)
        ell_full = modules.min_annihilator_exponent(gdual, specN).ell
        ell_restricted = modules.min_annihilator_exponent(gm, specN).ell
        conj_ells = [modules.min_annihilator_exponent(
            modules.grade(conjugate_dual(mod, dual, rng), "res", N), specN).ell
            for _ in range(basis_changes)]
        ell_twisted = (ell_full if twisted is None
                       else modules.min_annihilator_exponent(gtwisted, specN).ell)
        ok = (ell_restricted == ell_full and all(e == ell_full for e in conj_ells)
              and same_restriction and ell_twisted == ell_full)
        out.append({"module": mod.provenance, "dim": mod.dim, "ideal": spec.name, "N": N,
                    "exponent": ell_full, "restricted_path": ell_restricted,
                    "basis_change_exponents": conj_ells, "twist_present": twisted is not None,
                    "twist_exponent": ell_twisted, "ok": ok})
    return out


def dualize(mod):
    """Inverse transpose on every generator by row reduction; the signature
    of modules.dualize."""
    mats = tuple(np.ascontiguousarray(mat_inverse(g, mod.field).T) for g in mod.gen_action)
    return FiniteModule(mod.cfg, mod.dim, mats, f"dual({mod.provenance})", mod.level)


def rref_insert(basis, pivots, rows, field):
    """rref(concat([basis, rows])) for a basis already in reduced row
    echelon form with the given pivots."""
    return rref(np.concatenate([basis, rows]), field)


def residue(rows, basis, pivots, field):
    """Each row reduced against an rref basis pivot by pivot; the signature
    of gf.residue."""
    out = np.array(rows, dtype=np.int16)
    add, mul, neg = field.add, field.mul, field.neg
    for v in out:
        for row, c in zip(basis, pivots):
            if v[c]:
                v[:] = add[v, mul[neg[v[c]], row]]
    return out


def stable_closure(rows, gens, field):
    """Smallest row space containing rows and stable under every generator;
    the signature of modules._stable_closure."""
    cur, piv = rref(np.array(rows, dtype=np.int16), field)
    while cur.shape[0]:
        stacked = np.concatenate([cur] + [matmul(cur, g.T, field) for g in gens])
        nxt, npiv = rref(stacked, field)
        if nxt.shape[0] == cur.shape[0]:
            break
        cur, piv = nxt, npiv
    return cur, piv


def deep_line_closure(cfg):
    """Quotient of the weight quotient at jcut = 2 p^(M-1) + 1 (p^M at
    most) by the left ideal generated by the first a-generator
    augmentation, its stable closure; the signature of
    modules.deep_line_module."""
    alg = group_algebra(cfg)
    jcut = min(2 * cfg.p ** (cfg.M - 1) + 1, alg.pM)
    base = modules.weight_quotient_module(cfg, jcut)
    sel = np.nonzero(alg.nu_weight_array < jcut)[0]
    pos = {int(k): t for t, k in enumerate(sel)}
    za = (1,) + (0,) * (cfg.dim - 1)
    rows = np.zeros((1, base.dim), dtype=np.int16)
    rows[0, pos[alg.model.index_of(za)]] = 1
    closure = modules._stable_closure(rows, base.gen_action, base.field)
    return modules._quotient_by_closure(base, closure, "deep-line")


def check_multiplicative(mod):
    if mod.level:
        raise ConfigError(f"the relations of G do not hold for restriction data "
                          f"at level {mod.level}")
    p, field = mod.cfg.p, mod.field
    for i in range(len(mod.gen_action)):
        if not np.array_equal(mod.power_of(i, p**mod.cfg.M), mod.identity_matrix()):
            raise RelationCheckFailed(f"rho(g_{i})^(p^M) is not the identity", witness=i)
    rels = group_model(mod.cfg).pc_relations()
    for (i, k), (j, l), w in rels:
        ua, ub = mod.power_of(i, p**k), mod.power_of(j, p**l)
        rhs = matmul(matmul(ua, ub, field), element_action(mod, w), field)
        if not np.array_equal(matmul(ub, ua, field), rhs):
            raise RelationCheckFailed(
                f"action violates u_b u_a = u_a u_b W for u_a = g_{i}^(p^{k}), "
                f"u_b = g_{j}^(p^{l}), W = {list(w)}",
                witness={"a": (i, k), "b": (j, l), "w": w},
            )
    return len(rels)
