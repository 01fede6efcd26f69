"""Associated graded ring of the truncated group ring, and the ring-level
checks: centrality of p-th power classes (read off group brackets, with no
dense product), Hilbert data, ideal specifications with their p^N-twists,
the chunk-and-remainder rewriting of monomials, and the filtration
sandwich.

By the certified description of the maximal ideal powers (the reported
check ideal-power-spans, algebra.check_maximal_ideal_powers), the degree-j
piece gr^j = m^j/m^(j+1) has the classes of the weight-j monomials z^k as
a basis, so a homogeneous class is just a coefficient vector over
{k : nu'(k) = j}.  Products lift to the dense ring, multiply exactly and
project back to the leading weight; the projection does not depend on the
lift because everything below the combined weight dies in m^(j1+j2).

Coefficients live in F_(p^f).  The dense ring is over the prime field, so
a product of classes is assembled from the f x f pairwise products of
their prime-field components; for f = 1 this collapses to a single dense
multiplication.

Weights below p^M agree with the untruncated ring (the kernel of the
truncation is spanned by monomials of weight at least p^M), so every
check gates its cutoff there and raises CutoffBeyondFaithful otherwise.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from . import gf as gflib
from .algebra import GroupAlgebra
from .errors import (
    ConfigError,
    ContractViolation,
    CutoffBeyondFaithful,
    NonHomogeneousInput,
)
from .gf import GF, gf, rref
from .groups import Digits, GroupModel


# entries of the block of one row-keyed expansion (_expand) and word
# entries verify_transcripts merges at a time, which keep their transients
# to a few MB however long the transcripts
_MERGE = 1 << 16
# start monomials rewritten as one lockstep batch (_transcripts)
_BATCH = 1 << 10
# rows of the first block draw_row draws; a block with no accepted row
# doubles the next, up to _DRAW_MAX rows
_DRAW_FIRST = 64
_DRAW_MAX = 1 << 12


@dataclasses.dataclass(frozen=True)
class GradedClass:
    """Homogeneous element of the graded ring: coefficients (field indices)
    over the monomial classes of the given weight."""

    degree: int
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coords)


class GradedRing:
    def __init__(self, alg: GroupAlgebra):
        self.alg = alg
        self.model = alg.model
        self.p = alg.p
        self.f = alg.model.f
        self.n = alg.n
        self.field: GF = gf(self.p, self.f)
        self.faithful = self.p**alg.model.M  # weights below this are exact
        self._windex: dict[int, np.ndarray] = {}

    # -- graded pieces -------------------------------------------------------

    def weight_index(self, j: int) -> np.ndarray:
        """Flat monomial indices of weight j, ascending (fixed basis order)."""
        w = self._windex.get(j)
        if w is None:
            w = np.nonzero(self.alg.nu_weight_array == j)[0]
            self._windex[j] = w
        return w

    def dim(self, j: int) -> int:
        return self.weight_index(j).size

    def _gate(self, degree: int) -> None:
        if degree >= self.faithful:
            raise CutoffBeyondFaithful(
                f"degree {degree} reaches the unfaithful range (p^M = {self.faithful})"
            )

    # -- construction --------------------------------------------------------

    def unit_class(self, exps: Digits) -> GradedClass:
        """Class of the single monomial z^exps."""
        j = self.alg.nu_prime(exps)
        flat = self.model.index_of(self.model.check_digits(exps))
        coords = np.zeros(self.dim(j), dtype=np.int16)
        coords[int(np.searchsorted(self.weight_index(j), flat))] = 1
        return GradedClass(j, tuple(int(c) for c in coords))

    def a(self, i: int) -> GradedClass:
        return self.unit_class(self._unit_exps(i))

    def b(self, i: int) -> GradedClass:
        return self.unit_class(self._unit_exps(self.f + i))

    def c(self, i: int) -> GradedClass:
        return self.unit_class(self._unit_exps(2 * self.f + i))

    def _unit_exps(self, pos: int) -> Digits:
        e = [0] * self.n
        e[pos] = 1
        return tuple(e)

    # -- multiplication ------------------------------------------------------

    def _dense_lift_fp(self, degree: int, comp: np.ndarray) -> np.ndarray:
        mono = self.alg.zero()
        mono[self.weight_index(degree)] = comp
        return self.alg.from_monomial(mono)

    def _mul_fp(self, dx: int, xv: np.ndarray, dy: int, yv: np.ndarray) -> np.ndarray:
        prod = self.alg.mul(self._dense_lift_fp(dx, xv), self._dense_lift_fp(dy, yv))
        pm = self.alg.to_monomial(prod)
        assert not pm[self.alg.nu_weight_array < dx + dy].any()
        return pm[self.weight_index(dx + dy)]

    def mul(self, x: GradedClass, y: GradedClass) -> GradedClass:
        degree = x.degree + y.degree
        self._gate(degree)
        xa = np.array(x.coords, dtype=np.int16)
        ya = np.array(y.coords, dtype=np.int16)
        F, p = self.field, self.p
        # F_p coordinates of the product, comp times those of x^(e1+e2)
        acc = np.zeros((self.dim(degree), self.f), dtype=np.int64)
        for e1 in range(self.f):
            xc = (xa // p**e1) % p
            if not xc.any():
                continue
            for e2 in range(self.f):
                yc = (ya // p**e2) % p
                if not yc.any():
                    continue
                comp = self._mul_fp(x.degree, xc, y.degree, yc)
                acc += np.outer(comp, F.coords(F.pow(F.gen, e1 + e2)))
        out = acc % p @ p ** np.arange(self.f)
        return GradedClass(degree, tuple(int(c) for c in out))

    # -- multiplication matrices (generators only) ----------------------------

    def mult_matrix(self, side: str, gi: int, d: int) -> np.ndarray:
        """Matrix of multiplication by ring generator class gi (left or
        right) from degree d: columns indexed by the weight-d monomials,
        rows by the weight-(d + w) ones.  Entries are prime-field structure
        constants, the weight-(d + w) block of g z^k or z^k g; the z^k that
        g - 1 subtracts sits at weight d and so is not in it."""
        w = self.alg.nu_weights[gi]
        self._gate(d + w)
        return self.alg.generator_columns(gi, side, self.weight_index(d),
                                          self.weight_index(d + w))


# -- ideal specifications ------------------------------------------------------

Term = tuple[tuple[int, ...], tuple[int, ...], int]  # (a-exponents, b-exponents, coeff)


@dataclasses.dataclass(frozen=True)
class IdealSpec:
    """Two-sided homogeneous ideal of the graded ring: polynomial generators
    in the degree-one classes (list of (m, n, coeff) terms each), plus,
    always implicitly, all the c_i.  At twist level N > 0 (build_JN) the
    generators are p^N-twisted and the implicit c-part is the c_i^(p^N);
    N = 0 is untwisted."""

    f_gens: tuple[tuple[Term, ...], ...]
    name: str = ""
    N: int = 0


def _term_degree(t: Term) -> int:
    return sum(t[0]) + sum(t[1])


def ideal_spec(f_gens, f: int, name: str = "") -> IdealSpec:
    """Validate generators.  Each generator is an iterable of
    (a-exponents, b-exponents, coeff) terms; non-homogeneous generators are
    rejected."""
    out = []
    for gen in f_gens:
        terms = []
        for m, n, coeff in gen:
            m, n = tuple(int(v) for v in m), tuple(int(v) for v in n)
            if len(m) != f or len(n) != f:
                raise ConfigError(f"exponent vectors must have length f={f}")
            if any(v < 0 for v in m + n):
                raise ConfigError("negative exponent in ideal generator")
            if coeff:
                terms.append((m, n, int(coeff)))
        if not terms:
            continue
        degrees = sorted({_term_degree(t) for t in terms})
        if len(degrees) > 1:
            raise NonHomogeneousInput(f"generator mixes degrees {degrees}")
        out.append(tuple(terms))
    return IdealSpec(f_gens=tuple(out), name=name)


def default_ideals(f: int, field: GF) -> list[IdealSpec]:
    """The shipped configurations: the c-ideal alone, the a-classes plus c,
    and a mixed-coefficient quadratic example."""
    zero = (0,) * f
    e0 = tuple(1 if i == 0 else 0 for i in range(f))
    a_gens = tuple(
        ((tuple(1 if j == i else 0 for j in range(f)), zero, 1),) for i in range(f)
    )
    alpha = field.gen if field.f > 1 else 2 % field.p
    mixed = (
        (tuple(2 * v for v in e0), zero, 1),
        (e0, e0, int(alpha)),
        (zero, tuple(2 * v for v in e0), 3 % field.p),
    )
    return [
        ideal_spec((), f, name="c"),
        ideal_spec(a_gens, f, name="a+c"),
        ideal_spec((mixed,), f, name="mixed"),
    ]


def build_JN(spec: IdealSpec, N: int, field: GF) -> IdealSpec:
    """p^N-twist of spec: coefficients raised to the p^N-th power,
    exponents multiplied by p^N."""
    if N < 1:
        raise ConfigError("N must be positive")
    q = field.p**N
    gens = []
    for gen in spec.f_gens:
        if len({_term_degree(t) for t in gen}) > 1:
            raise NonHomogeneousInput("twist of a non-homogeneous generator")
        terms = []
        for m, n, coeff in gen:
            c = coeff
            for _ in range(N):
                c = int(field.frob[c])
            terms.append((tuple(q * v for v in m), tuple(q * v for v in n), c))
        gens.append(tuple(terms))
    return IdealSpec(f_gens=tuple(gens), name=f"{spec.name}^[{N}]", N=spec.N + N)


class IdealTables:
    """Degree-indexed subspaces of the two-sided ideal generated by
    homogeneous classes: the span at each degree is closed under left and
    right multiplication by the ring generator classes, built once and then
    read-only."""

    def __init__(self, gr: GradedRing, gens: list[GradedClass], cutoff: int):
        gr._gate(cutoff)
        self.tables: dict[int, tuple[np.ndarray, list[int]]] = {}
        field = gr.field
        by_degree: dict[int, list[np.ndarray]] = {}
        for g in gens:
            if not g.is_zero():
                by_degree.setdefault(g.degree, []).append(
                    np.array(g.coords, dtype=np.int16)
                )
        for d in range(cutoff + 1):
            cand = list(by_degree.get(d, []))
            for gi in range(gr.n):
                w = gr.alg.nu_weights[gi]
                prev = self.tables.get(d - w)
                if prev is None or prev[0].shape[0] == 0:
                    continue
                basis = prev[0]
                for side in ("left", "right"):
                    m = gr.mult_matrix(side, gi, d - w)
                    cand.extend(gflib.matmul(basis, m.T, field))
            if cand:
                self.tables[d] = rref(np.array(cand, dtype=np.int16), field)
            else:
                self.tables[d] = (np.zeros((0, gr.dim(d)), dtype=np.int16), [])

    def dim(self, d: int) -> int:
        return self.tables[d][0].shape[0]


# -- ring-level checks ---------------------------------------------------------


def hilbert_oracle(T: int, f: int, quotient_by_c: bool) -> list[int]:
    """Monomial counts in 2f weight-one variables plus, unless the c-part is
    quotiented away, f weight-two variables.  Pure integer recurrence,
    independent of the algebra."""
    counts = [0] * (T + 1)
    counts[0] = 1
    weights = [1] * (2 * f) + ([] if quotient_by_c else [2] * f)
    for w in weights:
        for j in range(w, T + 1):
            counts[j] += counts[j - w]
    return counts


def hilbert_dims(gr: GradedRing, T: int, quotient_by_c: bool = False) -> list[int]:
    """Measured graded dimensions; with the flag, of the quotient by the
    two-sided ideal generated by the c_i."""
    gr._gate(T)
    if not quotient_by_c:
        return [gr.dim(j) for j in range(T + 1)]
    tables = IdealTables(gr, [gr.c(i) for i in range(gr.f)], T)
    return [gr.dim(j) - tables.dim(j) for j in range(T + 1)]


def check_hilbert(gr: GradedRing, T: int) -> dict:
    """Graded dimensions and c-quotient dimensions against the independent
    combinatorial oracles."""
    plain = hilbert_dims(gr, T, quotient_by_c=False)
    quot = hilbert_dims(gr, T, quotient_by_c=True)
    plain_oracle = hilbert_oracle(T, gr.f, quotient_by_c=False)
    quot_oracle = hilbert_oracle(T, gr.f, quotient_by_c=True)
    return {
        "cutoff": T,
        "graded_dims": plain,
        "graded_oracle": plain_oracle,
        "quotient_dims": quot,
        "quotient_oracle": quot_oracle,
        "ok": plain == plain_oracle and quot == quot_oracle,
    }


def check_central_power_classes(model: GroupModel, N: int) -> dict:
    """The p^N-th power classes a_i^(p^N), b_i^(p^N), c_i^(p^N) commute in gr
    with every degree-one generator and with each other, exactly: each
    graded commutator is read off two point products by
    GroupModel.bracket_terms, and any term up to its degree is a failure.
    A degree from p^M on is not faithful and raises CutoffBeyondFaithful."""
    q, w, n, f = model.p**N, model.two_omega, model.n, model.f
    names = [f"{'abc'[g // f]}{g % f}" for g in range(n)] + [f"gen{t}" for t in range(2 * f)]
    elts = [tuple(q * c for c in model.generator(g)) for g in range(n)] + [
        model.generator(t) for t in range(2 * f)]
    degrees = [q * wg for wg in w] + list(w[:2 * f])
    pairs = [(s, n + t) for s in range(n) for t in range(2 * f)] + [
        (s, t) for s in range(n) for t in range(s + 1, n)]
    for d in degrees[:n] + [degrees[s] + degrees[t] for s, t in pairs]:
        if d >= model.pM:
            raise CutoffBeyondFaithful(f"degree {d} reaches the unfaithful range (p^M = {model.pM})")
    failures = [{"power": names[s], "against": names[t]} for s, t in pairs
                if model.bracket_terms(elts[s], elts[t], degrees[s] + degrees[t])]
    return {"N": N, "pairs_checked": len(pairs), "failures": failures, "ok": not failures}


# -- chunk-and-remainder rewriting ----------------------------------------------


@dataclasses.dataclass
class TauTranscript:
    start: Digits
    N: int
    cutoff: int
    # the terms in rewrite order (pass, then index): the (terms, n) array of
    # the monomials rewritten, whose split and weights follow, and coefficients
    srcs: np.ndarray
    coeffs: np.ndarray
    # least weight below p^M left over; None when nothing below p^M is left
    residual_weight: int | None
    passes: int


def tau_exponents(alg: GroupAlgebra, exps: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk and remainder exponents of the rows of a (rows, n)
    exponent array X: X - X % p^N, multiples of p^N, and X % p^N."""
    frac = exps % alg.p**N
    return exps - frac, frac


def _row_minima(rows: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """The least of values on each row 0, ..., count - 1, rows ascending;
    -1 on a row that has none."""
    out = np.full(count, -1, dtype=np.int64)
    if rows.size:
        first = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        first = np.flatnonzero(first)
        out[rows[first]] = np.minimum.reduceat(values, first)
    return out


def _groups(sizes: list[int]) -> list[int]:
    """Cut points 0 = c_0 < c_1 < ... < c_m = len(sizes) that split the
    sizes into consecutive groups, taken greedily, each summing to _MERGE
    at most or holding one size alone."""
    cuts, total = [0], 0
    for j, size in enumerate(sizes):
        if total + size > _MERGE and j > cuts[-1]:
            cuts.append(j)
            total = 0
        total += size
    return cuts + [len(sizes)] if sizes else cuts


def _row_cuts(alg: GroupAlgebra, keys: np.ndarray, floor: int) -> list[int]:
    """The places in the row-keyed keys, ascending, where _expand cuts
    them into calls: whole rows, grouped by _groups on the cost of each
    row, p^M times its distinct prefixes (key // p^M) and floor at least."""
    new = np.ones(keys.size, dtype=bool)  # at the first key of each prefix
    prefix = keys // alg.pM
    np.not_equal(prefix[1:], prefix[:-1], out=new[1:])
    row = prefix // (alg.order // alg.pM)
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    sizes = np.maximum(alg.pM * np.add.reduceat(new, starts, dtype=np.int64), floor)
    return np.append(starts, keys.size)[_groups(sizes.tolist())].tolist()


def _expand(alg: GroupAlgebra, pieces, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """support_expansion at the cutoff of row-keyed support pairs (keys
    row order + index ascending, coefficients over F_p), each piece whole
    rows, rows ascending from piece to piece: the rows of a piece are
    joined into calls whose blocks stay within about _MERGE entries, and
    the rows of a call share its columns.  A row costs the block its
    first step spreads it over, p^M entries at most per distinct prefix
    (key // p^M), and at least the columns of its last step: one for
    every exponent of the first axis and every suffix monomial (k_0 = 0,
    the first order / p^M flat indices) of weight up to the cutoff.  A
    row over the budget goes alone."""
    suffixes = alg.nu_weight_array[:alg.order // alg.pM] <= cutoff
    floor = alg.pM * int(np.count_nonzero(suffixes))
    out = []
    for keys, coeffs in pieces:
        cuts = _row_cuts(alg, keys, floor)
        for lo, hi in zip(cuts, cuts[1:]):
            out.append(alg.support_expansion(keys[lo:hi], coeffs[lo:hi, None], cutoff))
    if not out:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty[:, None]
    return tuple(map(np.concatenate, zip(*out)))


def _rewrite_rows(alg: GroupAlgebra, exps: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The rewriting of the monomials z^x, x the rows of a (rows, n) array
    of weight below p^M, as rows 0, 1, ...: their words, split by
    tau_exponents, built by GroupAlgebra.zmul and expanded by _expand a
    row group at a time, the monomial terms below p^M as one row-keyed
    pair (row order + k, coefficient).  Raises ContractViolation, with x
    as witness, at the first row that breaks the contract nu(tau(x)) =
    nu(x) and tau(x) - x in m^(nu+1)."""
    order = alg.order
    flats = np.ravel_multi_index(exps.T, (alg.pM,) * alg.n)
    keys, weights, c = _expand(alg, alg.zmul(*tau_exponents(alg, exps, N)), alg.pM - 1)
    c = c[:, 0]
    row = keys // order
    w = alg.nu_weight_array[flats]
    # the terms up to weight nu'(x) are x alone, of coefficient 1: its
    # weight is kept and nothing else remains at it
    low = weights <= w[row]
    units = np.arange(len(exps)) * order + flats
    if keys[low].size == len(exps) and (keys[low] == units).all() and (c[low] == 1).all():
        return keys, c
    for r, x in enumerate(map(tuple, exps.tolist())):
        mine = row == r
        if keys[mine & low].tolist() != [units[r]] or c[mine & low].tolist() != [1]:
            if weights[mine].min(initial=w[r] + 1) != w[r]:
                raise ContractViolation(f"rewriting changed the weight of {x}", x)
            raise ContractViolation(f"rewriting perturbed {x} at its own weight", x)
    return keys, c


def tau_rewrite(alg: GroupAlgebra, exps: Digits, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial support pair below p^M of the monomial under the rewriting:
    all chunk factors (multiples of p^N) in basis order, then all
    remainders in basis order.  Verifies the contract nu(tau(x)) = nu(x)
    and tau(x) - x in m^(nu+1), raising ContractViolation with x as
    witness when it breaks.  A batch of one of the rewriting that
    iterate_taus makes for a whole pass."""
    exps = alg.model.check_digits(exps)
    w = alg.nu_prime(exps)
    if w >= alg.pM:
        raise CutoffBeyondFaithful(f"weight {w} of {exps} reaches the unfaithful range")
    return _rewrite_rows(alg, np.array([exps]), N)


def iterate_taus(alg: GroupAlgebra, starts: list[Digits], N: int,
                 cutoff: int) -> list[TauTranscript]:
    """Rewrite each start monomial and keep rewriting every surviving
    lowest-weight monomial until no term below p^M is left or the least
    one lies beyond the cutoff.  The minimal weight must rise strictly
    with every pass.  Each residual is a monomial support pair, as
    tau_rewrite returns them, merged by collect.

    All transcripts run in lockstep: the residuals are one support pair
    keyed by transcript order + index, and a pass rewrites the
    lowest-weight monomials of every transcript as the rows of one
    _rewrite_rows and merges them by one collect, its terms kept as arrays
    that one stable sort cuts into the transcripts.  Returns the
    transcripts, one per start; a break raises ContractViolation at the
    first in lockstep order, the earliest pass and then the first row
    (transcript, then index), which need not be the break that rewriting
    the starts one after another meets first.  One monomial is a batch
    of one."""
    if cutoff >= alg.pM:  # the rewriting reads its contract below p^M only
        raise CutoffBeyondFaithful(f"cutoff {cutoff} reaches the unfaithful range")
    starts = [alg.model.check_digits(x) for x in starts]
    order, nu_w = alg.order, alg.nu_weight_array
    keys = np.array([t * order + alg.model.index_of(x) for t, x in enumerate(starts)],
                    dtype=np.int64)
    coeffs = np.ones(keys.size, dtype=np.int64)
    # (transcript, monomial, coefficient) of the terms, a pass at a time
    terms = [(keys[:0], np.zeros((0, alg.n), dtype=np.int64), coeffs[:0])]
    residual: list[int | None] = [None] * len(starts)
    passes = np.zeros(len(starts), dtype=np.int64)
    rewrote = np.full(len(starts), -1)  # the weight of each transcript's last pass
    while keys.size:
        t = keys // order
        w = nu_w[keys - t * order]
        w0 = _row_minima(t, w, len(starts))  # -1 where nothing is left
        stuck = np.flatnonzero((w0 >= 0) & (w0 <= rewrote))
        if stuck.size:  # the last pass did not raise the least weight
            s = int(stuck[0])
            raise ContractViolation(f"pass {passes[s] - 1} on {starts[s]} failed to raise "
                                    f"the weight past {rewrote[s]}", starts[s])
        for tt in np.flatnonzero(w0 > cutoff).tolist():
            residual[tt] = int(w0[tt])
        least = w0[t]
        level = np.flatnonzero((w == least) & (least <= cutoff))
        if not level.size:
            break
        src_t, level_c = t[level], coeffs[level]
        exps = np.stack(np.unravel_index(keys[level] - src_t * order, (alg.pM,) * alg.n), axis=1)
        terms.append((src_t, exps, level_c))
        ks, c = _rewrite_rows(alg, exps, N)  # rows ascend with the transcript, then the index
        rt = ks // order  # the row, whose transcript is src_t[rt]
        keep = least <= cutoff
        keys, coeffs = alg.collect(np.concatenate([keys[keep], ks + (src_t[rt] - rt) * order]),
                                   np.concatenate([coeffs[keep], -level_c[rt] * c]))
        rewrote = np.where(w0 <= cutoff, w0, -1)
        passes += rewrote >= 0
    owner, srcs, cs = map(np.concatenate, zip(*terms))
    by = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[by], np.arange(len(starts) + 1)).tolist()
    return [TauTranscript(start=x, N=N, cutoff=cutoff, srcs=srcs[by[lo:hi]], coeffs=cs[by[lo:hi]],
                          residual_weight=residual[t], passes=int(passes[t]))
            for t, (x, lo, hi) in enumerate(zip(starts, cuts, cuts[1:]))]


def verify_transcripts(alg: GroupAlgebra, trs: list[TauTranscript]) -> list[bool]:
    """Build every emitted word again from its term's monomial, and confirm
    for each transcript (all of one N) the exact identity start = sum of
    terms + residual in group coordinates, with the residual's nu (read
    below p^M, as element_nu does) the transcript's residual weight and
    beyond the cutoff.  Each start z^start and then its terms' words are
    the rows of one GroupAlgebra.zmul, so nothing the rewriting built is
    read again; its row groups are rekeyed by transcript order + index
    into the residuals, one support pair merged by collect (_MERGE word
    entries at a time) and read by _expand."""
    if not trs:
        return []
    order = alg.order
    counts = np.array([len(tr.coeffs) for tr in trs])
    at = np.cumsum(counts) - counts  # where each transcript's terms begin
    chunks, fracs = tau_exponents(alg, np.concatenate([tr.srcs for tr in trs]), trs[0].N)
    chunks = np.insert(chunks, at, [tr.start for tr in trs], axis=0)
    fracs = np.insert(fracs, at, 0, axis=0)
    sign = np.insert(-np.concatenate([tr.coeffs for tr in trs]), at, 1)
    owner = np.repeat(np.arange(len(trs)), counts + 1)
    parts, pending = [], 0
    for keys, coeffs in alg.zmul(chunks, fracs):
        r = keys // order
        parts.append((keys + (owner[r] - r) * order, sign[r] * coeffs))
        pending += keys.size
        if pending > _MERGE:
            parts, pending = [alg.collect(*map(np.concatenate, zip(*parts)))], 0
    keys, coeffs = alg.collect(*map(np.concatenate, zip(*parts)))
    keys, weights, _ = _expand(alg, [(keys, coeffs)], alg.pM - 1)
    lowest = _row_minima(keys // order, weights, len(trs)).tolist()
    return [(None if v < 0 else v) == tr.residual_weight and (v < 0 or v > tr.cutoff)
            for v, tr in zip(lowest, trs)]


def chunk_weight_bound(alg: GroupAlgebra, src_weight: int | np.ndarray, N: int):
    """Least possible subring weight of the chunk part of a monomial of the
    given weight (an int or an array): p^N * m >= weight - 4f(p^N - 1)."""
    q = alg.p**N
    return -((4 * alg.model.f * (q - 1) - src_weight) // q)


def draw_row(rng: np.random.Generator, high: int, n: int, accept) -> Digits:
    """The first of the rows rng.integers(0, high, size=n), drawn one after
    another, that accept takes, with the generator left where those draws
    leave it.  accept maps a (B, n) block of rows to B booleans.

    Each entry is one bounded draw on the bit generator's stream (Lemire's
    method), so a (B, n) block holds the next B rows of n; the block is
    drawn at once, and a block with no accepted row has left the generator
    as its B rows would.  At the first accepted row j the state from before
    the block is put back and rows 0..j drawn again, which leaves the
    generator as the row-by-row loop (tests/sandwich_oracle.py) does."""
    size = _DRAW_FIRST
    while True:
        state = rng.bit_generator.state
        rows = rng.integers(0, high, size=(size, n))
        hit = np.flatnonzero(accept(rows))
        if hit.size:
            j = int(hit[0])
            rng.bit_generator.state = state
            rng.integers(0, high, size=(j + 1, n))
            return tuple(rows[j].tolist())
        size = min(2 * size, _DRAW_MAX)


def _transcripts(alg: GroupAlgebra, starts: list[Digits], N: int, cutoff: int, verify: bool):
    """The starts rewritten in order by iterate_taus, whose break raises,
    in lockstep batches of _BATCH starts: yields (lo, transcripts,
    verdicts) for the batch starts[lo:lo + _BATCH], the verdicts from
    verify_transcripts when verify is set (True otherwise).  A batch's
    residuals, terms and the word sums verify_transcripts merges grow
    with its count, whatever the group."""
    for lo in range(0, len(starts), _BATCH):
        trs = iterate_taus(alg, starts[lo:lo + _BATCH], N, cutoff)
        yield lo, trs, verify_transcripts(alg, trs) if verify else [True] * len(trs)


def _first_draws(alg: GroupAlgebra, k: int, N: int, rng: np.random.Generator, samples: int):
    """The draws of the first inclusion at index k, a sample at a time: u a
    sum of 1-3 subring monomials of the k-th filtration step, drawn one row
    at a time (nearly every row is accepted), and v a random 30-term
    element.  Returns the u's as (sample, coefficient, *exponents) rows and
    the v's as (sample, index, coefficient) arrays."""
    p, n, q, w = alg.p, alg.n, alg.p**N, alg.nu_weights
    top = p ** (alg.model.M - N)

    def sample_subring_exps() -> list[int]:
        while True:
            y = rng.integers(0, top, size=n).tolist()
            if sum(map(operator.mul, w, y)) >= k:
                return [q * v for v in y]

    draws, supports, values = [], [], []
    for r in range(samples):
        for _ in range(int(rng.integers(1, 4))):
            coeff = int(rng.integers(1, p))
            draws.append([r, coeff, *sample_subring_exps()])
        supports.append(rng.choice(alg.order, size=30, replace=False))
        values.append(rng.integers(0, p, size=30))
    draws = np.array(draws, dtype=np.int64).reshape(-1, 2 + n)
    vs = np.array([np.repeat(np.arange(samples), 30), np.ravel(supports), np.ravel(values)],
                  dtype=np.int64)
    return draws, vs


def _first_inclusion(alg: GroupAlgebra, k: int, N: int, samples: int, drawn) -> dict:
    """The first inclusion at index k on the draws of _first_draws, of
    samples samples: every product u v keeps weight >= k p^N.  The monomials of all u's
    are built by one GroupAlgebra._lucas_rows, keyed by sample and merged
    by one collect; each row group of products from GroupAlgebra.mul_rows
    is read at the window k p^N - 1 by _expand.  Returns the report,
    stopping at the first product that fails."""
    draws, vs = drawn
    order = alg.order
    row, idx, mono_c = alg._lucas_rows(draws[:, 2:])
    ukeys, uc = alg.collect(draws[row, 0] * order + idx, draws[row, 1] * mono_c)
    urows = ukeys // order
    # the v's, zero coefficients dropped
    for key, c in alg.mul_rows((urows, ukeys - urows * order, uc),
                               tuple(vs[:, vs[2] != 0]), samples):
        # a monomial term below k p^N puts a product outside m^(k p^N);
        # the first such key is in the first product that has one
        low = _expand(alg, [(key, c)], k * alg.p**N - 1)[0]
        if low.size:
            return {"samples": int(low[0]) // order + 1, "ok": False}
    return {"samples": samples, "ok": True}


def _in_window(alg: GroupAlgebra, k: int, N: int):
    """draw_row's accept for the second inclusion's monomials at index k:
    the rows of weight in [k p^N, min(p^M - 1, k p^N + 10)]."""
    w, lo = np.array(alg.nu_weights), k * alg.p**N
    hi = min(alg.pM - 1, lo + 10)

    def accept(rows: np.ndarray) -> np.ndarray:
        wx = rows @ w
        return (lo <= wx) & (wx <= hi)
    return accept


def _tally(alg: GroupAlgebra, N: int, reps: list[tuple[int, dict]], trs: list[TauTranscript],
           verified: list[bool]) -> None:
    """Count a batch of transcripts of the second inclusion into their
    reports: trs[i], with verdict verified[i], at the index k of reps[i] =
    (k, report).  A report fails with its first failing transcript and
    counts none after it.  All terms of the batch are read at once."""
    q, w = alg.p**N, np.array(alg.nu_weights)
    counts = np.array([len(tr.coeffs) for tr in trs])
    owner = np.repeat(np.arange(len(trs)), counts)
    srcs = np.concatenate([tr.srcs for tr in trs])
    chunk_w = (srcs // q) @ w  # nu'(chunk) / p^N
    margin = chunk_w - (np.array([k for k, _ in reps])[owner] - 4 * alg.model.f)
    bad = (chunk_w < chunk_weight_bound(alg, srcs @ w, N)) | (margin < 0)
    bad = np.bincount(owner[bad], minlength=len(trs)).tolist()
    least = _row_minima(owner, margin, len(trs)).tolist()  # read only where n > 0
    for (_, rep), n, m, b, ok in zip(reps, counts.tolist(), least, bad, verified):
        if rep["ok"]:
            rep["transcripts"] += 1
            rep["ok"] = ok and not b
            if ok and n:
                rep["monomials_touched"] += n
                old = rep["min_chunk_margin"]
                rep["min_chunk_margin"] = m if old is None else min(old, m)


def check_sandwich(alg: GroupAlgebra, ks, N: int, rng: np.random.Generator,
                   samples: int, mono_samples: int) -> list[dict]:
    """Both inclusions of the filtration sandwich at each index k of ks, one
    report per k, in order.

    First: products (element of the k-th subring filtration step) x (random
    ring element) keep weight >= k p^N (_first_inclusion).  Second: iterated
    rewriting of random monomials of weight >= k p^N expresses each as a
    combination of terms whose subring chunk has weight >= k - 4f, plus a
    residual beyond the cutoff p^M - 1, the faithful bound; every
    transcript is re-expanded and checked exactly.  A k with k p^N beyond
    the cutoff raises CutoffBeyondFaithful before anything is drawn; ks is
    read up to the first such k only.

    All draws come first, and a failure voids none of them: for every k
    in order its first-inclusion samples, then its monomials from
    draw_row (whose weight window accepts a few percent of the rows at
    most).  So the draws, the generator's final state and the reports of
    the other k do not depend on any k's verdict, and the reports are
    those of checking one k after another (tests/sandwich_oracle.py).
    Then each first inclusion runs up to its first failing product, and
    the monomials of all k are rewritten as one lockstep stream
    (_transcripts), each k's transcripts counted up to its first failing
    one.  A broken rewriting raises at its first break in lockstep order."""
    if alg.model.M <= N:
        raise ConfigError("need N < M")
    q, cutoff = alg.p**N, alg.pM - 1
    live = []
    for k in ks:
        if k * q > cutoff:
            raise CutoffBeyondFaithful(f"k p^N = {k * q} exceeds the cutoff {cutoff}")
        live.append(k)
    drawn, starts = [], []
    for k in live:
        drawn.append(_first_draws(alg, k, N, rng, samples))
        accept = _in_window(alg, k, N)
        starts += [draw_row(rng, alg.pM, alg.n, accept) for _ in range(mono_samples)]
    firsts = [_first_inclusion(alg, k, N, samples, d) for k, d in zip(live, drawn)]
    seconds = [{"transcripts": 0, "monomials_touched": 0, "min_chunk_margin": None,
                "ok": True} for _ in live]
    reps = [(k, rep) for k, rep in zip(live, seconds) for _ in range(mono_samples)]
    for lo, trs, verified in _transcripts(alg, starts, N, cutoff, verify=True):
        _tally(alg, N, reps[lo:lo + len(trs)], trs, verified)
    return [{"k": k, "N": N, "cutoff": cutoff, "first_inclusion": first,
             "second_inclusion": second, "ok": first["ok"] and second["ok"]}
            for k, first, second in zip(live, firsts, seconds)]


def check_tau_contract(alg: GroupAlgebra, N: int, rng: np.random.Generator,
                       samples: int) -> dict:
    """The rewriting preserves the weight and perturbs only above it, on
    every monomial touched by full iterated runs up to the faithful bound.
    The start monomials, rows other than the identity of weight below p^M,
    all come from draw_row first, as the row-by-row loop draws them; they
    are rewritten in lockstep batches, and a broken rewriting raises at its
    first break in lockstep order."""
    cutoff = alg.pM - 1
    w = np.array(alg.nu_weights)
    starts = [draw_row(rng, alg.pM, alg.n, lambda rows: rows.any(axis=1) & (rows @ w <= cutoff))
              for _ in range(samples)]
    # _rewrite_rows checks the contract on every rewrite and raises at the
    # first break; nothing verifies the identity start = terms + residual
    batches = _transcripts(alg, starts, N, cutoff, verify=False)
    checked = sum(len(tr.coeffs) for _, trs, _ in batches for tr in trs)
    return {"N": N, "monomials_checked": checked, "ok": True}
