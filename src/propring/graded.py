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
import math

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


# word entries verify_transcript merges at a time, which bounds its
# transients to a few MB however long the transcript
_MERGE = 1 << 16
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
        out = np.zeros(self.dim(degree), dtype=np.int16)
        for e1 in range(self.f):
            xc = (xa // p**e1) % p
            if not xc.any():
                continue
            for e2 in range(self.f):
                yc = (ya // p**e2) % p
                if not yc.any():
                    continue
                unit = F.mul[p**e1, p**e2]  # index of the basis product x^(e1+e2)
                comp = self._mul_fp(x.degree, xc, y.degree, yc)
                out = F.add[out, F.mul[unit, comp]]
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


@dataclasses.dataclass(frozen=True)
class TauTerm:
    coeff: int
    chunk: Digits  # exponents divisible by p^N; a monomial of the subring
    frac: Digits  # exponents below p^N
    src: Digits  # the monomial this term rewrites
    src_weight: int
    chunk_weight: int  # subring weight: nu'(chunk) / p^N


@dataclasses.dataclass
class TauTranscript:
    start: Digits
    N: int
    cutoff: int
    terms: list[TauTerm]
    # least weight below p^M left over; None when nothing below p^M is left
    residual_weight: int | None
    passes: int


def tau_exponents(alg: GroupAlgebra, exps: Digits, N: int) -> tuple[Digits, Digits]:
    q = alg.p**N
    chunk = tuple((e // q) * q for e in exps)
    frac = tuple(e % q for e in exps)
    return chunk, frac


def term_word(chunk: Digits, frac: Digits) -> list[tuple[int, int]]:
    """The word of a rewriting term: the chunk factors in basis order, then
    the remainders in basis order."""
    return [(i, e) for i, e in enumerate(chunk) if e] + [(i, e) for i, e in enumerate(frac) if e]


def tau_word(alg: GroupAlgebra, exps: Digits, N: int) -> list[tuple[int, int]]:
    return term_word(*tau_exponents(alg, exps, N))


def tau_rewrite(alg: GroupAlgebra, exps: Digits, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial support pair below p^M of the monomial under the rewriting:
    all chunk factors (multiples of p^N) in basis order, then all
    remainders in basis order.  Verifies the contract nu(tau(x)) = nu(x)
    and tau(x) - x in m^(nu+1), raising ContractViolation with x as
    witness when it breaks."""
    exps = alg.model.check_digits(exps)
    w, flat = alg.nu_prime(exps), alg.model.index_of(exps)
    if w >= alg.pM:
        raise CutoffBeyondFaithful(f"weight {w} of {exps} reaches the unfaithful range")
    idx, coeffs = alg.word_mul(tau_word(alg, exps, N))
    ks, weights, c = alg.support_expansion(idx, coeffs[:, None], alg.pM - 1)
    if not ks.size or weights.min() != w:
        raise ContractViolation(f"rewriting changed the weight of {exps}", exps)
    # less the unit vector at x, nothing may remain at weight w
    at_w = weights == w
    if ks[at_w].tolist() != [flat] or c[at_w, 0].tolist() != [1]:
        raise ContractViolation(f"rewriting perturbed {exps} at its own weight", exps)
    return ks, c[:, 0]


def iterate_tau(alg: GroupAlgebra, exps: Digits, N: int, cutoff: int) -> TauTranscript:
    """Rewrite the monomial and keep rewriting every surviving lowest-weight
    monomial until no term below p^M is left or the least one lies beyond
    the cutoff.  The minimal weight must rise strictly with every pass.
    The residual is a monomial support pair, as tau_rewrite returns them,
    merged by collect."""
    exps = alg.model.check_digits(exps)
    nu_w = alg.nu_weight_array
    idx, coeffs = np.array([alg.model.index_of(exps)]), np.ones(1, dtype=np.int64)
    terms: list[TauTerm] = []
    passes = 0
    while True:
        w0 = int(nu_w[idx].min()) if idx.size else None
        if w0 is None or w0 > cutoff:
            break
        parts = [(idx, coeffs)]
        level = nu_w[idx] == w0
        for flat, coeff in zip(idx[level].tolist(), coeffs[level].tolist()):
            k = alg.model.digits_of(flat)
            chunk, frac = tau_exponents(alg, k, N)
            cw = alg.nu_prime(chunk) // (alg.p**N)
            terms.append(TauTerm(coeff=coeff, chunk=chunk, frac=frac, src=k,
                                 src_weight=w0, chunk_weight=cw))
            ks, c = tau_rewrite(alg, k, N)
            parts.append((ks, -coeff * c))
        idx, coeffs = alg.collect(*map(np.concatenate, zip(*parts)))
        if idx.size and int(nu_w[idx].min()) <= w0:
            raise ContractViolation(
                f"pass {passes} on {exps} failed to raise the weight past {w0}", exps)
        passes += 1
    return TauTranscript(start=exps, N=N, cutoff=cutoff, terms=terms,
                         residual_weight=w0, passes=passes)


def verify_transcript(alg: GroupAlgebra, tr: TauTranscript) -> bool:
    """Build every emitted word again from its term's chunk and remainder,
    and confirm the exact identity start = sum of terms + residual in group
    coordinates, with the residual's nu (element_nu, read below p^M) the
    transcript's residual weight and beyond the cutoff.  A word equal to
    the one tau_word built reuses word_mul's memoized expansion, which is
    deterministic; a word that differs misses the memo."""
    parts, pending = [alg.monomial_support(tr.start)], 0
    for t in tr.terms:
        idx, coeffs = alg.word_mul(term_word(t.chunk, t.frac))
        parts.append((idx, -t.coeff * coeffs))
        pending += idx.size
        if pending > _MERGE:
            parts, pending = [alg.collect(*map(np.concatenate, zip(*parts)))], 0
    idx, coeffs = alg.collect(*map(np.concatenate, zip(*parts)))
    v = alg.element_nu(idx, coeffs[:, None])
    return v == tr.residual_weight and (v is None or v > tr.cutoff)


def chunk_weight_bound(alg: GroupAlgebra, src_weight: int, N: int) -> int:
    """Least possible subring weight of the chunk part of a monomial of the
    given weight: p^N * m >= weight - 4f(p^N - 1)."""
    q = alg.p**N
    return math.ceil((src_weight - 4 * alg.model.f * (q - 1)) / q)


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


def _stack_rows(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """The (row, index, coefficient) arrays of GroupAlgebra.mul_rows holding
    the r-th support pair as row r."""
    empty = np.zeros(0, dtype=np.int64)
    return (np.repeat(np.arange(len(pairs)), [idx.size for idx, _ in pairs]),
            np.concatenate([empty] + [idx for idx, _ in pairs]),
            np.concatenate([empty] + [c for _, c in pairs]))


def check_sandwich(alg: GroupAlgebra, k: int, N: int, rng: np.random.Generator,
                   samples: int, mono_samples: int) -> dict:
    """Both inclusions of the filtration sandwich at index k.

    First: products (element of the k-th subring filtration step) x (random
    ring element) keep weight >= k p^N.  Second: iterated rewriting of random
    monomials of weight >= k p^N expresses each as a combination of terms
    whose subring chunk has weight >= k - 4f, plus a residual beyond the
    cutoff p^M - 1, the faithful bound; every transcript is re-expanded and
    checked exactly.

    The first inclusion draws its subring monomials one row at a time
    (nearly every row is accepted) and reads their support pairs through
    the monomial_support memo.  The second inclusion's monomials, whose
    weight window accepts a few percent of the rows at most, come from
    draw_row, which draws rows in blocks and leaves the generator as the
    row-by-row loop does."""
    model = alg.model
    p, n, q = alg.p, alg.n, alg.p**N
    if model.M <= N:
        raise ConfigError("need N < M")
    cutoff = alg.pM - 1
    if k * q > cutoff:
        raise CutoffBeyondFaithful(f"k p^N = {k * q} exceeds the cutoff {cutoff}")
    weights = alg.nu_weights
    top = p ** (model.M - N)

    def sample_subring_exps() -> Digits:
        while True:
            y = tuple(int(v) for v in rng.integers(0, top, size=n))
            if sum(w * v for w, v in zip(weights, y)) >= k:
                return tuple(q * v for v in y)

    # the draws of a sample at a time, u a sum of 1-3 subring monomials and
    # v a random 30-term element, as support pairs; the generator's state
    # after each sample is kept, so that a failure at sample j can leave it
    # where the draws of sample j left it
    us, vs, states = [], [], []
    for _ in range(samples):
        idx, c = [], []
        for _ in range(int(rng.integers(1, 4))):
            coeff = int(rng.integers(1, p))
            mono_idx, mono_c = alg.monomial_support(sample_subring_exps())
            idx.append(mono_idx)
            c.append(coeff * mono_c)
        us.append(alg.collect(np.concatenate(idx), np.concatenate(c)))
        support = rng.choice(alg.order, size=30, replace=False)
        c = rng.integers(0, p, size=30)
        vs.append((support[c != 0], c[c != 0]))
        states.append(rng.bit_generator.state)

    first_checked = 0
    first_ok = True
    for idx, c in alg.mul_rows(_stack_rows(us), _stack_rows(vs), samples):
        first_checked += 1
        # a monomial term below k p^N puts the product outside m^(k p^N)
        if alg.support_expansion(idx, c[:, None], k * q - 1)[0].size:
            first_ok = False
            rng.bit_generator.state = states[first_checked - 1]
            break

    second_ok = True
    transcripts = 0
    min_chunk_margin = None
    touched = 0
    w = np.array(weights)
    hi = min(cutoff, k * q + 10)

    def in_window(rows: np.ndarray) -> np.ndarray:
        wx = rows @ w
        return (k * q <= wx) & (wx <= hi)

    for _ in range(mono_samples):
        x = draw_row(rng, alg.pM, n, in_window)
        tr = iterate_tau(alg, x, N, cutoff)
        transcripts += 1
        if not verify_transcript(alg, tr):
            second_ok = False
            break
        for t in tr.terms:
            touched += 1
            if t.chunk_weight < chunk_weight_bound(alg, t.src_weight, N):
                second_ok = False
            margin = t.chunk_weight - (k - 4 * model.f)
            if margin < 0:
                second_ok = False
            if min_chunk_margin is None or margin < min_chunk_margin:
                min_chunk_margin = margin
        if not second_ok:
            break
    return {
        "k": k, "N": N, "cutoff": cutoff,
        "first_inclusion": {"samples": first_checked, "ok": first_ok},
        "second_inclusion": {
            "transcripts": transcripts, "monomials_touched": touched,
            "min_chunk_margin": min_chunk_margin, "ok": second_ok,
        },
        "ok": first_ok and second_ok,
    }


def check_tau_contract(alg: GroupAlgebra, N: int, rng: np.random.Generator,
                       samples: int) -> dict:
    """The rewriting preserves the weight and perturbs only above it, on
    every monomial touched by full iterated runs up to the faithful bound.
    The start monomials, rows other than the identity of weight below p^M,
    come from draw_row, with the draws and the generator's final state of
    the row-by-row loop."""
    cutoff = alg.pM - 1
    w = np.array(alg.nu_weights)
    checked = 0
    for _ in range(samples):
        x = draw_row(rng, alg.pM, alg.n,
                     lambda rows: rows.any(axis=1) & (rows @ w <= cutoff))
        tr = iterate_tau(alg, x, N, cutoff)  # rewrites verify per call
        checked += len(tr.terms)
    return {"N": N, "monomials_checked": checked, "ok": True}
