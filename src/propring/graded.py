"""Associated graded ring of the truncated group ring, and the ring-level
checks built on it: centrality of p-th power classes, Hilbert data, ideal
specifications with their p^N-twists, the chunk-and-remainder rewriting of
monomials, and the filtration sandwich.

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
from .gf import GF, gf, in_span, rref
from .groups import Digits


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
        self._mats: dict[tuple[str, int, int], np.ndarray] = {}

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

    def exponents(self, j: int) -> list[Digits]:
        return [self.model.digits_of(int(k)) for k in self.weight_index(j)]

    def _gate(self, degree: int) -> None:
        if degree >= self.faithful:
            raise CutoffBeyondFaithful(
                f"degree {degree} reaches the unfaithful range (p^M = {self.faithful})"
            )

    # -- construction --------------------------------------------------------

    def one(self) -> GradedClass:
        return GradedClass(0, (1,))

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

    def degree_one_classes(self) -> list[GradedClass]:
        return [self.a(i) for i in range(self.f)] + [self.b(i) for i in range(self.f)]

    def ring_generator_classes(self) -> list[GradedClass]:
        return self.degree_one_classes() + [self.c(i) for i in range(self.f)]

    def c_span_ok(self, cls: GradedClass) -> bool:
        """Support contained in the c_i monomial positions (degree 2 only)."""
        if cls.degree != 2:
            return False
        cpos = {self.model.index_of(self._unit_exps(2 * self.f + i)) for i in range(self.f)}
        idx = self.weight_index(2)
        return all(c == 0 or int(idx[t]) in cpos for t, c in enumerate(cls.coords))

    # -- linear structure ----------------------------------------------------

    def add(self, x: GradedClass, y: GradedClass) -> GradedClass:
        assert x.degree == y.degree
        s = self.field.add[np.array(x.coords, dtype=np.int16), np.array(y.coords, dtype=np.int16)]
        return GradedClass(x.degree, tuple(int(c) for c in s))

    def scale(self, coeff: int, x: GradedClass) -> GradedClass:
        s = self.field.mul[coeff % self.field.q, np.array(x.coords, dtype=np.int16)]
        return GradedClass(x.degree, tuple(int(c) for c in s))

    def sub(self, x: GradedClass, y: GradedClass) -> GradedClass:
        return self.add(x, self.scale(int(self.field.neg[1]), y))

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

    def power(self, x: GradedClass, e: int) -> GradedClass:
        self._gate(x.degree * e)
        out = self.one()
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def commutator(self, x: GradedClass, y: GradedClass) -> GradedClass:
        return self.sub(self.mul(x, y), self.mul(y, x))

    # -- multiplication matrices (generators only) ----------------------------

    def mult_matrix(self, side: str, gi: int, d: int) -> np.ndarray:
        """Matrix of multiplication by ring generator class gi (left or
        right) from degree d, columns indexed by the weight-d monomials.
        Entries are prime-field structure constants."""
        w = 2 if gi >= 2 * self.f else 1
        self._gate(d + w)
        key = (side, gi, d)
        m = self._mats.get(key)
        if m is not None:
            return m
        alg = self.alg
        gen_dense = alg.of_group(self.model.generator(gi))

        def op(mono):
            if side == "right":
                return alg.zmul(mono, gi, 1)
            return (alg.mul(gen_dense, mono) - mono) % self.p

        nu_w = alg.nu_weight_array
        rows = np.nonzero(nu_w <= d + w)[0]
        cols = alg.monomial_columns(self.weight_index(d), rows, op)
        low = nu_w[rows] < d + w
        assert not cols[low].any()
        out = cols[~low]
        self._mats[key] = out
        return out


# -- ideal specifications ------------------------------------------------------

Term = tuple[tuple[int, ...], tuple[int, ...], int]  # (a-exponents, b-exponents, coeff)


@dataclasses.dataclass(frozen=True)
class IdealSpec:
    """Two-sided homogeneous ideal of the graded ring: polynomial generators
    in the degree-one classes (list of (m, n, coeff) terms each), plus,
    always implicitly, all the c_i."""

    f_gens: tuple[tuple[Term, ...], ...]
    name: str = ""

    def gen_degrees(self) -> list[int]:
        return [sum(g[0][0]) + sum(g[0][1]) for g in self.f_gens]


@dataclasses.dataclass(frozen=True)
class IdealSpecN:
    """p^N-twist of an IdealSpec: coefficients raised to the p^N-th power,
    exponents multiplied by p^N; the implicit c-part becomes c_i^(p^N)."""

    base: IdealSpec
    N: int
    f_gens: tuple[tuple[Term, ...], ...]


def _term_degree(t: Term) -> int:
    return sum(t[0]) + sum(t[1])


def ideal_spec(f_gens, f: int, name: str = "", homogenize: bool = False) -> IdealSpec:
    """Validate (or split) generators.  Each generator is an iterable of
    (a-exponents, b-exponents, coeff) terms; non-homogeneous generators are
    rejected, or split into their homogeneous components when homogenize is
    set (the smallest homogeneous ideal containing the input)."""
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
            if not homogenize:
                raise NonHomogeneousInput(
                    f"generator mixes degrees {degrees}; pass homogenize=True to split"
                )
            for d in degrees:
                out.append(tuple(t for t in terms if _term_degree(t) == d))
        else:
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


def evaluate_term(gr: GradedRing, t: Term) -> GradedClass:
    m, n, coeff = t
    out = gr.one()
    for i, e in enumerate(m):
        for _ in range(e):
            out = gr.mul(out, gr.a(i))
    for i, e in enumerate(n):
        for _ in range(e):
            out = gr.mul(out, gr.b(i))
    return gr.scale(coeff, out)


def evaluate_generator(gr: GradedRing, gen: tuple[Term, ...]) -> GradedClass:
    out = evaluate_term(gr, gen[0])
    for t in gen[1:]:
        out = gr.add(out, evaluate_term(gr, t))
    return out


def generator_classes(gr: GradedRing, spec: IdealSpec | IdealSpecN) -> list[GradedClass]:
    """All ideal generators as graded classes, including the implicit
    c-part (c_i for a plain spec, c_i^(p^N) for a twisted one)."""
    out = [evaluate_generator(gr, gen) for gen in spec.f_gens]
    if isinstance(spec, IdealSpecN):
        q = gr.p**spec.N
        out += [gr.power(gr.c(i), q) for i in range(gr.f)]
    else:
        out += [gr.c(i) for i in range(gr.f)]
    return out


def build_JN(spec: IdealSpec, N: int, field: GF) -> IdealSpecN:
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
    return IdealSpecN(base=spec, N=N, f_gens=tuple(gens))


class IdealTables:
    """Degree-indexed subspaces of the two-sided ideal generated by
    homogeneous classes: the span at each degree is closed under left and
    right multiplication by the ring generator classes, built once and then
    read-only."""

    def __init__(self, gr: GradedRing, gens: list[GradedClass], cutoff: int):
        gr._gate(cutoff)
        self.gr = gr
        self.cutoff = cutoff
        self.tables: dict[int, tuple[np.ndarray, list[int]]] = {}
        field = gr.field
        by_degree: dict[int, list[np.ndarray]] = {}
        for g in gens:
            if not g.is_zero():
                by_degree.setdefault(g.degree, []).append(
                    np.array(g.coords, dtype=np.int16)
                )
        ring_gens = gr.ring_generator_classes()
        for d in range(cutoff + 1):
            cand = list(by_degree.get(d, []))
            for gi in range(len(ring_gens)):
                w = 2 if gi >= 2 * gr.f else 1
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

    def contains(self, cls: GradedClass) -> bool:
        if cls.degree > self.cutoff:
            raise CutoffBeyondFaithful(
                f"tables built through degree {self.cutoff}, element has degree {cls.degree}"
            )
        basis, piv = self.tables[cls.degree]
        return in_span(np.array(cls.coords, dtype=np.int16), basis, piv, self.gr.field)


# -- ring-level checks ---------------------------------------------------------


def check_centrality(gr: GradedRing, cls: GradedClass, T: int) -> bool:
    """Bracket of cls against every degree-one generator class vanishes;
    the brackets live through weight T at most."""
    if cls.degree + 1 > T:
        raise CutoffBeyondFaithful(f"degree {cls.degree} + 1 exceeds the cutoff {T}")
    gr._gate(T)
    return all(gr.commutator(cls, g).is_zero() for g in gr.degree_one_classes())


def check_power_commutator_identity(
    gr: GradedRing, i: int, x: GradedClass, ell: int, T: int
) -> bool:
    """[a_i^l, x] = l a_i^(l-1) [a_i, x] as classes in degree l + deg x."""
    if ell * 1 + x.degree + 1 > T:
        raise CutoffBeyondFaithful(f"l + deg + 1 exceeds the cutoff {T}")
    gr._gate(T)
    ai = gr.a(i)
    lhs = gr.commutator(gr.power(ai, ell), x)
    rhs = gr.scale(ell % gr.p, gr.mul(gr.power(ai, ell - 1), gr.commutator(ai, x)))
    return lhs == rhs


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


def check_regular_central_sequence(gr: GradedRing, T: int) -> dict:
    """The c_i are central and multiplication by c_i is injective on the
    quotient by (c_0, ..., c_(i-1)) in every degree through T - 2."""
    gr._gate(T)
    field = gr.field
    central = all(check_centrality(gr, gr.c(i), T) for i in range(gr.f))
    injective = True
    witness = None
    for i in range(gr.f):
        prev = IdealTables(gr, [gr.c(t) for t in range(i)], T) if i else None
        for d in range(T - 1):
            lm = gr.mult_matrix("left", 2 * gr.f + i, d)
            image = lm.T  # rows: c_i * (basis monomial)
            if prev is None:
                ok = gflib.rank(image, field) == gr.dim(d)
            else:
                below, below_rank = prev.tables[d][0], prev.dim(d)
                above_rank = prev.dim(d + 2)
                stacked = np.concatenate([prev.tables[d + 2][0], image])
                ok = gflib.rank(stacked, field) - above_rank == gr.dim(d) - below_rank
            if not ok:
                injective = False
                witness = {"c": i, "degree": d}
                break
    return {"central": central, "injective": injective, "witness": witness, "ok": central and injective}


def check_central_power_classes(gr: GradedRing, N: int) -> dict:
    """The p^N-th power classes a_i^(p^N), b_i^(p^N), c_i^(p^N) commute with
    every degree-one generator and with each other, exactly (all degrees
    involved stay below the faithful bound)."""
    q = gr.p**N
    powers = (
        [("a", i, gr.power(gr.a(i), q)) for i in range(gr.f)]
        + [("b", i, gr.power(gr.b(i), q)) for i in range(gr.f)]
        + [("c", i, gr.power(gr.c(i), q)) for i in range(gr.f)]
    )
    failures = []
    for kind, i, cls in powers:
        for t, g in enumerate(gr.degree_one_classes()):
            if not gr.commutator(cls, g).is_zero():
                failures.append({"power": f"{kind}{i}", "against": f"gen{t}"})
    for s in range(len(powers)):
        for t in range(s + 1, len(powers)):
            if not gr.commutator(powers[s][2], powers[t][2]).is_zero():
                failures.append(
                    {"power": f"{powers[s][0]}{powers[s][1]}", "against": f"{powers[t][0]}{powers[t][1]}"}
                )
    return {"N": N, "pairs_checked": len(powers) * (2 * gr.f) + len(powers) * (len(powers) - 1) // 2,
            "failures": failures, "ok": not failures}


def check_commutative_quotient(gr: GradedRing, spec: IdealSpec, cutoff: int = 2) -> bool:
    """All brackets of degree-one generators land in the ideal (so the
    quotient is commutative through the checked degree)."""
    tables = IdealTables(gr, generator_classes(gr, spec), cutoff)
    ones = gr.degree_one_classes()
    return all(
        tables.contains(gr.commutator(x, y)) for x in ones for y in ones
    )


def check_JN_in_J(gr: GradedRing, spec: IdealSpec, N: int, cutoff: int | None = None) -> dict:
    """Every generator of the twisted ideal lies in the degreewise span of
    the original one (which is enough: the span tables are two-sided)."""
    twisted = build_JN(spec, N, gr.field)
    gens_N = generator_classes(gr, twisted)
    if cutoff is None:
        cutoff = max(g.degree for g in gens_N)
    tables = IdealTables(gr, generator_classes(gr, spec), cutoff)
    misses = []
    for g in gens_N:
        if g.degree > cutoff:
            continue
        if not tables.contains(g):
            misses.append(g.degree)
    return {"ideal": spec.name, "N": N, "cutoff": cutoff, "misses": misses, "ok": not misses}


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
    residual_weight: int | None  # None when the rewriting terminated exactly
    passes: int


def tau_exponents(alg: GroupAlgebra, exps: Digits, N: int) -> tuple[Digits, Digits]:
    q = alg.p**N
    chunk = tuple((e // q) * q for e in exps)
    frac = tuple(e % q for e in exps)
    return chunk, frac


def tau_word(alg: GroupAlgebra, exps: Digits, N: int) -> list[tuple[int, int]]:
    chunk, frac = tau_exponents(alg, exps, N)
    word = [(i, e) for i, e in enumerate(chunk) if e]
    word += [(i, e) for i, e in enumerate(frac) if e]
    return word


def tau_rewrite(alg: GroupAlgebra, exps: Digits, N: int, verify: bool = True) -> np.ndarray:
    """Dense image of the monomial under the rewriting: all chunk factors
    (multiples of p^N) in basis order, then all remainders in basis order.
    Verifies the contract nu(tau(x)) = nu(x) and tau(x) - x in m^(nu+1),
    raising ContractViolation with x as witness when it breaks."""
    exps = alg.model.check_digits(exps)
    dense = alg.word_mul(alg.of_group(alg.model.identity), tau_word(alg, exps, N))
    if verify:
        w = alg.nu_prime(exps)
        if alg.nu(dense) != w:
            raise ContractViolation(f"rewriting changed the weight of {exps}", exps)
        diff = (dense - alg.monomial(exps)) % alg.p
        if diff.any() and not alg.in_filtration(diff, w + 1):
            raise ContractViolation(f"rewriting perturbed {exps} at its own weight", exps)
    return dense


def iterate_tau(alg: GroupAlgebra, exps: Digits, N: int, cutoff: int) -> TauTranscript:
    """Rewrite the monomial and keep rewriting every surviving lowest-weight
    monomial until the residual vanishes or leaves the cutoff range.  The
    minimal weight must rise strictly with every pass."""
    exps = alg.model.check_digits(exps)
    nu_w = alg.nu_weight_array
    residual = alg.monomial(exps)
    terms: list[TauTerm] = []
    passes = 0
    residual_weight: int | None = None
    while True:
        mono = alg.to_monomial(residual)
        hit = np.nonzero(mono)[0]
        if hit.size == 0:
            residual_weight = None
            break
        w0 = int(nu_w[hit].min())
        if w0 > cutoff:
            residual_weight = w0
            break
        level = hit[nu_w[hit] == w0]
        for idx in level:
            k = alg.model.digits_of(int(idx))
            coeff = int(mono[idx])
            chunk, frac = tau_exponents(alg, k, N)
            dense = tau_rewrite(alg, k, N, verify=True)
            cw = alg.nu_prime(chunk) // (alg.p**N)
            terms.append(TauTerm(coeff=coeff, chunk=chunk, frac=frac, src=k,
                                 src_weight=w0, chunk_weight=cw))
            residual = (residual - coeff * dense) % alg.p
        mono = alg.to_monomial(residual)
        hit = np.nonzero(mono)[0]
        if hit.size and int(nu_w[hit].min()) <= w0:
            raise ContractViolation(
                f"pass {passes} on {exps} failed to raise the weight past {w0}", exps)
        passes += 1
    return TauTranscript(start=exps, N=N, cutoff=cutoff, terms=terms,
                         residual_weight=residual_weight, passes=passes)


def verify_transcript(alg: GroupAlgebra, tr: TauTranscript) -> bool:
    """Re-expand every emitted word independently and confirm the exact
    identity start = sum of terms + residual, with the residual supported
    beyond the cutoff."""
    total = alg.zero().astype(np.int64)
    for t in tr.terms:
        word = [(i, e) for i, e in enumerate(t.chunk) if e]
        word += [(i, e) for i, e in enumerate(t.frac) if e]
        total += t.coeff * alg.word_mul(alg.of_group(alg.model.identity), word)
    residual = (alg.monomial(tr.start) - total) % alg.p
    residual = residual.astype(np.int16)
    v = alg.nu(residual)
    if tr.residual_weight is None:
        return v is None
    return v == tr.residual_weight and v > tr.cutoff


def chunk_weight_bound(alg: GroupAlgebra, src_weight: int, N: int) -> int:
    """Least possible subring weight of the chunk part of a monomial of the
    given weight: p^N * m >= weight - 4f(p^N - 1)."""
    q = alg.p**N
    return math.ceil((src_weight - 4 * alg.model.f * (q - 1)) / q)


def check_sandwich(alg: GroupAlgebra, k: int, N: int, rng: np.random.Generator,
                   samples: int = 200, mono_samples: int = 50,
                   cutoff: int | None = None) -> dict:
    """Both inclusions of the filtration sandwich at index k.

    First: products (element of the k-th subring filtration step) x (random
    ring element) keep weight >= k p^N.  Second: iterated rewriting of random
    monomials of weight >= k p^N expresses each as a combination of terms
    whose subring chunk has weight >= k - 4f, plus a residual beyond the
    cutoff; every transcript is re-expanded and checked exactly."""
    model = alg.model
    p, n, q = alg.p, alg.n, alg.p**N
    if model.M <= N:
        raise ConfigError("need N < M")
    if cutoff is None:
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

    first_checked = 0
    first_ok = True
    for _ in range(samples):
        u = alg.zero().astype(np.int64)
        for _ in range(int(rng.integers(1, 4))):
            coeff = int(rng.integers(1, p))
            u += coeff * alg.monomial(sample_subring_exps())
        u = (u % p).astype(np.int16)
        v = alg.zero()
        support = rng.choice(alg.order, size=30, replace=False)
        v[support] = rng.integers(0, p, size=30)
        w = alg.mul(u, v)
        val = alg.nu(w)
        first_checked += 1
        if val is not None and val < k * q:
            first_ok = False
            break

    second_ok = True
    transcripts = 0
    terms_total = 0
    min_chunk_margin = None
    touched = 0
    for _ in range(mono_samples):
        while True:
            x = tuple(int(v) for v in rng.integers(0, alg.pM, size=n))
            wx = alg.nu_prime(x)
            if k * q <= wx <= min(cutoff, k * q + 10):
                break
        tr = iterate_tau(alg, x, N, cutoff)
        transcripts += 1
        if not verify_transcript(alg, tr):
            second_ok = False
            break
        for t in tr.terms:
            touched += 1
            terms_total += 1
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
            "transcripts": transcripts, "terms": terms_total,
            "monomials_touched": touched,
            "min_chunk_margin": min_chunk_margin, "ok": second_ok,
        },
        "ok": first_ok and second_ok,
    }


def check_tau_contract(alg: GroupAlgebra, N: int, rng: np.random.Generator,
                       samples: int = 50, cutoff: int | None = None) -> dict:
    """The rewriting preserves the weight and perturbs only above it, on
    every monomial touched by full iterated runs."""
    if cutoff is None:
        cutoff = alg.pM - 1
    n = alg.n
    checked = 0
    done = 0
    while done < samples:
        x = tuple(int(v) for v in rng.integers(0, alg.pM, size=n))
        if not any(x) or alg.nu_prime(x) > cutoff:
            continue
        tr = iterate_tau(alg, x, N, cutoff)  # rewrites verify per call
        checked += len(tr.terms)
        done += 1
    return {"N": N, "monomials_checked": checked, "ok": True}


def check_pigeonhole(gr: GradedRing, spec: IdealSpec, N: int,
                     rng: np.random.Generator, samples: int = 25,
                     cutoff: int | None = None) -> dict:
    """Desk-scale shadow of the pigeonhole step: a product of (f + n) p^N
    ideal generators always repeats one of them p^N times, and its class
    lies in the twisted ideal plus the c-part; the twist congruence
    f_i^(p^N) = twisted f_i modulo the c-ideal is verified exactly."""
    q = gr.p**N
    twisted = build_JN(spec, N, gr.field)
    f_classes = [evaluate_generator(gr, g) for g in spec.f_gens]
    ft_classes = [evaluate_generator(gr, g) for g in twisted.f_gens]
    c_classes = [gr.c(i) for i in range(gr.f)]
    cq_classes = [gr.power(gr.c(i), q) for i in range(gr.f)]

    congruence_ok = True
    c_cut = max([q * c.degree for c in f_classes], default=2)
    if cutoff is not None:
        c_cut = min(c_cut, cutoff)
    c_tables = IdealTables(gr, c_classes, c_cut)
    for fc, ftc in zip(f_classes, ft_classes):
        diff = gr.sub(gr.power(fc, q), ftc)
        if not diff.is_zero() and not c_tables.contains(diff):
            congruence_ok = False

    gens = f_classes + c_classes
    count = (gr.f + len(f_classes)) * q
    max_deg = count * max(g.degree for g in gens)
    if cutoff is None:
        cutoff = min(max_deg, gr.faithful - 1)
    target = IdealTables(gr, ft_classes + cq_classes + c_classes, cutoff)
    drawn = 0
    skipped = 0
    member_ok = True
    pigeon_ok = True
    for _ in range(samples):
        draw = [int(t) for t in rng.integers(0, len(gens), size=count)]
        if max(draw.count(t) for t in set(draw)) < q:
            pigeon_ok = False
        degree = sum(gens[t].degree for t in draw)
        if degree > cutoff:
            skipped += 1
            continue
        prod = gr.one()
        for t in draw:
            prod = gr.mul(prod, gens[t])
        drawn += 1
        if not prod.is_zero() and not target.contains(prod):
            member_ok = False
    return {
        "ideal": spec.name, "N": N, "factors": count, "cutoff": cutoff,
        "products_checked": drawn, "products_skipped": skipped,
        "pigeonhole_ok": pigeon_ok, "congruence_ok": congruence_ok,
        "membership_ok": member_ok,
        "ok": pigeon_ok and congruence_ok and member_ok,
    }
