"""The chunk-and-remainder rewriting in group coordinates: the test oracle
for graded.tau_rewrite and graded.iterate_tau.

tau_rewrite returns the dense image of the rewritten word and checks the
contract by transforming that image and its difference from the dense
monomial; iterate_tau keeps its residual as a dense group-coordinate
vector and transforms it back to monomial coordinates twice per pass.
The library keeps support pairs throughout and reads each rewritten word
below p^M only, by GroupAlgebra.support_expansion; both share only the
transcript types.  The word is zmul_oracle.tau_word.  below_faithful and
read_residual read the oracle's answers on the weights below p^M, as the
library gives them."""

import dataclasses

import numpy as np

from propring.errors import ContractViolation
from propring.graded import TauTranscript

from transform_oracle import of_group
from zmul_oracle import tau_word, word_mul


def in_filtration(alg, a, j):
    """Membership of the dense vector a in span{z^k : nu'(k) >= j}
    (= m^j once certified)."""
    c = alg.to_monomial(a)
    return not c[alg.nu_weight_array < j].any()


def below_faithful(alg, dense):
    """Monomial coordinates of the dense vector, zero from weight p^M on."""
    c = alg.to_monomial(dense)
    c[alg.nu_weight_array >= alg.pM] = 0
    return c


def read_residual(alg, tr):
    """The transcript with a residual weight of p^M or more read as None:
    nothing is left below p^M."""
    if tr.residual_weight is not None and tr.residual_weight >= alg.pM:
        return dataclasses.replace(tr, residual_weight=None)
    return tr


def tau_rewrite(alg, exps, N, verify=True):
    """Dense (group-coordinate) image of the monomial under the rewriting;
    with verify, the contract nu(tau(x)) = nu(x) and tau(x) - x in
    m^(nu+1), raising ContractViolation with x as witness."""
    exps = alg.model.check_digits(exps)
    dense = word_mul(alg, of_group(alg, alg.model.identity), tau_word(alg, exps, N))
    if verify:
        w = alg.nu_prime(exps)
        if alg.nu(dense) != w:
            raise ContractViolation(f"rewriting changed the weight of {exps}", exps)
        diff = (dense - alg.monomial(exps)) % alg.p
        if diff.any() and not in_filtration(alg, diff, w + 1):
            raise ContractViolation(f"rewriting perturbed {exps} at its own weight", exps)
    return dense


def iterate_tau(alg, exps, N, cutoff):
    """The iterated rewriting with a dense residual, transformed to monomial
    coordinates to pick each pass's level and again to check its rise."""
    exps = alg.model.check_digits(exps)
    nu_w = alg.nu_weight_array
    residual = alg.monomial(exps)
    srcs, coeffs = [], []
    passes = 0
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
        for idx in hit[nu_w[hit] == w0]:
            k = alg.model.digits_of(int(idx))
            coeff = int(mono[idx])
            dense = tau_rewrite(alg, k, N)
            srcs.append(k)
            coeffs.append(coeff)
            residual = (residual - coeff * dense) % alg.p
        mono = alg.to_monomial(residual)
        hit = np.nonzero(mono)[0]
        if hit.size and int(nu_w[hit].min()) <= w0:
            raise ContractViolation(
                f"pass {passes} on {exps} failed to raise the weight past {w0}", exps)
        passes += 1
    return TauTranscript(start=exps, N=N, cutoff=cutoff,
                         srcs=np.array(srcs, dtype=np.int64).reshape(-1, alg.n),
                         coeffs=np.array(coeffs, dtype=np.int64),
                         residual_weight=residual_weight, passes=passes)
