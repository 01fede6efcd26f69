"""The chunk-and-remainder rewriting in group coordinates: the test oracle
for graded.tau_rewrite and graded.iterate_taus.

tau_rewrite returns the dense image of the rewritten word and checks the
contract by transforming that image and its difference from the dense
monomial; iterate_tau keeps its residual as a dense group-coordinate
vector and transforms it back to monomial coordinates twice per pass.
The library keeps support pairs throughout and reads each rewritten word
below p^M only, by GroupAlgebra.support_expansion; both share only the
transcript record (batch_of_one.Transcript).  The word is
zmul_oracle.tau_word.  below_faithful reads the oracle's answers on the
weights below p^M, as the library gives them."""

import numpy as np

from propring.errors import ContractViolation

from batch_of_one import Transcript
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


def iterate_tau(alg, exps, N):
    """The iterated rewriting with a dense residual, transformed to monomial
    coordinates to pick each pass's level and again to check its rise,
    until nothing below p^M is left."""
    exps = alg.model.check_digits(exps)
    nu_w = alg.nu_weight_array
    residual = alg.monomial(exps)
    srcs, coeffs = [], []
    passes = 0
    while True:
        mono = below_faithful(alg, residual)
        hit = np.nonzero(mono)[0]
        if hit.size == 0:
            break
        w0 = int(nu_w[hit].min())
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
    return Transcript(start=exps, N=N, srcs=np.array(srcs, dtype=np.int64).reshape(-1, alg.n),
                      coeffs=np.array(coeffs, dtype=np.int64), passes=passes)
