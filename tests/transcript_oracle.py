"""The chunk-and-remainder rewriting one monomial and one transcript at a
time: the test oracle for graded.iterate_taus and graded.verify_transcripts,
which run the transcripts of a check in lockstep batches, expand every
lowest-weight monomial of a pass as the rows of row-keyed
GroupAlgebra.support_expansion calls and merge the residuals by one keyed
collect.

tau_rewrite expands one word per call, iterate_tau keeps one residual and
verify_transcript re-expands one transcript; second_inclusion and
tau_contract are the loops of graded.check_sandwich's second inclusion and
of graded.check_tau_contract that draw a monomial, rewrite it and check it
before they draw the next.  Each word, the start z^start among them, is
built alone from its list of factors (zmul_oracle.tau_word, term_word) by
the support-walking zmul_oracle.support_word_mul, where the library splits
the exponents of a pass at once (graded.tau_exponents) and builds the
words of a pass or of a batch at once (GroupAlgebra.zmul).  They share
with the library support_expansion on batches of one, collect and
draw_row."""

import numpy as np

from propring.errors import ContractViolation, CutoffBeyondFaithful
from propring.graded import TauTranscript, chunk_weight_bound, draw_row

from zmul_oracle import support_word_mul, tau_split, tau_word, term_word

# word entries verify_transcript merges at a time
MERGE = 1 << 16


def tau_rewrite(alg, exps, N):
    """Monomial support pair below p^M of the rewritten monomial; raises
    ContractViolation with x as witness when the contract breaks."""
    exps = alg.model.check_digits(exps)
    w, flat = alg.nu_prime(exps), alg.model.index_of(exps)
    if w >= alg.pM:
        raise CutoffBeyondFaithful(f"weight {w} of {exps} reaches the unfaithful range")
    idx, coeffs = support_word_mul(alg, tau_word(alg, exps, N))
    ks, weights, c = alg.support_expansion(idx, coeffs[:, None], alg.pM - 1)
    if not ks.size or weights.min() != w:
        raise ContractViolation(f"rewriting changed the weight of {exps}", exps)
    at_w = weights == w
    if ks[at_w].tolist() != [flat] or c[at_w, 0].tolist() != [1]:
        raise ContractViolation(f"rewriting perturbed {exps} at its own weight", exps)
    return ks, c[:, 0]


def iterate_tau(alg, exps, N, cutoff):
    """The iterated rewriting of one monomial, one tau_rewrite per
    lowest-weight monomial of each pass."""
    exps = alg.model.check_digits(exps)
    nu_w = alg.nu_weight_array
    idx, coeffs = np.array([alg.model.index_of(exps)]), np.ones(1, dtype=np.int64)
    srcs, term_coeffs = [], []
    passes = 0
    while True:
        w0 = int(nu_w[idx].min()) if idx.size else None
        if w0 is None or w0 > cutoff:
            break
        parts = [(idx, coeffs)]
        level = nu_w[idx] == w0
        for flat, coeff in zip(idx[level].tolist(), coeffs[level].tolist()):
            k = alg.model.digits_of(flat)
            srcs.append(k)
            term_coeffs.append(coeff)
            ks, c = tau_rewrite(alg, k, N)
            parts.append((ks, -coeff * c))
        idx, coeffs = alg.collect(*map(np.concatenate, zip(*parts)))
        if idx.size and int(nu_w[idx].min()) <= w0:
            raise ContractViolation(
                f"pass {passes} on {exps} failed to raise the weight past {w0}", exps)
        passes += 1
    return TauTranscript(start=exps, N=N, cutoff=cutoff,
                         srcs=np.array(srcs, dtype=np.int64).reshape(-1, alg.n),
                         coeffs=np.array(term_coeffs, dtype=np.int64),
                         residual_weight=w0, passes=passes)


def verify_transcript(alg, tr):
    """start = sum of terms + residual in group coordinates, the residual
    read by element_nu; each term's word split from its monomial."""
    parts, pending = [support_word_mul(alg, term_word(tr.start, ()))], 0
    for src, coeff in zip(tr.srcs.tolist(), tr.coeffs.tolist()):
        idx, coeffs = support_word_mul(alg, tau_word(alg, src, tr.N))
        parts.append((idx, -coeff * coeffs))
        pending += idx.size
        if pending > MERGE:
            parts, pending = [alg.collect(*map(np.concatenate, zip(*parts)))], 0
    idx, coeffs = alg.collect(*map(np.concatenate, zip(*parts)))
    v = alg.element_nu(idx, coeffs[:, None])
    return v == tr.residual_weight and (v is None or v > tr.cutoff)


def second_inclusion(alg, k, N, rng, mono_samples):
    """check_sandwich's second inclusion at index k, one monomial at a
    time: draw, rewrite, re-expand and check before the next draw, and
    each term's chunk weight, bound and margin one term at a time."""
    q, cutoff = alg.p**N, alg.pM - 1
    w = np.array(alg.nu_weights)
    hi = min(cutoff, k * q + 10)

    def in_window(rows):
        wx = rows @ w
        return (k * q <= wx) & (wx <= hi)

    ok, transcripts, touched, margin_min = True, 0, 0, None
    for _ in range(mono_samples):
        tr = iterate_tau(alg, draw_row(rng, alg.pM, alg.n, in_window), N, cutoff)
        transcripts += 1
        if not verify_transcript(alg, tr):
            ok = False
            break
        for src in map(tuple, tr.srcs.tolist()):
            touched += 1
            chunk_weight = alg.nu_prime(tau_split(alg, src, N)[0]) // q
            if chunk_weight < chunk_weight_bound(alg, alg.nu_prime(src), N):
                ok = False
            margin = chunk_weight - (k - 4 * alg.model.f)
            if margin < 0:
                ok = False
            if margin_min is None or margin < margin_min:
                margin_min = margin
        if not ok:
            break
    return {"transcripts": transcripts, "monomials_touched": touched,
            "min_chunk_margin": margin_min, "ok": ok}


def tau_contract(alg, N, rng, samples):
    """check_tau_contract, one start monomial at a time."""
    cutoff = alg.pM - 1
    w = np.array(alg.nu_weights)
    checked = 0
    for _ in range(samples):
        x = draw_row(rng, alg.pM, alg.n, lambda rows: rows.any(axis=1) & (rows @ w <= cutoff))
        checked += len(iterate_tau(alg, x, N, cutoff).coeffs)
    return {"N": N, "monomials_checked": checked, "ok": True}
