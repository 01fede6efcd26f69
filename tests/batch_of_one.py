"""Transcripts, one per start, read off the library's lockstep rewriting.

graded.iterate_taus returns the terms of a whole batch as three arrays
(owner, srcs, coeffs) sorted by transcript; split cuts them into one
Transcript per start, whose passes are the distinct weights of its terms'
monomials (each pass rewrites the monomials of one weight, and the weight
rises strictly from pass to pass).  iterate_taus and verify_transcripts
are the library's on a list of starts, iterate_tau and verify_transcript
on a batch of one.  The oracles (tau_oracle, transcript_oracle) return
the same record, counting their passes as they run them."""

import dataclasses

import numpy as np

from propring import graded


@dataclasses.dataclass
class Transcript:
    start: tuple
    N: int
    # the terms in rewrite order (pass, then index): the (terms, n)
    # exponents of the monomials rewritten and their coefficients
    srcs: np.ndarray
    coeffs: np.ndarray
    passes: int


def split(alg, starts, N, owner, srcs, coeffs):
    """The transcripts of starts from iterate_taus' arrays."""
    w = np.array(alg.nu_weights)
    cuts = np.searchsorted(owner, np.arange(len(starts) + 1)).tolist()
    return [Transcript(start=tuple(x), N=N, srcs=srcs[lo:hi], coeffs=coeffs[lo:hi],
                       passes=np.unique(srcs[lo:hi] @ w).size)
            for x, lo, hi in zip(starts, cuts, cuts[1:])]


def iterate_taus(alg, starts, N):
    return split(alg, starts, N, *graded.iterate_taus(alg, starts, N))


def verify_transcripts(alg, trs):
    """graded.verify_transcripts on the transcripts, all of one N, joined
    back into iterate_taus' arrays."""
    owner = np.repeat(np.arange(len(trs)), [len(tr.coeffs) for tr in trs])
    return graded.verify_transcripts(
        alg, [tr.start for tr in trs], trs[0].N, owner,
        np.concatenate([tr.srcs for tr in trs]), np.concatenate([tr.coeffs for tr in trs]))


def iterate_tau(alg, exps, N):
    return iterate_taus(alg, [exps], N)[0]


def verify_transcript(alg, tr):
    return verify_transcripts(alg, [tr])[0]
