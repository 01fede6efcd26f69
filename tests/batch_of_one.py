"""One transcript through the library's lockstep rewriting: iterate_tau
and verify_transcript are graded.iterate_taus and
graded.verify_transcripts on a batch of one."""

from propring import graded


def iterate_tau(alg, exps, N, cutoff):
    return graded.iterate_taus(alg, [exps], N, cutoff)[0]


def verify_transcript(alg, tr):
    return graded.verify_transcripts(alg, [tr])[0]
