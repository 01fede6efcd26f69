"""One transcript through the library's lockstep rewriting: iterate_tau
and verify_transcript are graded.iterate_taus and
graded.verify_transcripts on a batch of one, the break of the rewriting
raised."""

from propring import graded


def iterate_tau(alg, exps, N, cutoff):
    trs, err = graded.iterate_taus(alg, [exps], N, cutoff)
    if err is not None:
        raise err
    return trs[0]


def verify_transcript(alg, tr):
    return graded.verify_transcripts(alg, [tr])[0]
