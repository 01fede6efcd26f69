"""The residue-field solve tables of QuatModel, their columns read off the
q x q operation tables of F_(p^(2f)): the oracle for the model's own
columns, which are residues of products in the quaternion ring.

The half-level columns are the residues a^i and a^i z, the integer-level
ones a^i eta with eta = (z - z^(p^f)) / 2, for a the generator of the
fixed subfield and z that of the whole residue field."""


def solve_tables(model):
    """(_half_sol, _int_sol) of a QuatModel, by the field tables."""
    F = model.ctx.ring.field
    sig = F.frob.copy()
    for _ in range(model.f - 1):
        sig = F.frob[sig]
    zeta = F.gen
    ap = [F.pow(model.ctx.alpha_residue(), i) for i in range(model.f)]
    eta = F.mul[F.add[zeta, F.neg[sig[zeta]]], F.inv[2]]
    half = model._solve_table([F.coords(e) for e in ap]
                              + [F.coords(F.mul[e, zeta]) for e in ap])
    return half, model._solve_table([F.coords(F.mul[e, eta]) for e in ap])
