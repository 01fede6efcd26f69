"""The per-element generator table builder: the test oracle for the batched
GroupModel.right_mul_table.

It multiplies one concrete element at a time by g_i and decomposes the
product through the scalar path, where the batched builder realizes,
multiplies and decomposes every element in one array pass; the two share
only the generator digit powers.  One QUAT row costs about 0.4 ms, so full
tables are for small configurations such as (5, 1, 1)."""

import numpy as np


def scalar_rows(model, i, rows):
    """Row idx of right_mul_table(g_i), for each idx in rows."""
    gi = model.realize(model.generator(i))
    return np.array([model.index_of(model.decompose(
        model._mul(model.realize(model.digits_of(int(idx))), gi))) for idx in rows],
        dtype=np.int32)


def scalar_table(model, i):
    return scalar_rows(model, i, range(model.order))
