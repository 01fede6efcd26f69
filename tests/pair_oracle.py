"""The exhaustive pair check for module actions: the test oracle for the
relation check modules.check_multiplicative.

It tests rho(x) rho(y) = rho(x y) on all order^2 pairs of group elements,
with products from the group model, where the relation check reads only
the conjugation relations of a polycyclic presentation; the two share only
FiniteModule.element_action and the model's multiplication.  Its cost
grows with order^2, so it is for small configurations such as (5, 1, 1)."""

import numpy as np

from propring import gf as gflib
from propring.groups import group_model


def first_unpaired(mod):
    """The first pair (x, y) in index order with rho(x) rho(y) != rho(x y),
    or None when the action is multiplicative on every pair."""
    model = group_model(mod.cfg)
    elements = list(model.all_elements())
    act = [mod.element_action(x) for x in elements]
    # products[iy][ix] is the index of x y, from the model's table of y
    products = [model.right_mul_table(y) for y in elements]
    for ix, x in enumerate(elements):
        for iy, y in enumerate(elements):
            if not np.array_equal(gflib.matmul(act[ix], act[iy], mod.field),
                                  act[products[iy][ix]]):
                return x, y
    return None
