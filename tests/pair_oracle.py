"""The exhaustive pair check for module actions: the test oracle for the
relation check modules.check_multiplicative, and the whole-group helpers
it and the group tests use.

It tests rho(x) rho(y) = rho(x y) on all order^2 pairs of group elements,
with products from the group model, where the relation check reads only
the conjugation relations of a polycyclic presentation; the pair check
acts through element_action below.  Its cost grows with order^2, so it is
for small configurations such as (5, 1, 1)."""

import itertools

import numpy as np

from propring import gf as gflib
from propring.groups import group_model
from propring.modules import FiniteModule

from power_oracle import right_mul_table


def elements(model):
    """All digit vectors in index order."""
    return itertools.product(range(model.pM), repeat=model.n)


def element_action(mod, x):
    """rho(x) = rho(g_0)^(x_0) ... rho(g_(n-1))^(x_(n-1)), the ordered
    product of the module's memoized generator powers."""
    out = mod.identity_matrix()
    for i, e in enumerate(x):
        if e:
            out = gflib.matmul(out, mod.power_of(i, int(e)), mod.field)
    return out


def random_element(model, rng):
    return tuple(int(rng.integers(model.pM)) for _ in range(model.n))


def regular_module(cfg):
    """Left translation on the group basis of the truncated group ring."""
    model = group_model(cfg)
    mats = []
    for i in range(cfg.dim):
        g = model.generator(i)
        m = np.zeros((model.order, model.order), dtype=np.int16)
        for x in elements(model):
            m[model.index_of(model.mul(g, x)), model.index_of(x)] = 1
        mats.append(m)
    return FiniteModule(cfg, model.order, tuple(mats), "regular")


def first_unpaired(mod):
    """The first pair (x, y) in index order with rho(x) rho(y) != rho(x y),
    or None when the action is multiplicative on every pair."""
    model = group_model(mod.cfg)
    elems = list(elements(model))
    act = [element_action(mod, x) for x in elems]
    # products[iy][ix] is the index of x y, from the model's table of y
    products = [right_mul_table(model, y) for y in elems]
    for ix, x in enumerate(elems):
        for iy, y in enumerate(elems):
            if not np.array_equal(gflib.matmul(act[ix], act[iy], mod.field),
                                  act[products[iy][ix]]):
                return x, y
    return None
