"""JSON forms of the domain objects: ring elements, group elements, digit
vectors, algebra elements, monomial expansions, ideal specifications, and
modules.  All loaders validate through the same constructors the library
uses internally, so a hand-edited file cannot smuggle in an unchecked
object."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .algebra import GroupAlgebra
from .config import PrimeConfig
from .errors import ConfigError, NonHomogeneousInput, NotInGroup, RelationCheckFailed
from .gf import GF, gf
from .graded import IdealSpec, ideal_spec


def json_int(v, what: str) -> int:
    """v itself if it is a JSON integer; a bool, float or string is refused
    rather than coerced."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return v


def _as_int_list(v, what: str) -> list[int]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{what} must be a list of integers")
    return [json_int(x, f"{what} entry") for x in v]


# the keys of a config header, which every point-query document carries
CONFIG_KEYS = frozenset(field.name for field in dataclasses.fields(PrimeConfig))


def refuse_unknown_keys(d: dict, allowed: set | frozenset, what: str) -> None:
    """Raise ConfigError naming the keys of the document d outside allowed,
    so that a misspelled key is refused rather than ignored."""
    if extra := set(d) - allowed:
        raise ConfigError(f"unknown {what} keys {sorted(extra)}")


def require_one_form(d: dict, forms, what: str) -> None:
    """Raise ConfigError unless the keys of the point query d beside its
    config header are exactly one of the key sets forms, so that the
    element is given one way."""
    if (given := set(d) - CONFIG_KEYS) not in forms:
        named = " or ".join(" + ".join(sorted(form)) for form in forms)
        raise ConfigError(f"{what} takes exactly one of {named} beside the config, "
                          f"got {sorted(given)}")


def config_from_json(d: dict) -> PrimeConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be an object")
    try:
        return PrimeConfig(
            p=json_int(d["p"], "p"),
            f=json_int(d["f"], "f"),
            M=json_int(d["M"], "M"),
            case=str(d["case"]),
            N=json_int(d["N"], "N") if d.get("N") is not None else None,
            seed=json_int(d.get("seed", 0), "seed"),
        )
    except KeyError as e:
        raise ConfigError(f"config is missing {e.args[0]!r}") from None


def coeff_to_json(field: GF, idx: int) -> list[int]:
    """A field element as its base-p coordinate vector (length f)."""
    return list(field.coords(int(idx)))


def coeff_from_json(field: GF, v) -> int:
    if not isinstance(v, (list, tuple)):
        v = json_int(v, "coefficient")
        if not 0 <= v < field.p:
            raise ConfigError(f"scalar coefficient {v} is not a residue mod {field.p}")
        return v
    coords = _as_int_list(v, "coefficient")
    if len(coords) != field.f or any(not 0 <= c < field.p for c in coords):
        raise ConfigError("coefficient coordinates must be f residues mod p")
    return field.index(coords)


def digits_to_json(digits) -> dict:
    return {"digits": [int(d) for d in digits]}


def digits_from_json(d: dict, cfg: PrimeConfig):
    x = _as_int_list(d.get("digits"), "digits")
    if len(x) != cfg.dim:
        raise ConfigError(f"digit vector must have length {cfg.dim}")
    pM = cfg.p**cfg.M
    if any(not 0 <= v < pM for v in x):
        raise ConfigError("digits must lie in [0, p^M)")
    return tuple(x)


def group_element_digits(d: dict) -> tuple[PrimeConfig, tuple]:
    """Digits of a group element given as {matrix} (GL2), {a, b} (QUAT), or
    {digits} directly, alongside the config header."""
    from .groups import group_model

    cfg = config_from_json(d)
    require_one_form(d, ({"digits"}, {"matrix"} if cfg.case == "GL2" else {"a", "b"}),
                     "decompose")
    if cfg.M > ELEMENT_LEVEL_MAX:
        raise ConfigError(f"element level M = {cfg.M} is above {ELEMENT_LEVEL_MAX}: the "
                          f"decomposition's cost grows faster than the level")
    model = group_model(cfg)
    if "digits" in d:
        return cfg, digits_from_json(d, cfg)
    if cfg.case == "GL2":
        m = d["matrix"]
        if not (isinstance(m, list) and len(m) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in m)):
            raise ConfigError("GL2 element needs a 2x2 matrix")
        # an entry is an integer or its coordinate list over the ring
        args = ([_as_int_list(e, "matrix entry") if isinstance(e, list)
                 else json_int(e, "matrix entry") for row in m for e in row],)
    else:
        args = (_as_int_list(d["a"], "a"), _as_int_list(d["b"], "b"))
    try:
        return cfg, model.normalize(*args)
    except NotInGroup as e:
        raise ConfigError(f"element is not in the group: {e}") from None


def algebra_element_from_json(alg: GroupAlgebra, items) -> tuple[np.ndarray, np.ndarray]:
    """Support pair of the element sum_t coeff_t [digits_t]: the flat
    indices ascending and the (len, f) coordinates of their coefficients
    over F_p, repeated digits merged mod p and zero terms dropped."""
    if not isinstance(items, list):
        raise ConfigError("algebra element must be a list of {digits, coeff}")
    f = alg.model.f
    field = gf(alg.p, f)
    pM = alg.pM
    flat, coords = [], []
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError("each support item must be an object {digits, coeff}")
        refuse_unknown_keys(item, {"digits", "coeff"}, "support item")
        x = _as_int_list(item.get("digits"), "digits")
        if len(x) != alg.n or any(not 0 <= v < pM for v in x):
            raise ConfigError("support digits must be n values in [0, p^M)")
        coords.append(field.coords(coeff_from_json(field, item.get("coeff"))))
        flat.append(alg.model.index_of(tuple(x)))
    return alg.collect(np.array(flat, dtype=np.int64),
                       np.array(coords, dtype=np.int64).reshape(-1, f))


def monomial_expansion(alg: GroupAlgebra, support: tuple[np.ndarray, np.ndarray],
                       cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial form of the element of a support pair, truncated at the
    weight cutoff: the (terms, n) exponents in lexicographic order and the
    (terms, f) coefficient coordinates."""
    if not 0 <= cutoff < alg.pM:
        raise ConfigError("cutoff must stay below the faithful weight bound")
    ks, _, coeffs = alg.support_expansion(*support, cutoff)
    # flat indices ascend in lexicographic exponent order
    return np.stack(np.unravel_index(ks, (alg.pM,) * alg.n), axis=1), coeffs


def ideal_spec_from_json(d: dict, f: int, field: GF) -> IdealSpec:
    if not isinstance(d, dict):
        raise ConfigError("ideal spec must be an object")
    refuse_unknown_keys(d, {"name", "f_gens"}, "ideal")
    gens_in = d.get("f_gens")
    if not isinstance(gens_in, list):
        raise ConfigError("ideal spec needs an f_gens list")
    gens = []
    for gen in gens_in:
        if not isinstance(gen, list) or not all(isinstance(t, dict) for t in gen):
            raise ConfigError("each ideal generator must be a list of {m, n, coeff} terms")
        terms = []
        for t in gen:
            refuse_unknown_keys(t, {"m", "n", "coeff"}, "ideal term")
            m = _as_int_list(t.get("m"), "a-exponents")
            n = _as_int_list(t.get("n"), "b-exponents")
            terms.append((tuple(m), tuple(n), coeff_from_json(field, t.get("coeff"))))
        gens.append(tuple(terms))
    try:
        return ideal_spec(gens, f, name=str(d.get("name", "ideal")))
    except NonHomogeneousInput as e:
        raise ConfigError(f"ideal generator is not homogeneous: {e}") from None


def module_to_json(mod) -> dict:
    field = mod.field
    f = mod.cfg.f
    if f == 1:
        gens = [m.astype(int).tolist() for m in mod.gen_action]
    else:
        gens = [
            [[coeff_to_json(field, int(v)) for v in row] for row in m]
            for m in mod.gen_action
        ]
    return {
        "dim": mod.dim,
        "field": {"p": mod.cfg.p, "f": mod.cfg.f},
        "generators": gens,
        "level": mod.cfg.M,
        "case": mod.cfg.case,
    }


def _int_matrix(g, dim: int) -> np.ndarray | None:
    """g as a dim x dim int64 array when it is a square list of rows of
    plain integers (no bools, which numpy reads as 0 and 1), by one array
    conversion and a scan of the entries' types; None for anything else,
    which is parsed entry by entry for its message."""
    try:
        m = np.array(g, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if m.shape != (dim, dim) or not set(map(type, itertools.chain.from_iterable(g))) <= {int}:
        return None
    return m


# the largest truncation level a module file may give.  Its relation check
# runs over the (3fM)(3fM - 1)/2 pc relations of the group model at that
# level, built first, whose cost grows faster than the level: a dim-1 module
# at level 8 loaded in 0.3-0.5 CPU s at f = 1 (p = 5 and 13, both cases)
# and 2.1 s for QUAT at f = 2; past it QUAT f = 1 took 2.4 s at level 16 and
# 32 s at 32, and GL2 6 s at 64 (2 vCPUs, one BLAS thread)
MODULE_LEVEL_MAX = 8
# the largest level M a decompose request may give; the cost grows faster:
# one GL2 (5, 1, M) element took 0.6, 2.1 and 14 CPU s at M = 128, 256 and
# 512, GL2 (5, 2, M) 1.2 and 7.4 s at 128 and 256, QUAT (5, 1, M) 0.3 and
# 1.3 s at 128 and 512 (2 vCPUs, one BLAS thread)
ELEMENT_LEVEL_MAX = 128


def module_from_json(d: dict):
    from .modules import build_module

    if not isinstance(d, dict):
        raise ConfigError("module must be an object")
    refuse_unknown_keys(d, {"dim", "field", "generators", "level", "case"}, "module")
    fld = d.get("field")
    if not isinstance(fld, dict):
        raise ConfigError("module needs a field header {p, f}")
    refuse_unknown_keys(fld, {"p", "f"}, "module field")
    level = json_int(d.get("level", 1), "level")
    if level > MODULE_LEVEL_MAX:
        raise ConfigError(f"module level {level} is above {MODULE_LEVEL_MAX}: the relation "
                          f"check's cost grows faster than the level")
    try:
        cfg = PrimeConfig(
            p=json_int(fld["p"], "field.p"),
            f=json_int(fld["f"], "field.f"),
            M=level,
            case=str(d.get("case", "GL2")),
        )
        field = gf(cfg.p, cfg.f)
        gens_in = d.get("generators")
        if not isinstance(gens_in, list):
            raise ConfigError("module needs a generators list")
        dim = json_int(d.get("dim", 0), "dim")
        mats = []
        for g in gens_in:
            m = _int_matrix(g, dim)
            if m is not None:
                # checked before the cast, which would wrap 65537 to 1
                if m.size and (m.min() < 0 or m.max() >= field.q):
                    raise ConfigError("matrix entries must be field element indices")
                mats.append(m.astype(np.int16))
                continue
            # the shape is checked before the allocation, which then holds
            # no more entries than the input does
            if len(g) != dim or any(len(row) != dim for row in g):
                raise ConfigError("generator matrix size does not match dim")
            m = np.zeros((dim, dim), dtype=np.int16)
            for i, row in enumerate(g):
                for j, v in enumerate(row):
                    m[i, j] = (coeff_from_json(field, v) if isinstance(v, (list, tuple))
                               else json_int(v, "matrix entry"))
            mats.append(m)
    except KeyError as e:
        raise ConfigError(f"module is missing {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad module value: {e}") from None
    try:
        return build_module(cfg, "explicit", matrices=mats)
    except RelationCheckFailed as e:
        raise ConfigError(f"module is not a representation: {e}") from None


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
