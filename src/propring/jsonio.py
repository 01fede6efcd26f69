"""JSON forms of the domain objects: ring elements, group elements, digit
vectors, algebra elements, monomial expansions, ideal specifications, and
modules.  All loaders validate through the same constructors the library
uses internally, so a hand-edited file cannot smuggle in an unchecked
object."""

from __future__ import annotations

import numpy as np

from .algebra import GroupAlgebra
from .config import PrimeConfig
from .errors import ConfigError
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
    model = group_model(cfg)
    if "digits" in d:
        return cfg, digits_from_json(d, cfg)
    if cfg.case == "GL2":
        m = d.get("matrix")
        if not (isinstance(m, list) and len(m) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in m)):
            raise ConfigError("GL2 element needs a 2x2 matrix")
        # an entry is an integer or its coordinate list over the ring
        entries = [_as_int_list(e, "matrix entry") if isinstance(e, list)
                   else json_int(e, "matrix entry") for row in m for e in row]
        return cfg, model.normalize(entries)
    a = d.get("a")
    b = d.get("b")
    if a is None or b is None:
        raise ConfigError("QUAT element needs components a and b")
    return cfg, model.normalize(_as_int_list(a, "a"), _as_int_list(b, "b"))


def algebra_element_to_json(alg: GroupAlgebra, comps: list[np.ndarray]) -> list[dict]:
    """Support form of an element given by its f prime-field components on
    the power basis of the coefficient field."""
    support = np.zeros(alg.order, dtype=bool)
    for c in comps:
        support |= c != 0
    out = []
    for flat in np.nonzero(support)[0]:
        out.append(
            {
                "digits": [int(v) for v in alg.model.digits_of(int(flat))],
                "coeff": [int(c[flat]) for c in comps],
            }
        )
    return out


def algebra_element_from_json(alg: GroupAlgebra, items) -> list[np.ndarray]:
    if not isinstance(items, list):
        raise ConfigError("algebra element must be a list of {digits, coeff}")
    f = alg.model.f
    field = gf(alg.p, f)
    comps = [alg.zero() for _ in range(f)]
    pM = alg.pM
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError("each support item must be an object {digits, coeff}")
        x = _as_int_list(item.get("digits"), "digits")
        if len(x) != alg.n or any(not 0 <= v < pM for v in x):
            raise ConfigError("support digits must be n values in [0, p^M)")
        coords = field.coords(coeff_from_json(field, item.get("coeff")))
        flat = alg.model.index_of(tuple(x))
        for e in range(f):
            comps[e][flat] = (int(comps[e][flat]) + coords[e]) % alg.p
    return comps


def element_nu(alg: GroupAlgebra, comps: list[np.ndarray]) -> int | None:
    """Valuation of a component-form element: the coefficient field is free
    over its prime field, so nu is the minimum over the components."""
    vals = [alg.nu(c) for c in comps if c.any()]
    return min(vals) if vals else None


def monomial_expansion_to_json(alg: GroupAlgebra, comps: list[np.ndarray],
                               cutoff: int) -> dict:
    """Monomial form of a component-form element, truncated at the weight
    cutoff, terms in lexicographic exponent order."""
    if not 0 <= cutoff < alg.pM:
        raise ConfigError("cutoff must stay below the faithful weight bound")
    monos = [alg.to_monomial(c) for c in comps]
    terms = []
    for flat in range(alg.order):
        coords = [int(m[flat]) for m in monos]
        if any(coords) and alg.nu_weight_array[flat] <= cutoff:
            terms.append(
                {
                    "exps": [int(v) for v in alg.model.digits_of(int(flat))],
                    "coeff": coords,
                }
            )
    terms.sort(key=lambda t: t["exps"])
    return {"cutoff": cutoff, "terms": terms}


def ideal_spec_to_json(spec: IdealSpec, field: GF) -> dict:
    return {
        "name": spec.name,
        "f_gens": [
            [
                {
                    "m": list(m),
                    "n": list(n),
                    "coeff": coeff_to_json(field, coeff),
                }
                for m, n, coeff in gen
            ]
            for gen in spec.f_gens
        ],
    }


def ideal_spec_from_json(d: dict, f: int, field: GF) -> IdealSpec:
    gens_in = d.get("f_gens")
    if not isinstance(gens_in, list):
        raise ConfigError("ideal spec needs an f_gens list")
    gens = []
    for gen in gens_in:
        if not isinstance(gen, list) or not all(isinstance(t, dict) for t in gen):
            raise ConfigError("each ideal generator must be a list of {m, n, coeff} terms")
        terms = []
        for t in gen:
            m = _as_int_list(t.get("m"), "a-exponents")
            n = _as_int_list(t.get("n"), "b-exponents")
            terms.append((tuple(m), tuple(n), coeff_from_json(field, t.get("coeff"))))
        gens.append(tuple(terms))
    return ideal_spec(gens, f, name=str(d.get("name", "ideal")))


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


def module_from_json(d: dict, case: str | None = None):
    from .modules import build_module

    if not isinstance(d, dict):
        raise ConfigError("module must be an object")
    fld = d.get("field")
    if not isinstance(fld, dict):
        raise ConfigError("module needs a field header {p, f}")
    try:
        cfg = PrimeConfig(
            p=json_int(fld["p"], "field.p"),
            f=json_int(fld["f"], "field.f"),
            M=json_int(d.get("level", 1), "level"),
            case=case or str(d.get("case", "GL2")),
        )
        field = gf(cfg.p, cfg.f)
        gens_in = d.get("generators")
        if not isinstance(gens_in, list):
            raise ConfigError("module needs a generators list")
        dim = json_int(d.get("dim", 0), "dim")
        mats = []
        for g in gens_in:
            m = np.zeros((dim, dim), dtype=np.int16)
            if len(g) != dim:
                raise ConfigError("generator matrix size does not match dim")
            for i, row in enumerate(g):
                if len(row) != dim:
                    raise ConfigError("generator matrix size does not match dim")
                for j, v in enumerate(row):
                    m[i, j] = (coeff_from_json(field, v) if isinstance(v, (list, tuple))
                               else json_int(v, "matrix entry"))
            mats.append(m)
    except KeyError as e:
        raise ConfigError(f"module is missing {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad module value: {e}") from None
    return build_module(cfg, "explicit", matrices=mats)


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
