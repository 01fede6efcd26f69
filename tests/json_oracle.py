"""The replaced JSON paths, kept as test oracles: the answer printer that
walked every answer with to_jsonable and streamed it through json.dump, and
the module loader that set one numpy scalar per matrix entry and inverted
every generator to detect a singular one.

cli._print writes json.dumps of an answer already made of JSON-native values
in one write.  jsonio.module_from_json converts a generator of plain
integers with one array call, and build_module takes a rank only of a
generator whose p^M-th power is not the identity, to name it singular; a
generator whose p^M-th power is the identity is invertible."""

import json
import sys

import numpy as np

from propring.config import PrimeConfig
from propring.errors import ConfigError, RelationCheckFailed
from propring.gf import gf
from propring.jsonio import coeff_from_json, json_int, to_jsonable
from propring.modules import FiniteModule, check_multiplicative

from rref_oracle import mat_inverse


def print_answer(obj) -> None:
    json.dump(to_jsonable(obj), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _build_explicit(cfg, matrices):
    mats = tuple(np.array(m, dtype=np.int16) for m in matrices)
    if len(mats) != cfg.dim:
        raise ConfigError(f"need {cfg.dim} generator matrices, got {len(mats)}")
    dim = mats[0].shape[0]
    field = gf(cfg.p, cfg.f)
    for m in mats:
        if m.shape != (dim, dim):
            raise ConfigError("generator matrices must be square, equal size")
        if (m < 0).any() or (m >= field.q).any():
            raise ConfigError("matrix entries must be field element indices")
        try:
            mat_inverse(m, field)
        except ValueError:
            raise ConfigError("generator matrix is singular") from None
    mod = FiniteModule(cfg, dim, mats, "loaded")
    check_multiplicative(mod)
    return mod


def module_from_json(d):
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
            case=str(d.get("case", "GL2")),
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
    try:
        return _build_explicit(cfg, mats)
    except RelationCheckFailed as e:
        raise ConfigError(f"module is not a representation: {e}") from None
