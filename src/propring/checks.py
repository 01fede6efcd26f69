"""Named verification checks and the scenario runner.

Every check draws its randomness from a sub-seed derived by hashing the
scenario seed with the check name, so adding or reordering checks never
perturbs the samples another check sees.  Reports are plain dictionaries
with deterministic content: running the same scenario twice produces the
same bytes once serialized with sorted keys (timings are kept out of the
canonical form and only attached on request)."""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from . import __version__
from .algebra import check_maximal_ideal_powers, group_algebra
from .config import CASES, PrimeConfig
from .errors import ConfigError, CutoffBeyondFaithful, PropringError
from .gf import gf
from .graded import (
    GradedRing,
    check_central_power_classes,
    check_hilbert,
    check_sandwich,
    check_tau_contract,
    default_ideals,
)
from .groups import group_model, quaternion_commutator_congruence
from .jsonio import CONFIG_KEYS, config_from_json, json_int, refuse_unknown_keys, to_jsonable
from .modules import (
    check_exponent_transfer,
    module_corpus,
    restriction_determinism,
)
from .padic import QuatContext, ZqRing


def sub_rng(seed: int, name: str) -> np.random.Generator:
    h = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "big"))


class Run:
    """The config of one scenario run and the structures its checks share,
    each built on first use and dropped with the run: the module corpora by
    count."""

    def __init__(self, cfg: PrimeConfig):
        self.cfg = cfg
        self._corpora: dict[int, list] = {}

    def corpus(self, count: int) -> list:
        if count not in self._corpora:
            self._corpora[count] = module_corpus(self.cfg, count=count)
        return self._corpora[count]


def _pick(d: dict, *keys: str) -> dict:
    return {k: d[k] for k in keys}


def _over_corpus(run: Run, N: int, count: int, fn, keys) -> tuple[dict, list]:
    """fn(module, ideals) for every corpus module, with the default ideals;
    fn returns one result per ideal, in order.  Returns the detail both
    corpus checks report, with each result cut to keys as one row, and the
    full results."""
    corpus = run.corpus(count)
    ideals = default_ideals(run.cfg.f, gf(run.cfg.p, run.cfg.f))
    reps = [rep for mod in corpus for rep in fn(mod, ideals)]
    rows = [_pick(r, *keys) for r in reps]
    return {"ok": all(r["ok"] for r in rows), "N": N, "modules": len(corpus),
            "pairs": len(rows), "rows": rows}, reps


def _chk_ideal_power_spans(run: Run, rng, jmax: int) -> dict:
    return check_maximal_ideal_powers(group_algebra(run.cfg), jmax)


def _chk_quaternion_commutator(run: Run, rng, level: int) -> dict:
    res = quaternion_commutator_congruence(run.cfg.p, run.cfg.f, level)
    return _pick(res, "ok", "gammas_checked", "convention", "failures")


def _chk_central_power_classes(run: Run, rng, N: int) -> dict:
    return check_central_power_classes(group_model(run.cfg), N)


def _chk_hilbert(run: Run, rng, tmax: int) -> dict:
    return check_hilbert(GradedRing(group_algebra(run.cfg)), tmax)


def _chk_sandwich(run: Run, rng, N: int, kmax: int, samples: int,
                  mono_samples: int) -> dict:
    per_k = [
        {
            "k": res["k"],
            "ok": res["ok"],
            "first_samples": res["first_inclusion"]["samples"],
            **_pick(res["second_inclusion"], "transcripts", "monomials_touched",
                    "min_chunk_margin"),
        }
        for res in check_sandwich(group_algebra(run.cfg), range(1, kmax + 1), N, rng,
                                  samples=samples, mono_samples=mono_samples)
    ]
    return {"ok": all(r["ok"] for r in per_k), "N": N, "per_k": per_k}


def _chk_tau_contract(run: Run, rng, N: int, samples: int) -> dict:
    return check_tau_contract(group_algebra(run.cfg), N, rng, samples=samples)


def _chk_exponent_transfer(run: Run, rng, N: int, count: int) -> dict:
    detail, _ = _over_corpus(
        run, N, count, lambda mod, specs: check_exponent_transfer(mod, specs, N),
        ("module", "dim", "ideal", "exponents", "implications", "ok"),
    )
    return detail


def _chk_restriction_determinism(run: Run, rng, N: int, count: int,
                                 basis_changes: int) -> dict:
    detail, reps = _over_corpus(
        run, N, count,
        lambda mod, specs: restriction_determinism(mod, specs, N, rng, basis_changes),
        ("module", "dim", "ideal", "exponent", "restricted_path", "basis_change_exponents",
         "twist_exponent", "ok"),
    )
    detail["live_twists"] = sum(bool(r["twist_present"]) for r in reps)
    detail["ok"] = detail["ok"] and detail["live_twists"] > 0
    return detail


def _chk_arithmetic_oracles(run: Run, rng) -> dict:
    """Frozen unit oracles at p=5, f=1, level 2; independent of the
    scenario configuration."""
    R = ZqRing(5, 1, 2)
    model = group_model(PrimeConfig(5, 1, 2, "GL2"))
    results = {}
    results["teichmuller_2_is_7"] = R.teichmuller(2).vec == (7,)
    results["teichmuller_3_is_18"] = R.teichmuller(3).vec == (18,)
    results["hensel_sqrt_21_is_11"] = R.hensel_sqrt(R.from_int(21)).vec == (11,)
    results["hensel_sqrt_6_is_16"] = R.hensel_sqrt(R.from_int(6)).vec == (16,)
    results["inverse_6_is_21"] = R.inv(R.from_int(6)).vec == (21,)
    ctx = QuatContext(5, 1, 2)
    one_plus_pi = ctx.quat(ctx.ring.one, ctx.ring.one)
    results["nrd_one_plus_pi_is_1_minus_p"] = (
        one_plus_pi.nrd() == ctx.ring.from_int(1 - 5)
    )
    ba = model.mul(model.generator(1), model.generator(0))
    results["digits_B0_A0"] = ba == (21, 6, 24)
    recomposed = model.realize(ba)
    direct = model._mul(
        model.realize(model.generator(1)), model.realize(model.generator(0))
    )
    results["recomposition_exact"] = model._key(recomposed) == model._key(direct)
    return {"ok": all(results.values()), "oracles": results}


# the rescaling depth: the config's N by default, 1 <= N < M
_N = (lambda cfg: cfg.N, 1, lambda cfg: cfg.M - 1)
# the corpus and every sample are held until the check reports; at GL2
# (5, 1, 2) on a 2-vCPU machine count 20, 100 and 400 took 0.2, 0.6 and 2.4
# CPU s (exponent-transfer) at 37, 39 and 46 MB peak RSS
_CORPUS = {"count": (20, 1, 400)}

# The check registry: name -> (check, cases it runs on, {param: (default,
# low, high)}).  Bounds are inclusive, a high of None is unbounded, and a
# default or bound may be a function of the config.
REGISTRY = {
    "arithmetic-oracles": (_chk_arithmetic_oracles, CASES, {}),
    "central-power-classes": (_chk_central_power_classes, CASES, {"N": _N}),
    "exponent-transfer": (_chk_exponent_transfer, CASES, {"N": _N, **_CORPUS}),
    "hilbert-series": (_chk_hilbert, CASES, {"tmax": (6, 0, lambda cfg: cfg.p**cfg.M - 1)}),
    "ideal-power-spans": (_chk_ideal_power_spans, CASES, {"jmax": (8, 1, None)}),
    # the verdict is the same at every level >= 2, and the work grows with
    # the level: level 256 took 0.04 CPU s at p = 5 and 1.0 s at p = 23 on
    # a 2-vCPU machine, level 2048 at p = 5 about 5 s
    "quaternion-commutator": (_chk_quaternion_commutator, ("QUAT",), {"level": (3, 2, 256)}),
    # all T and T^-1 of a module's basis changes are held at once: corpus
    # count 1 at GL2 (5, 1, 2) peaked at 36, 37 and 82 MB RSS with 5, 16 and
    # 1,000 of them, the 676-dim deep-line module at (5, 1, 3) alone at 161,
    # 232 and 449 MB (78 CPU s) with 1, 4 and 16, on a 2-vCPU machine
    "restriction-determinism": (_chk_restriction_determinism, CASES,
                                {"N": _N, **_CORPUS, "basis_changes": (5, 1, 16)}),
    # per k at GL2 (5, 1, 2), kmax 1: samples 200, 2,000 and 20,000 took
    # 0.08, 0.6 and 6.2 CPU s at 40, 51 and 177 MB peak RSS; mono_samples
    # 500, 2,000 and 5,000 0.16, 0.7 and 1.5 s at 38-41 MB, and so did
    # tau-contract's samples (0.12, 0.43 and 1.0 s).  The monomials of all k
    # are rewritten in lockstep batches of 1,024: at QUAT (5, 1, 2), kmax 4
    # and mono_samples 2,000 took 1.5-1.6 CPU s at 55 MB peak RSS (83-84 MB
    # when all but a probe batch of 15 ran as one batch)
    "sandwich": (_chk_sandwich, CASES, {"N": _N, "kmax": (3, 1, None),
                                        "samples": (200, 1, 2000),
                                        "mono_samples": (50, 1, 2000)}),
    "tau-contract": (_chk_tau_contract, CASES, {"N": _N, "samples": (50, 1, 2000)}),
}
# run_scenario looks each check up here at call time, so a caller may wrap one
CHECKS = {name: entry[0] for name, entry in REGISTRY.items()}


def _check_kwargs(cname: str, params: dict, cfg: PrimeConfig) -> dict:
    """The keyword arguments of one check: its params checked against the
    registry, with the defaults filled in."""
    _, cases, spec = REGISTRY[cname]
    if cfg.case not in cases:
        raise ConfigError(f"check {cname!r} runs only on case {' or '.join(cases)}")
    for key in params:
        if key not in spec:
            raise ConfigError(f"unknown param {key!r} of {cname!r}")
    kwargs = {}
    for key, bounds in spec.items():
        default, low, high = (b(cfg) if callable(b) else b for b in bounds)
        v = json_int(params[key], f"param {key!r} of {cname!r}") if key in params else default
        if v is None or v < low or (high is not None and v > high):
            upper = "" if high is None else f" <= {high}"
            raise ConfigError(f"{cname!r} needs {low} <= {key}{upper}, got {v}")
        kwargs[key] = v
    return kwargs


def parse_scenario(data: dict) -> tuple[str, PrimeConfig, int, list[tuple[str, dict, dict]]]:
    """Validate a scenario document; raises ConfigError on any problem.
    Each check comes back as (name, params as given, keyword arguments)."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    refuse_unknown_keys(data, {"name", "config", "seed", "checks"}, "scenario")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario needs a name")
    cfg = config_from_json(data.get("config", {}))
    refuse_unknown_keys(data.get("config", {}), CONFIG_KEYS, "scenario config")
    seed = json_int(data.get("seed", cfg.seed), "seed")
    raw = data.get("checks")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("scenario needs a non-empty checks list")
    checks = []
    for item in raw:
        if isinstance(item, str):
            item = {"check": item}
        if not isinstance(item, dict):
            raise ConfigError("each check must be a name or an object")
        cname = item.get("check")
        if cname not in CHECKS:
            raise ConfigError(f"unknown check {cname!r}")
        if set(item) - {"check", "params"}:
            raise ConfigError(f"check {cname!r} takes only the keys 'check' and 'params'")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params of {cname!r} must be an object")
        checks.append((cname, params, _check_kwargs(cname, params, cfg)))
    return name, cfg, seed, checks


def run_scenario(data: dict, include_timings: bool = False) -> tuple[dict, int]:
    """Run every check of a parsed scenario.  Returns (report, exit_code)
    with exit 0 iff all checks pass.  Scenario validation errors, and a
    configuration a check refuses as it runs (a ConfigError, such as the
    exact transform bound), raise ConfigError and are the caller's exit-2
    path: a refusal is not a violated claim."""
    name, cfg, seed, checks = parse_scenario(data)
    run = Run(cfg)
    results = []
    total_t0 = time.monotonic()
    for cname, params, kwargs in sorted(checks, key=lambda c: c[0]):
        entry = {"name": cname, "params": to_jsonable(params)}
        t0 = time.monotonic()
        try:
            detail = CHECKS[cname](run, sub_rng(seed, cname), **kwargs)
            entry["status"] = "pass" if detail.pop("ok") else "fail"
            entry["detail"] = to_jsonable(detail)
        except CutoffBeyondFaithful as e:
            entry["status"] = "indeterminate"
            entry["witness"] = str(e)
        except ConfigError:
            raise
        except PropringError as e:
            entry["status"] = "fail"
            entry["witness"] = str(e)
            # ContractViolation and RelationCheckFailed name what broke
            if getattr(e, "witness", None) is not None:
                entry["witness_data"] = to_jsonable(e.witness)
        if include_timings:
            entry["elapsed_s"] = round(time.monotonic() - t0, 3)
        results.append(entry)
    counts = {"pass": 0, "fail": 0, "indeterminate": 0}
    for entry in results:
        counts[entry["status"]] += 1
    header = cfg.header()
    header["seed"] = seed
    report = {
        "scenario": name,
        "header": header,
        "versions": {"propring": __version__, "numpy": np.__version__},
        "checks": results,
        "summary": counts,
    }
    if include_timings:
        report["wall_clock_s"] = round(time.monotonic() - total_t0, 3)
    code = 0 if counts["fail"] == 0 and counts["indeterminate"] == 0 else 1
    return report, code


def report_bytes(report: dict) -> bytes:
    """Canonical serialization: sorted keys, no timing fields."""
    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v)
                for k, v in obj.items()
                if k not in ("elapsed_s", "wall_clock_s")
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return (
        json.dumps(strip(report), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def report_csv(report: dict) -> str:
    lines = ["check,status"]
    for entry in report["checks"]:
        lines.append(f"{entry['name']},{entry['status']}")
    return "\n".join(lines) + "\n"
