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
from .algebra import group_algebra
from .config import PrimeConfig
from .errors import (
    ConfigError,
    CutoffBeyondFaithful,
    NonConvergent,
    PropringError,
)
from .gf import gf
from .graded import (
    GradedRing,
    check_central_power_classes,
    check_hilbert,
    check_ideal_power_spans,
    check_sandwich,
    check_tau_contract,
    default_ideals,
)
from .groups import group_model, quaternion_commutator_congruence
from .jsonio import to_jsonable
from .modules import (
    check_exponent_transfer,
    module_corpus,
    restriction_determinism,
)
from .padic import quat_context, zq_ring


def sub_rng(seed: int, name: str) -> np.random.Generator:
    h = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "big"))


def _require_N(cfg: PrimeConfig, params: dict) -> int:
    n = params.get("N", cfg.N)
    if n is None or not isinstance(n, int) or not 1 <= n < cfg.M:
        raise ConfigError("check needs a rescaling depth N with 1 <= N < M")
    return n


def _chk_ideal_power_spans(cfg: PrimeConfig, params: dict, rng) -> dict:
    jmax = int(params.get("jmax", 8))
    if jmax < 1:
        raise ConfigError("jmax must be at least 1")
    res = check_ideal_power_spans(group_algebra(cfg), jmax)
    return {
        "ok": res["ok"],
        "jmax": jmax,
        "power_dims": [r["dim"] for r in res["powers"]],
        "graded_dims": res["graded_dims"],
    }


def _chk_quaternion_commutator(cfg: PrimeConfig, params: dict, rng) -> dict:
    level = int(params.get("level", 3))
    res = quaternion_commutator_congruence(cfg.p, cfg.f, level)
    return {
        "ok": res["ok"],
        "gammas_checked": res["gammas_checked"],
        "convention": res["convention"],
        "failures": res["failures"],
    }


def _chk_central_power_classes(cfg: PrimeConfig, params: dict, rng) -> dict:
    n = _require_N(cfg, params)
    gr = GradedRing(group_algebra(cfg))
    res = check_central_power_classes(gr, n)
    return {
        "ok": res["ok"],
        "N": n,
        "pairs_checked": res["pairs_checked"],
        "failures": res["failures"],
    }


def _chk_hilbert(cfg: PrimeConfig, params: dict, rng) -> dict:
    tmax = int(params.get("tmax", 6))
    if not 0 <= tmax < cfg.p**cfg.M:
        raise ConfigError("tmax must stay below the faithful weight bound")
    gr = GradedRing(group_algebra(cfg))
    res = check_hilbert(gr, tmax)
    return {"ok": res["ok"], **{k: v for k, v in res.items() if k != "ok"}}


def _chk_sandwich(cfg: PrimeConfig, params: dict, rng) -> dict:
    n = _require_N(cfg, params)
    kmax = int(params.get("kmax", 3))
    samples = int(params.get("samples", 200))
    mono = int(params.get("mono_samples", 50))
    alg = group_algebra(cfg)
    per_k = []
    for k in range(1, kmax + 1):
        res = check_sandwich(alg, k, n, rng, samples=samples, mono_samples=mono)
        per_k.append(
            {
                "k": k,
                "ok": res["ok"],
                "first_samples": res["first_inclusion"]["samples"],
                "transcripts": res["second_inclusion"]["transcripts"],
                "monomials_touched": res["second_inclusion"]["monomials_touched"],
                "min_chunk_margin": res["second_inclusion"]["min_chunk_margin"],
            }
        )
    return {"ok": all(r["ok"] for r in per_k), "N": n, "per_k": per_k}


def _chk_tau_contract(cfg: PrimeConfig, params: dict, rng) -> dict:
    n = _require_N(cfg, params)
    samples = int(params.get("samples", 50))
    res = check_tau_contract(group_algebra(cfg), n, rng, samples=samples)
    return {"ok": res["ok"], "N": n, "monomials_checked": res["monomials_checked"]}


def _corpus(cfg: PrimeConfig, params: dict):
    count = int(params.get("count", 20))
    return module_corpus(cfg, count=count, start_seed=int(params.get("start_seed", 0)))


def _chk_exponent_transfer(cfg: PrimeConfig, params: dict, rng) -> dict:
    n = _require_N(cfg, params)
    corpus = _corpus(cfg, params)
    ideals = default_ideals(cfg.f, gf(cfg.p, cfg.f))
    rows = []
    for mod in corpus:
        for spec in ideals:
            rep = check_exponent_transfer(mod, spec, n)
            rows.append(
                {
                    "module": rep["module"],
                    "dim": rep["dim"],
                    "ideal": rep["ideal"],
                    "exponents": rep["exponents"],
                    "implications": rep["implications"],
                    "ok": rep["ok"],
                }
            )
    return {
        "ok": all(r["ok"] for r in rows),
        "N": n,
        "modules": len(corpus),
        "pairs": len(rows),
        "rows": rows,
    }


def _chk_restriction_determinism(cfg: PrimeConfig, params: dict, rng) -> dict:
    n = _require_N(cfg, params)
    basis_changes = int(params.get("basis_changes", 5))
    corpus = _corpus(cfg, params)
    ideals = default_ideals(cfg.f, gf(cfg.p, cfg.f))
    rows = []
    twists = 0
    for mod in corpus:
        for spec in ideals:
            rep = restriction_determinism(mod, spec, n, rng, basis_changes)
            twists += bool(rep["twist_present"])
            rows.append(
                {
                    "module": rep["module"],
                    "dim": rep["dim"],
                    "ideal": rep["ideal"],
                    "exponent": rep["exponent"],
                    "restricted_path": rep["restricted_path"],
                    "basis_change_exponents": rep["basis_change_exponents"],
                    "twist_exponent": rep["twist_exponent"],
                    "ok": rep["ok"],
                }
            )
    return {
        "ok": all(r["ok"] for r in rows) and twists > 0,
        "N": n,
        "modules": len(corpus),
        "pairs": len(rows),
        "live_twists": twists,
        "rows": rows,
    }


def _chk_arithmetic_oracles(cfg: PrimeConfig, params: dict, rng) -> dict:
    """Frozen unit oracles at p=5, f=1, level 2; independent of the
    scenario configuration."""
    R = zq_ring(5, 1, 2)
    model = group_model(PrimeConfig(5, 1, 2, "GL2"))
    results = {}
    results["teichmuller_2_is_7"] = R.teichmuller(2).vec == (7,)
    results["teichmuller_3_is_18"] = R.teichmuller(3).vec == (18,)
    results["hensel_sqrt_21_is_11"] = R.hensel_sqrt(R.from_int(21)).vec == (11,)
    results["hensel_sqrt_6_is_16"] = R.hensel_sqrt(R.from_int(6)).vec == (16,)
    results["inverse_6_is_21"] = R.inv(R.from_int(6)).vec == (21,)
    ctx = quat_context(5, 1, 2)
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


CHECKS = {
    "arithmetic-oracles": _chk_arithmetic_oracles,
    "central-power-classes": _chk_central_power_classes,
    "exponent-transfer": _chk_exponent_transfer,
    "hilbert-series": _chk_hilbert,
    "ideal-power-spans": _chk_ideal_power_spans,
    "quaternion-commutator": _chk_quaternion_commutator,
    "restriction-determinism": _chk_restriction_determinism,
    "sandwich": _chk_sandwich,
    "tau-contract": _chk_tau_contract,
}


def parse_scenario(data: dict) -> tuple[str, PrimeConfig, int, list[tuple[str, dict]]]:
    """Validate a scenario document; raises ConfigError on any problem."""
    from .jsonio import config_from_json, json_int

    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario needs a name")
    cfg = config_from_json(data.get("config", {}))
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
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params of {cname!r} must be an object")
        for key, v in params.items():
            json_int(v, f"param {key!r} of {cname!r}")
        checks.append((cname, params))
    return name, cfg, seed, checks


def run_scenario(data: dict, include_timings: bool = False) -> tuple[dict, int]:
    """Run every check of a parsed scenario.  Returns (report, exit_code)
    with exit 0 iff all checks pass; scenario validation errors raise
    ConfigError and are the caller's exit-2 path."""
    name, cfg, seed, checks = parse_scenario(data)
    results = []
    total_t0 = time.monotonic()
    for cname, params in sorted(checks, key=lambda c: c[0]):
        entry = {"name": cname, "params": to_jsonable(params)}
        t0 = time.monotonic()
        try:
            detail = CHECKS[cname](cfg, params, sub_rng(seed, cname))
            entry["status"] = "pass" if detail.pop("ok") else "fail"
            entry["detail"] = to_jsonable(detail)
        except (CutoffBeyondFaithful, NonConvergent) as e:
            entry["status"] = "indeterminate"
            entry["witness"] = str(e)
        except PropringError as e:
            entry["status"] = "fail"
            entry["witness"] = str(e)
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
