"""Regenerate the committed inputs and recorded answers under bench/data.

    python3 bench/make_data.py pools    # decompose.json, modules.json
    python3 bench/make_data.py golden   # golden.json (runs both verify scenarios twice)

Run from the repository root.  The pools are inputs: regenerating them
changes what the benchmark runs, so do it only in a change that redefines
the benchmark.  The decompose pool starts from seeded digit vectors, so the
oracle is "the digits the generator started from"; module-exponent answers
are recorded from the CLI at the commit that generated them."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DECOMPOSE_PER_CONFIG = 48
MODULES_PER_CASE = 6


def _cli_json(argv: list[str]) -> dict:
    from propring.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def _ring_json(e, f_deg: int):
    return int(e.vec[0]) if f_deg == 1 else [int(c) for c in e.vec]


def decompose_pool() -> dict:
    """Concrete elements realized from seeded digits and scaled by a central
    unit 1 + p*r, so the CLI also normalizes the determinant / norm."""
    from propring.config import PrimeConfig
    from propring.groups import group_model
    from propring.jsonio import group_element_digits

    rng = random.Random("propring-decompose-pool")
    out = {}
    for p, f, M, case in wl.POINT_CONFIGS:
        model = group_model(PrimeConfig(p, f, M, case))
        items = []
        for _ in range(DECOMPOSE_PER_CONFIG):
            x = tuple(rng.randrange(p**M) for _ in range(3 * f))
            g = model.realize(x)
            if case == "GL2":
                lam = model.ring.from_int(1 + p * rng.randrange(p**M))
                inp = {"matrix": [[_ring_json(g[0] * lam, f), _ring_json(g[1] * lam, f)],
                                  [_ring_json(g[2] * lam, f), _ring_json(g[3] * lam, f)]]}
            else:
                lam = model.ctx.ring.from_int(1 + p * rng.randrange(p**M))
                inp = {"a": [int(c) for c in (g.a * lam).vec],
                       "b": [int(c) for c in (g.b * lam).vec]}
            doc = {"p": p, "f": f, "M": M, "case": case, **inp}
            if group_element_digits(doc)[1] != x:
                raise SystemExit(f"{x} at {(p, f, M, case)} does not round-trip")
            items.append({"digits": list(x), "input": inp})
        out[wl.key((p, f, M, case))] = items
    return out


def module_pool() -> dict:
    from propring.config import PrimeConfig
    from propring.errors import ConfigError
    from propring.jsonio import module_to_json
    from propring.modules import build_module

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "module.json")
        for case in ("GL2", "QUAT"):
            cfg = PrimeConfig(*wl.MODULE_CONFIG, case)
            mods, seed = [], 0
            while len(mods) < MODULES_PER_CASE:
                try:
                    mod = build_module(cfg, "quotient", seed=seed, jcut=5 + seed % 2)
                except ConfigError:
                    mod = None
                seed += 1
                if mod is None:
                    continue
                doc = module_to_json(mod)
                Path(path).write_text(json.dumps(doc))
                answers = {}
                for ideal in wl.IDEALS:
                    for grading in wl.GRADINGS:
                        argv = ["module-exponent", "--in", path, "--ideal", ideal,
                                "--grading", grading]
                        if grading != "gr":
                            argv += ["--level-n", "1"]
                        res = _cli_json(argv)
                        answers[f"{ideal} {grading}"] = {
                            k: res[k] for k in ("module_dim", "ideal", "grading",
                                                "exponent", "bound", "excess_dims")}
                mods.append({"seed": seed - 1, "module": doc, "answers": answers})
                print(f"{case} module seed={seed - 1} dim={mod.dim}", flush=True)
            out[case] = mods
    return out


def golden() -> dict:
    """Report digest at each scenario's committed seed; per-check digests
    there and, for checks whose entry does not depend on the seed, at every
    seed."""
    from propring.checks import report_bytes

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(wl.VERIFY):
            base = wl.scenario(workload, 0)
            committed = json.loads((wl.DATA / wl.VERIFY[workload]).read_text())["seed"]
            per_seed = {}
            for seed in (committed, committed + 1):
                scen = Path(tmp) / f"{workload}-{seed}.json"
                rep = Path(tmp) / f"{workload}-{seed}.report.json"
                scen.write_text(json.dumps({**base, "seed": seed}))
                with contextlib.redirect_stdout(io.StringIO()):
                    from propring.cli import main
                    rc = main(["verify", str(scen), "--timings", "--out", str(rep)])
                if rc != 0:
                    raise SystemExit(f"{workload} at seed {seed} exited {rc}")
                report = json.loads(rep.read_text())
                per_seed[seed] = (hashlib.sha256(report_bytes(report)).hexdigest(),
                                  wl.entry_digests(report))
            sha, checks = per_seed[committed]
            other = per_seed[committed + 1][1]
            out[workload] = {
                "seed": committed,
                "report_sha256": sha,
                "checks": checks,
                "seed_independent": {k: v for k, v in checks.items() if other[k] == v},
            }
            print(workload, sha, sorted(out[workload]["seed_independent"]), flush=True)
    return out


def main() -> None:
    what = sys.argv[1:] or ["pools", "golden"]
    if "pools" in what:
        (wl.DATA / "decompose.json").write_text(json.dumps(decompose_pool()) + "\n")
        (wl.DATA / "modules.json").write_text(json.dumps(module_pool()) + "\n")
    if "golden" in what:
        (wl.DATA / "golden.json").write_text(json.dumps(golden(), indent=1) + "\n")


if __name__ == "__main__":
    main()
