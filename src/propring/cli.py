"""Command line front end.

    propring verify <scenario.json> [--out report.json] [--csv summary.csv]
    propring decompose [--in element.json]
    propring nu [--in element.json]
    propring expand [--in element.json] [--cutoff T]
    propring module-exponent [--in module.json] [--ideal NAME|path]
                             [--grading gr|int|res] [--level-n N]

One-shot subcommands read JSON from --in or standard input and print JSON.
Exit codes: 0 success / all checks pass, 1 any check failed or came back
indeterminate, 2 configuration or input error, an output path whose
directory does not exist among them (refused before any check runs).
PROPRING_OUT_DIR, if set, is the default directory for relative output
paths.  main may be called repeatedly in one process: the parser is built
once, and a module asked about again is not validated again
(modules.build_module)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ConfigError, PropringError


def _read_json(path: str | None):
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read input: {e}") from None


def _out_path(path: str) -> str:
    """The output path, under PROPRING_OUT_DIR when that is set and path
    is relative; refused when its directory does not exist."""
    base = os.environ.get("PROPRING_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path}: no directory {folder}")
    return path


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _print(obj) -> None:
    """Write one answer, already made of JSON-native values, in one write."""
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_verify(args) -> int:
    from .checks import report_bytes, report_csv, run_scenario

    data = _read_json(args.scenario)
    out, csv = (_out_path(path) if path else None for path in (args.out, args.csv))
    report, code = run_scenario(data, include_timings=args.timings)
    for entry in report["checks"]:
        print(f"{entry['name']}: {entry['status']}")
    s = report["summary"]
    print(f"summary: {s['pass']} pass, {s['fail']} fail, "
          f"{s['indeterminate']} indeterminate")
    if out:
        _write(out, report_bytes(report) if not args.timings
               else (json.dumps(report, sort_keys=True, indent=2) + "\n").encode())
    if csv:
        _write(csv, report_csv(report).encode())
    return code


def _cmd_decompose(args) -> int:
    from .jsonio import digits_to_json, group_element_digits

    cfg, digits = group_element_digits(_read_json(getattr(args, "in")))
    out = digits_to_json(digits)
    out.update(cfg.header())
    _print(out)
    return 0


def _print_terms(out: dict, exps, coeffs) -> None:
    """Write out with the term list {"exps": exps[t], "coeff": coeffs[t]}
    in the bytes _print would write, through one row template: json.dumps
    renders the answer with one probe term whose entries are all -1, and
    the probe's text, with %d for each -1, is filled once for all terms."""
    import numpy as np

    if not len(exps):
        _print({**out, "terms": []})
        return
    probe = {"coeff": [-1] * coeffs.shape[1], "exps": [-1] * exps.shape[1]}
    # an item of the term list sits two levels, four spaces, deep
    row = "\n    " + json.dumps(probe, indent=2, sort_keys=True).replace("\n", "\n    ")
    head, _, tail = json.dumps({**out, "terms": [probe]}, indent=2,
                               sort_keys=True).partition(row)
    body = ",".join([row.replace("-1", "%d")] * len(exps)) % tuple(
        np.hstack([coeffs, exps]).ravel().tolist())
    sys.stdout.write(head + body + tail + "\n")


def _element_from_input(data):
    """Config, algebra and support pair of the element in a nu or expand
    request; the algebra refuses a config beyond its exact bound."""
    import numpy as np

    from .algebra import group_algebra
    from .jsonio import (algebra_element_from_json, config_from_json, digits_from_json,
                         require_one_form)

    cfg = config_from_json(data)
    require_one_form(data, ({"support"}, {"digits"}), "element")
    alg = group_algebra(cfg)
    if "support" in data:
        return cfg, alg, algebra_element_from_json(alg, data["support"])
    idx = np.array([alg.model.index_of(digits_from_json(data, cfg))])
    return cfg, alg, (idx, np.eye(1, cfg.f, dtype=np.int64))


def _cmd_nu(args) -> int:
    data = _read_json(getattr(args, "in"))
    cfg, alg, support = _element_from_input(data)
    v = alg.element_nu(*support)
    out = dict(cfg.header())
    if v is None:
        out.update({"nu": None, "at_least": alg.pM})
    else:
        out["nu"] = v
    _print(out)
    return 0


def _cmd_expand(args) -> int:
    from .jsonio import monomial_expansion

    data = _read_json(getattr(args, "in"))
    cfg, alg, support = _element_from_input(data)
    cutoff = args.cutoff if args.cutoff is not None else alg.pM - 1
    exps, coeffs = monomial_expansion(alg, support, cutoff)
    _print_terms({"cutoff": cutoff, **cfg.header()}, exps, coeffs)
    return 0


def _cmd_module_exponent(args) -> int:
    from .gf import gf
    from .graded import build_JN, default_ideals
    from .jsonio import ideal_spec_from_json, module_from_json
    from .modules import grade, min_annihilator_exponent

    mod = module_from_json(_read_json(getattr(args, "in")))
    field = gf(mod.cfg.p, mod.cfg.f)
    shipped = {s.name: s for s in default_ideals(mod.cfg.f, field)}
    if args.ideal in shipped:
        spec = shipped[args.ideal]
    elif os.path.exists(args.ideal):
        spec = ideal_spec_from_json(_read_json(args.ideal), mod.cfg.f, field)
    else:
        raise ConfigError(
            f"ideal must be one of {sorted(shipped)} or a path to an ideal file"
        )
    n = None if args.grading == "gr" else args.level_n
    if args.grading != "gr":
        if n is None or not 1 <= n < mod.cfg.M:
            raise ConfigError(f"int/res gradings need --level-n N with 1 <= N < M = {mod.cfg.M}")
        spec = build_JN(spec, n, field)
    gm = grade(mod, args.grading, n)
    rep = min_annihilator_exponent(gm, spec)
    out = dict(mod.cfg.header())
    out.update(
        {
            "N": rep.N,
            "module_dim": mod.dim,
            "ideal": rep.ideal,
            "grading": rep.kind,
            "exponent": rep.ell,
            "bound": rep.bound,
            "excess_dims": rep.excess_dims,
        }
    )
    _print(out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand names its
    handler rather than holding it, so main looks the handler up at call
    time."""
    ap = argparse.ArgumentParser(
        prog="propring",
        description="exact checks in truncated pro-p group rings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a scenario of named checks")
    v.add_argument("scenario", help="scenario JSON path")
    v.add_argument("--out", help="write the JSON report here")
    v.add_argument("--csv", help="write a one-line-per-check CSV summary here")
    v.add_argument("--timings", action="store_true",
                   help="attach wall-clock timings (report bytes then vary)")
    v.set_defaults(handler="_cmd_verify")

    d = sub.add_parser("decompose", help="ordered-basis digits of a group element")
    d.add_argument("--in", dest="in", help="element JSON (default: stdin)")
    d.set_defaults(handler="_cmd_decompose")

    n = sub.add_parser("nu", help="valuation of a group-ring element")
    n.add_argument("--in", dest="in", help="element JSON (default: stdin)")
    n.set_defaults(handler="_cmd_nu")

    e = sub.add_parser("expand", help="monomial expansion of a group-ring element")
    e.add_argument("--in", dest="in", help="element JSON (default: stdin)")
    e.add_argument("--cutoff", type=int, help="weight cutoff (default p^M - 1)")
    e.set_defaults(handler="_cmd_expand")

    m = sub.add_parser("module-exponent",
                       help="minimal annihilator exponent of an ideal on a module")
    m.add_argument("--in", dest="in", help="module JSON (default: stdin)")
    m.add_argument("--ideal", default="c",
                   help="shipped ideal name or path to an ideal JSON file")
    m.add_argument("--grading", choices=("gr", "int", "res"), default="gr")
    m.add_argument("--level-n", type=int, help="rescaling depth N for int/res")
    m.set_defaults(handler="_cmd_module_exponent")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PropringError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
