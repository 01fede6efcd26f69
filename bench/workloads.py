"""Inputs and answer oracles of the benchmark workloads.

Nothing here imports propring: the request stream is a function of the seed
and of the committed pools under bench/data, and the answers to `nu` and
`expand` come from the closed-form binomial-product expansion below, not
from the program's own transforms."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

VERIFY = {"verify-gl2": "verify-gl2.json", "verify-quat": "verify-quat.json"}
POINT_CONFIGS = [(p, f, M, case) for (p, f, M) in ((5, 1, 2), (5, 2, 1), (7, 1, 2))
                 for case in ("GL2", "QUAT")]
MODULE_CONFIG = (5, 1, 2)
IDEALS = ("c", "a+c", "mixed")
GRADINGS = ("gr", "int", "res")
# a dim-1 module at (5, 2, 1): validation is exhaustive over order^2 pairs at
# M = 1, so the request does not finish; it runs only under PROBE_DEADLINE_S
PROBE = {"dim": 1, "field": {"p": 5, "f": 2}, "generators": [[[1]]] * 6,
         "level": 1, "case": "GL2"}
PROBES = 2
PROBE_DEADLINE_S = 0.5
REQUEST_DEADLINE_S = 20.0
DIGEST_REQUESTS = 1000
# 5,945 terms, 10 MB of Python objects: more terms than any expand of a
# 4-round run on seeds 1-40 (at most 5,654)
LARGE_EXPAND = {"kind": "expand", "argv": ["expand", "--cutoff", "45"], "expect": None,
                "input": {"p": 7, "f": 1, "M": 2, "case": "GL2", "digits": [40, 39, 48]}}
ROUND_REQUESTS = 36
ROUND_S = 2.5  # nominal CPU seconds of one round, measured


def request_count(seconds: float) -> int:
    """Requests of a run measuring about `seconds`: whole rounds, so every
    run does the same mix, and a fixed number of them for a given
    `seconds`, so that the amount of work does not follow the machine's
    speed."""
    return ROUND_REQUESTS * max(1, math.ceil(seconds / ROUND_S - 1e-9))


def key(cfg) -> str:
    return " ".join(str(c) for c in cfg)


def entry_digests(report: dict) -> dict[str, str]:
    """sha256 of each check entry of a verify report, timings left out."""
    out = {}
    for entry in report["checks"]:
        body = {k: v for k, v in entry.items() if k != "elapsed_s"}
        out[entry["name"]] = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return out


def scenario(workload: str, seed: int) -> dict:
    data = json.loads((DATA / VERIFY[workload]).read_text())
    data["seed"] = seed
    return data


@functools.lru_cache(maxsize=None)
def pools() -> tuple[dict, dict]:
    return (json.loads((DATA / "decompose.json").read_text()),
            json.loads((DATA / "modules.json").read_text()))


def _unit_coeff(rng: random.Random, p: int, f: int):
    while True:
        c = [rng.randrange(p) for _ in range(f)]
        if any(c):
            return c[0] if f == 1 else c


def _element(rng: random.Random, p: int, f: int, M: int) -> dict:
    """A group element, an augmentation difference x - 1, or a short random
    combination, in the CLI's digits / support form."""
    pM, n = p**M, 3 * f
    digits = [rng.randrange(pM) for _ in range(n)]
    shape = rng.randrange(3)
    if shape == 0:
        return {"digits": digits}
    if shape == 1:
        minus_one = p - 1 if f == 1 else [p - 1] + [0] * (f - 1)
        one = 1 if f == 1 else [1] + [0] * (f - 1)
        return {"support": [{"digits": digits, "coeff": one},
                            {"digits": [0] * n, "coeff": minus_one}]}
    terms = [{"digits": digits, "coeff": _unit_coeff(rng, p, f)}]
    for _ in range(rng.randrange(1, 4)):
        terms.append({"digits": [rng.randrange(pM) for _ in range(n)],
                      "coeff": _unit_coeff(rng, p, f)})
    return {"support": terms}


def rounds(seed: int):
    """Endless seeded stream of request rounds.  A request is a dict with
    kind, argv (without --in), the input document and the expected answer
    (None where an oracle computes it after the call).

    Every round has the same composition, so runs on different seeds do the
    same mix of work: per point config one decompose, two nu and one expand
    (24 point queries), and module-exponent once per pool module (12
    requests, dim 20-33, both cases), with the ideal and grading rotating
    from round to round.  The rotation does not depend on the seed, so every
    run of a given length sends the same module-exponent requests (their
    times differ by module, ideal and grading, and make up the p90).  The
    seed picks the point-query elements, the expand cutoffs and the order
    within a round."""
    dec_pool, mod_pool = pools()
    rng = random.Random(f"propring-queries:{seed}")
    combos = [(i, g) for i in IDEALS for g in GRADINGS]
    turn = 0
    while True:
        batch = []
        for p, f, M, case in POINT_CONFIGS:
            head = {"p": p, "f": f, "M": M, "case": case}
            item = rng.choice(dec_pool[key((p, f, M, case))])
            batch.append({"kind": "decompose", "argv": ["decompose"],
                          "input": {**head, **item["input"]},
                          "expect": {"digits": item["digits"]}})
            for _ in range(2):
                batch.append({"kind": "nu", "argv": ["nu"],
                              "input": {**head, **_element(rng, p, f, M)}, "expect": None})
            cutoff = rng.randrange(1, p**M)
            batch.append({"kind": "expand", "argv": ["expand", "--cutoff", str(cutoff)],
                          "input": {**head, **_element(rng, p, f, M)}, "expect": None})
        for j, mod in enumerate(m for case in sorted(mod_pool) for m in mod_pool[case]):
            ideal, grading = combos[(turn + j) % len(combos)]
            argv = ["module-exponent", "--ideal", ideal, "--grading", grading]
            if grading != "gr":
                argv += ["--level-n", "1"]
            batch.append({"kind": "module-exponent", "argv": argv, "input": mod["module"],
                          "expect": mod["answers"][f"{ideal} {grading}"]})
        turn += 1
        rng.shuffle(batch)
        yield batch


def requests(seed: int):
    for batch in rounds(seed):
        yield from batch


def warmup():
    """One untimed request of each kind per config and one module-exponent
    per case, so the timed loop measures the warm process (the first
    module-exponent of a case alone decomposes 512 products, about 1 s);
    then LARGE_EXPAND, so that the process's peak RSS is set by the same
    request in every run rather than by the largest expand the seed drew."""
    gen = requests(-1)
    todo = {(k, c) for k in ("decompose", "nu", "expand") for c in POINT_CONFIGS}
    todo |= {("module-exponent", case) for case in ("GL2", "QUAT")}
    while todo:
        req = next(gen)
        doc = req["input"]
        cfg = (doc["case"] if req["kind"] == "module-exponent"
               else (doc["p"], doc["f"], doc["M"], doc["case"]))
        if (req["kind"], cfg) in todo:
            todo.discard((req["kind"], cfg))
            yield req
    yield LARGE_EXPAND


def stream_digest(seed: int, count: int = DIGEST_REQUESTS) -> str:
    h = hashlib.sha256()
    gen = requests(seed)
    for _ in range(count):
        req = next(gen)
        h.update(json.dumps([req["argv"], req["input"]], sort_keys=True).encode())
    return h.hexdigest()


# -- closed-form oracle for nu and expand ----------------------------------------


@functools.lru_cache(maxsize=None)
def _pascal(pM: int, p: int) -> np.ndarray:
    """B[x, k] = binom(x, k) mod p."""
    return np.array([[math.comb(x, k) % p for k in range(pM)] for x in range(pM)],
                    dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _weights(p: int, f: int, M: int) -> np.ndarray:
    """Weight sum_i w_i k_i of every exponent vector, flat in digit order;
    w = 1 on the A and B generators and 2 on the C generators."""
    pM = p**M
    w = np.zeros(1, dtype=np.int64)
    for wi in [1] * (2 * f) + [2] * f:
        w = np.add.outer(w, wi * np.arange(pM)).ravel()
    return w


def expansion(p: int, f: int, M: int, doc: dict) -> np.ndarray:
    """Monomial coefficients (f components x p^(3fM)) of the element in the
    request document.  A group element A_0^x_0 ... C_{f-1}^x_{3f-1} is the
    ordered product of (1 + z_i)^x_i, so its z^k coefficient is
    prod_i binom(x_i, k_i) mod p."""
    pM = p**M
    B = _pascal(pM, p)
    if "digits" in doc:
        terms = [(doc["digits"], [1] + [0] * (f - 1))]
    else:
        terms = [(t["digits"], [t["coeff"]] if f == 1 else t["coeff"])
                 for t in doc["support"]]
    out = np.zeros((f, pM ** (3 * f)), dtype=np.int64)
    for digits, coords in terms:
        prod = B[digits[0]]
        for x in digits[1:]:
            prod = np.multiply.outer(prod, B[x]).ravel() % p
        for e in range(f):
            out[e] += coords[e] * prod
    return out % p


def expected_answer(req: dict) -> dict:
    """The answer of a decompose, module-exponent or nu request; for expand,
    the cutoff and (exponents, coefficients) arrays of the kept terms, in
    the CLI's lexicographic order, so that checking an answer does not hold
    a second copy of it as Python objects."""
    if req["expect"] is not None:
        return req["expect"]
    doc = req["input"]
    p, f, M = doc["p"], doc["f"], doc["M"]
    pM = p**M
    coeffs = expansion(p, f, M, doc)
    w = _weights(p, f, M)
    support = np.nonzero(coeffs.any(axis=0))[0]
    if req["kind"] == "nu":
        v = int(w[support].min()) if support.size else None
        return {"nu": None, "at_least": pM} if v is None or v >= pM else {"nu": v}
    cutoff = int(req["argv"][req["argv"].index("--cutoff") + 1])
    keep = support[w[support] <= cutoff]
    exps = np.array(np.unravel_index(keep, (pM,) * (3 * f))).T
    return {"cutoff": cutoff, "terms": (exps, coeffs[:, keep].T)}


def _terms_ok(got, exps: np.ndarray, coeffs: np.ndarray) -> bool:
    return (isinstance(got, list) and len(got) == len(exps)
            and all(t == {"exps": x.tolist(), "coeff": c.tolist()}
                    for t, x, c in zip(got, exps, coeffs)))


def answer_ok(req: dict, out: dict) -> bool:
    want = expected_answer(req)
    doc = req["input"]
    head = doc if "p" in doc else {"p": doc["field"]["p"], "f": doc["field"]["f"],
                                   "M": doc["level"], "case": doc["case"]}
    if req["kind"] == "expand":
        ok = out.get("cutoff") == want["cutoff"] and _terms_ok(out.get("terms"), *want["terms"])
    else:
        ok = all(out.get(k) == v for k, v in want.items())
    return ok and all(out.get(k) == head[k] for k in ("p", "f", "M", "case"))
