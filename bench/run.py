"""propring benchmark: one workload run, measured from outside the program.

    python3 bench/run.py --workload verify-gl2|verify-quat|queries \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh child processes
(bench/child.py) that import propring from src/, checks every output, and
prints as its last line one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  Earlier lines record the environment,
the input digest, the set-up samples, the machine-speed scale and the f = 2
module-exponent probes.  Scratch files go to .bench_out/.  See
bench/DESIGN.md for what each workload and metric is for."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import REF_NOMINAL_S, nominal, slowness  # noqa: E402

WORKLOADS = ("verify-gl2", "verify-quat", "queries")
RUN_LIMIT_S = 170.0  # every child of one run together
SETUP_SAMPLES = 3  # set-up-only children are added while set-up is cheap:
SETUP_BUDGET_S = 5.0  # until this much set-up time has been measured
BLAS_THREADS = 1


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PROPRING_OUT_DIR"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_out" / "pycache")
    return env


def launch(job: dict, work: Path, name: str, deadline: float) -> dict:
    """Run one child to completion (killed at the deadline); returns its
    raw wall time from start to the end of the workload without the speed
    samples' and to the end of set-up, its peak RSS, its result document
    and, when the child sampled the machine's speed, its nominal set-up
    time."""
    job = {**job, "root": str(ROOT), "work": str(work),
           "result": str(work / f"{name}.result.json")}
    job_path = work / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    with open(work / f"{name}.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        timed_out = False
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except ChildTimeout:
            timed_out = True
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and Path(job["result"]).is_file():
        result = json.loads(Path(job["result"]).read_text())
    else:
        why = "timed out" if timed_out else f"exited {proc.returncode}"
        print(f"child {name} {why}; log in {work / (name + '.log')}", file=sys.stderr)
    setup_s = wall = setup_wall = None
    if result:
        speed = result["speed_samples"]
        wall = result["marks"]["end"][1] - t0 - sum(s[3] for s in speed)
        setup_wall = result["marks"]["setup_done"][1] - t0
        if speed:
            setup_s = nominal(speed, 0.0, result["marks"]["setup_done"][0])
    return {"wall": wall, "setup_wall": setup_wall, "rss_mb": ru.ru_maxrss / 1024,
            "result": result, "setup_s": setup_s}


def quantile(xs: list[float], q: float, steps: int = 200) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) probability of each
    1/n slice of [0, 1] (midpoint rule, `steps` points a slice).  With 5 to
    150 operations a run, the plain sample quantile jumps between
    neighbouring order statistics when they straddle a gap; this one moves
    smoothly."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mid = (np.arange(n * steps) + 0.5) / (n * steps)
    logpdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    w = np.exp(logpdf - logpdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, input_sha: str) -> dict:
    files = sorted((ROOT / "src" / "propring").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_sha256": input_sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "commit": _commit(),
        "src_sha256": h.hexdigest(), "src_lines": lines,
    }


# -- per-workload judging ---------------------------------------------------------


def judge_verify(workload: str, seed: int, res: dict) -> tuple[int, int, list[list[float]]]:
    """A check fails unless its status is
    pass and its entry digest matches the recorded one, where one is
    recorded: every check at the committed seed, seed-independent checks at
    every seed.  At the committed seed the whole report digest must match."""
    gold = json.loads((wl.DATA / "golden.json").read_text())[workload]
    expect = gold["checks"] if seed == gold["seed"] else gold["seed_independent"]
    failed = 0
    for name, status, _ in res["checks"]:
        bad = status != "pass" or (name in expect and res["digests"][name] != expect[name])
        if bad:
            print(f"check {name}: {status}, digest {res['digests'][name][:16]}",
                  file=sys.stderr)
        failed += bad
    if seed == gold["seed"] and res["report_sha256"] != gold["report_sha256"]:
        print(f"report digest {res['report_sha256'][:16]} != "
              f"{gold['report_sha256'][:16]}", file=sys.stderr)
        failed = max(failed, 1)
    if res["rc"] != 0:
        failed = max(failed, 1)
    return len(res["checks"]), failed, [c[2] for c in res["checks"]]


def judge_queries(res: dict) -> tuple[int, int, list[list[float]]]:
    samples = res["samples"]
    failed = sum(1 for _, _, ok in samples if not ok)
    for kind, (c0, c1), ok in samples:
        if not ok:
            print(f"request {kind} failed after {c1 - c0:.3f} CPU s", file=sys.stderr)
    return len(samples), failed, [cpu for _, cpu, _ in samples]


def judge(workload: str, seed: int, res: dict) -> tuple[int, int, list[list[float]]]:
    """(attempted, failed, [CPU start, CPU end] of each operation)."""
    if workload == "queries":
        return judge_queries(res)
    return judge_verify(workload, seed, res)


def report_probes(res: dict) -> None:
    probes = res.get("probes") or []
    if probes:
        missed = sum(p["missed_deadline"] for p in probes)
        print(f"probe: module-exponent on a dim-1 module at (5, 2, 1): {len(probes)} "
              f"sent, {missed} missed the {wl.PROBE_DEADLINE_S} s deadline "
              f"(exits {[p['exit'] for p in probes]})")


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "propring" / "__init__.py").is_file():
        print(f"no propring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    if args.workload == "queries":
        input_sha = wl.stream_digest(args.seed)
        job = {"mode": "queries", "configs": wl.POINT_CONFIGS, "tables": False,
               "seed": args.seed, "count": wl.request_count(args.seconds)}
    else:
        scen = work / "scenario.json"
        scen.write_text(json.dumps(wl.scenario(args.workload, args.seed), indent=1))
        input_sha = hashlib.sha256(scen.read_bytes()).hexdigest()
        c = json.loads(scen.read_text())["config"]
        job = {"mode": "verify", "configs": [[c["p"], c["f"], c["M"], c["case"]]],
               "tables": True, "scenario": str(scen), "report": str(work / "report.json")}
    print("env " + json.dumps(environment(args, input_sha), sort_keys=True))

    main_run = launch({**job, "trace": False}, work, "main", deadline)
    runs = [main_run]
    if args.trace and main_run["result"] is not None:
        runs.append(launch({**job, "trace": True, "trace_file": str(work / "trace.npz")},
                           work, "traced", deadline))
    if any(r["result"] is None for r in runs):
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted = failed = 0
    for r in runs:
        a, fl, ops = judge(args.workload, args.seed, r["result"])
        attempted += a
        failed += fl
    report_probes(runs[-1]["result"])

    if args.trace:
        traced = runs[1]
        layers = traced["result"]["layers"]
        probes = traced["result"].get("probes") or []
        work_s = sum(v for k, v in layers.items()
                     if k.endswith(".s") and (k.startswith("checks.") or k in (
                         "bench.request.s", "bench.warmup.s")))
        layers.update({
            "trace.overhead_s": traced["wall"] - main_run["wall"],
            "trace.unattributed_s": traced["wall"] - traced["setup_wall"] - work_s,
            "probe.sent": len(probes),
            "probe.missed": sum(p["missed_deadline"] for p in probes),
            "probe.s": sum(p["seconds"] for p in probes),
        })
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        setups = [main_run["setup_s"]]
        while (len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S
               and time.monotonic() < deadline - 30):
            s = launch({**job, "mode": "setup", "trace": False}, work,
                       f"setup{len(setups)}", deadline)
            if s["result"] is None:
                attempted += 1
                failed += 1
                break
            setups.append(s["setup_s"])
        res = main_run["result"]
        speed = res["speed_samples"]
        end_cpu = res["marks"]["end"][0]
        ops = [nominal(speed, c0, c1) for c0, c1 in ops]
        k = slowness(speed)
        print(f"setup samples: {[round(s, 4) for s in setups]}")
        print(f"speed: {len(k)} reference samples, nominal {REF_NOMINAL_S} s, "
              f"slowness mean {statistics.mean(k):.4f}, quartiles "
              f"{[round(float(q), 4) for q in statistics.quantiles(k, n=4)]}; raw wall "
              f"{main_run['wall']:.3f} s, raw CPU {end_cpu - sum(s[2] for s in speed):.3f} s")
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": nominal(speed, 0.0, end_cpu),
            "peak_rss_mb": main_run["rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "op_p50_ms": 1000 * quantile(ops, 0.5),
            "op_p90_ms": 1000 * quantile(ops, 0.9),
            "ops_per_s": len(ops) / sum(ops),
        }
        print(f"ops: {len(ops)} samples")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
