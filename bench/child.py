"""One measured child process of the benchmark.

    python3 bench/child.py <job.json>

The job file names the mode (setup, verify or queries), the checkout root,
the output paths and whether to trace.  The child imports propring from the
checkout's src/, sets up through public calls, runs the workload and writes
its result JSON.  The parent measures the child's wall time, CPU time and
peak RSS from outside."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import Deadline, Sampler  # noqa: E402


def setup(configs, tables: bool) -> None:
    """Build each config's group model and group algebra and, for the
    verify workloads, every generator's right-multiplication table."""
    from propring.algebra import group_algebra
    from propring.config import PrimeConfig
    from propring.groups import group_model

    for p, f, M, case in configs:
        cfg = PrimeConfig(p, f, M, case)
        model = group_model(cfg)
        group_algebra(cfg)
        if tables:
            for i in range(cfg.dim):
                model.right_mul_table(model.generator(i))


def cli_call(argv: list[str], path: Path, deadline: float, sampler: Sampler):
    """Run one CLI request in-process under a wall-clock deadline (checked
    by the sampler's timer); returns (exit code or None on a missed deadline
    or crash, [CPU start, CPU end] on the process clock, wall seconds,
    stdout text)."""
    from propring.cli import main

    out, err = io.StringIO(), io.StringIO()
    rc = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        try:
            sampler.deadline = t0 + deadline
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--in", str(path)])
        finally:
            sampler.deadline = None
    except Deadline:
        rc = None
    except Exception as e:  # a crash is a failed request, not a dead benchmark
        print(f"request {argv} raised {type(e).__name__}: {e}", file=sys.stderr)
        rc = None
    return rc, [c0, time.process_time()], time.perf_counter() - t0, out.getvalue()


def run_verify(job: dict, sampler: Sampler) -> dict:
    """The scenario through `propring verify`; each registered check is
    wrapped to take a speed sample and record its CPU interval."""
    from propring.checks import CHECKS, report_bytes
    from propring.cli import main

    cpu: dict[str, list[float]] = {}

    def timed(name, fn):
        def check(*args, **kwargs):
            sampler.sample()
            c0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu[name] = [c0, time.process_time()]
        return check

    for name, fn in list(CHECKS.items()):
        CHECKS[name] = timed(name, fn)
    rc = main(["verify", job["scenario"], "--timings", "--out", job["report"]])
    report = json.loads(Path(job["report"]).read_text())
    return {
        "rc": rc,
        "report_sha256": hashlib.sha256(report_bytes(report)).hexdigest(),
        "checks": [[c["name"], c["status"], cpu[c["name"]]] for c in report["checks"]],
        "digests": wl.entry_digests(report),
    }


def answer_ok(req: dict, text: str) -> bool:
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return False
    return wl.answer_ok(req, out)


def run_queries(job: dict, tracer, sampler: Sampler) -> dict:
    """Closed loop, one client: the next request is sent when the previous
    one has been answered and checked.  Runs the first job["count"] requests
    of the seed's stream (whole rounds)."""
    path = Path(job["work"]) / "request.json"
    if tracer is not None:
        tracer.begin("bench.warmup")
    for req in wl.warmup():
        path.write_text(json.dumps(req["input"]))
        cli_call(req["argv"], path, wl.REQUEST_DEADLINE_S, sampler)
    if tracer is not None:
        tracer.finish()
    samples = []
    for batch in wl.rounds(job["seed"]):
        if len(samples) >= job["count"]:
            break
        for req in batch:
            path.write_text(json.dumps(req["input"]))
            sampler.sample()
            if tracer is not None:
                depth = len(tracer.stack)
                tracer.begin("bench.request")
            rc, cpu, _, text = cli_call(req["argv"], path, wl.REQUEST_DEADLINE_S, sampler)
            if tracer is not None:
                tracer.unwind(depth)
            ok = rc == 0 and answer_ok(req, text)
            del text  # not held through the next request
            samples.append([req["kind"], cpu, ok])
    return {"samples": samples}


def run_probes(job: dict, sampler: Sampler) -> list:
    path = Path(job["work"]) / "probe.json"
    path.write_text(json.dumps(wl.PROBE))
    out = []
    for _ in range(wl.PROBES):
        rc, _, wall, _ = cli_call(["module-exponent", "--ideal", "c", "--grading", "gr"],
                                  path, wl.PROBE_DEADLINE_S, sampler)
        out.append({"seconds": wall, "exit": rc, "missed_deadline": rc is None})
    return out


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    # untraced runs sample the machine's speed; every run needs the timer
    # for the request deadlines
    sampler = Sampler(enabled=not job["trace"])
    sampler.start_timer()
    marks = {"main": [time.process_time(), time.perf_counter()]}
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import propring

    if not Path(propring.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"propring imported from {propring.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin("bench.root")
        tracer.begin("bench.setup")
    setup([tuple(c) for c in job["configs"]], job["tables"])
    sampler.sample()
    marks["setup_done"] = [time.process_time(), time.perf_counter()]
    result = {"marks": marks}
    if tracer is not None:
        tracer.finish()
    if job["mode"] == "verify":
        result.update(run_verify(job, sampler))
    elif job["mode"] == "queries":
        result.update(run_queries(job, tracer, sampler))
    sampler.sample()
    marks["end"] = [time.process_time(), time.perf_counter()]
    if tracer is not None:
        tracer.finish()
        result["layers"] = tracer.metrics()
        tracer.uninstall()
        tracer.save(job["trace_file"])
    if job["mode"] == "queries":
        result["probes"] = run_probes(job, sampler)
    sampler.stop_timer()
    result["speed_samples"] = sampler.samples
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
