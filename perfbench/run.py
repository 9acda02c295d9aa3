"""signedgrids benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run builds its requests from the
seed, sends them one at a time (closed loop, one client) in whole passes
until ``--seconds`` have elapsed, so the last pass may overrun, checks
every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs everything in this process, runs
each request untraced and traced after a warm-up pass, and reports the
per-layer metrics.
The line before it is the run's record (provenance, digests, chromatic
numbers); records, results and span files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up samples taken before the passes, and again after them
SETUP_SAMPLES = 6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli_pipeline", "masked_batch", "exact_search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(workload: str, env: dict) -> list[float]:
    """Set-up seconds of fresh processes.

    For the CLI pipeline this is a no-op CLI start (``--version``), timed
    from outside; otherwise the import plus lazy target construction, timed
    inside :mod:`probe`.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        if workload == "cli_pipeline":
            start = perf_counter()
            subprocess.run([sys.executable, "-m", "signedgrids.cli", "--version"],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            samples.append(perf_counter() - start)
        else:
            out = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env,
                                 check=True, capture_output=True, text=True).stdout
            samples.append(float(out.split()[-1]))
    return samples


def attempt(run, request):
    """One request's outcome; a crashed request fails, and the run goes on."""
    from workloads import Outcome

    try:
        return run(request)
    except Exception as exc:
        return Outcome({}, 0, "", f"{type(exc).__name__}: {exc}")


def run_passes(workload, seconds: float, tracer=None) -> list[dict]:
    """Whole passes over the request list until ``seconds`` have elapsed.

    A workload with ``warmup`` set, and every traced run, starts with an
    untraced warm-up pass that is checked but not timed, and the clock
    starts after it.  With a tracer, every later pass runs each request
    twice, untraced and traced, in alternating order, and is stored as two
    entries: the untraced outcomes, then the traced ones with their spans.
    Pairing the runs request by request keeps the drift of a shared host's
    speed out of the tracing overhead.
    """
    def plain_pass():
        return [attempt(workload.run, workload.prepare(r)) for r in workload.requests]

    passes = []
    if tracer is not None or workload.warmup:
        passes.append({"traced": False, "warmup": True, "outcomes": plain_pass()})
    start = perf_counter()
    while True:
        if tracer is None:
            passes.append({"traced": False, "outcomes": plain_pass()})
        else:
            passes += traced_pass(workload, tracer, flip=len(passes) // 2 % 2)
        # two timed passes at least, so that a whole pass can be a latency sample
        timed = sum(not p.get("warmup") for p in passes)
        if timed >= 2 and perf_counter() - start >= seconds:
            return passes


def traced_pass(workload, tracer, flip: int) -> list[dict]:
    """An untraced and a traced run of every request: one pass entry for each.

    The second run of a request is warmer than the first, so which run goes
    first alternates from request to request, and ``flip`` swaps the order
    from pass to pass: with few, unequal requests (the hex and the tri grid
    of ``cli_pipeline``) that order would bias the overhead.
    """
    execute = tracer.wrap(workload.run, "bench.request")
    plain, traced = [], []
    tracer.begin()
    for k, request in enumerate(workload.requests):
        prepared = workload.prepare(request)
        tracer.request = k
        for with_trace in (False, True) if (k + flip) % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed():
                    traced.append(attempt(execute, prepared))
            else:
                plain.append(attempt(workload.run, prepared))
    return [{"traced": False, "outcomes": plain},
            {"traced": True, "outcomes": traced, "recorded": tracer.end()}]


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes: list[dict], pass_is_sample: bool = False) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes, and the sample counts behind them.

    With ``pass_is_sample`` a latency sample (a "request" of the rates and
    percentiles) is a whole pass rather than one request of it.
    """
    from workloads import STAGES

    passes = [p for p in passes if not p.get("warmup")]
    outcomes = [o for p in passes for o in p["outcomes"]]
    if pass_is_sample:
        latencies = [sum(o.latency for o in p["outcomes"]) for p in passes]
    else:
        latencies = [o.latency for o in outcomes]
    tail = p90(latencies)
    # rates are medians over passes, so that one slow pass barely moves them
    busy = [sum(o.latency for o in p["outcomes"]) for p in passes]
    samples_per_pass = 1 if pass_is_sample else len(passes[0]["outcomes"])
    vertices = [sum(o.vertices for o in p["outcomes"]) for p in passes]
    metrics = {
        "requests_per_s": (statistics.median(samples_per_pass / b for b in busy), "1/s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_p90_ms": (tail * 1e3, "ms"),
        "vertices_per_s": (statistics.median(v / b for v, b in zip(vertices, busy)), "1/s"),
    }
    for stage in STAGES:
        per_pass = [sum(o.stages.get(stage, 0.0) for o in p["outcomes"]) for p in passes]
        metrics[f"{stage}_s"] = (statistics.median(per_pass), "s")
    samples = {"latency_samples": len(latencies), "beyond_p90": sum(x > tail for x in latencies),
               "passes": len(passes)}
    return metrics, samples


def per_layer(passes: list[dict], tracing) -> dict:
    traced = [tracing.pass_metrics(p["recorded"]) for p in passes if p["traced"]]
    wall = lambda p: sum(o.latency for o in p["outcomes"])
    # each traced entry follows the untraced runs of the same requests
    overheads = [wall(p) - wall(plain) for plain, p in zip(passes, passes[1:]) if p["traced"]]
    metrics = {}
    for name, unit in tracing.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.median(m.get(name, 0) for m in traced)
        metrics[name] = (value, unit)
    return metrics


def source_digest() -> str:
    """sha256 over the program and benchmark sources, which key the run records."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, sources: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "git_sha": sha,
        "source_sha256": sources,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def check_determinism(passes, record_path: Path) -> set[tuple[int, int]]:
    """(pass, request) pairs whose output differs from the first pass or an earlier run."""
    first = [o.digest for o in passes[0]["outcomes"]]
    bad = {(p, k) for p, ps in enumerate(passes)
           for k, o in enumerate(ps["outcomes"]) if o.digest != first[k]}
    if record_path.exists():
        earlier = json.loads(record_path.read_text())
        bad |= {(0, k) for k, d in enumerate(first) if k >= len(earlier) or earlier[k] != d}
    elif not any(o.error for o in passes[0]["outcomes"]):
        record_path.parent.mkdir(parents=True, exist_ok=True)
        partial = record_path.with_suffix(f".{os.getpid()}")
        partial.write_text(json.dumps(first))
        partial.replace(record_path)
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signedgrids" / "__init__.py").is_file():
        print(f"perfbench: no signedgrids sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probe
    import tracing
    import workloads

    env = child_env()
    setup = [] if args.trace else measure_setup(args.workload, env)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(workloads) if args.trace else None
    try:
        kwargs = {}
        if args.workload == "cli_pipeline" and not args.trace:
            kwargs["env"] = env
        else:
            probe.setup()
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir), **kwargs)
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += measure_setup(args.workload, env)

    failures = {(p, k): o.error for p, ps in enumerate(passes)
                for k, o in enumerate(ps["outcomes"]) if o.error}
    sources = source_digest()
    digest_key = f"{args.workload}-{args.seed}-{sources[:16]}.json"
    for key in check_determinism(passes, OUT / "records" / digest_key):
        failures.setdefault(key, "output differs from another run with the same seed")
    attempted = sum(len(p["outcomes"]) for p in passes)

    if args.trace:
        metrics = per_layer(passes, tracing)
        samples = {"passes": len(passes)}
    else:
        metrics, samples = end_to_end(passes, workload.pass_is_sample)
        metrics["setup_s"] = (statistics.median(setup), "s")
        if args.workload == "cli_pipeline":
            rss_mb = max((mb for p in passes for o in p["outcomes"]
                          for mb in o.info.get("rss_mb", {}).values()), default=0)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss_mb, "MB")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, sources),
        "samples": samples,
        "fail_ratio": len(failures) / attempted,
        "failures": [f"pass {p} request {k}: {e}" for (p, k), e in sorted(failures.items())][:20],
        "digest": hashlib.sha256("".join(o.digest for o in passes[0]["outcomes"]).encode()).hexdigest(),
        "outputs": workload.summary(passes[0]["outcomes"]),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracing.write_spans(str(OUT / "traces" / f"{name}.json"),
                            [p["recorded"] for p in passes if p["traced"]])
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
