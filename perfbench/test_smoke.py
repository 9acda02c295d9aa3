"""Smoke tests for the benchmark runner at tiny sizes.

    python3 -m pytest perfbench -q

They live outside ``tests/``, so the main suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cli_pipeline": {"side": 6},
    "masked_batch": {"sides": range(6, 9), "per_side": 1},
    "exact_search": {"census": (2, 3), "tri4": 2, "hex4_per_class": 0,
                     "cli_runs": workloads.ExactSearch.CLI_RUNS[:1]},
}


def make(name, tmp_path, seed=1, **kw):
    return workloads.WORKLOADS[name](seed, str(tmp_path), **TINY[name], **kw)


@pytest.fixture(scope="module", autouse=True)
def targets():
    probe.setup()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_outputs_pass_their_gates_and_repeat(name, tmp_path):
    first = run.run_passes(make(name, tmp_path), seconds=0)
    again = run.run_passes(make(name, tmp_path), seconds=0)
    outcomes = first[0]["outcomes"]
    assert outcomes and not [o.error for o in outcomes if o.error]
    assert [o.digest for o in outcomes] == [o.digest for o in again[0]["outcomes"]]
    wl = make(name, tmp_path)
    metrics, samples = run.end_to_end(first, wl.pass_is_sample)
    timed = [p for p in first if not p.get("warmup")]
    assert len(timed) == 2 and len(first) == 2 + wl.warmup
    assert samples["latency_samples"] == len(timed) * (1 if wl.pass_is_sample else len(outcomes))
    assert all(value > 0 for value, _ in metrics.values())


def test_cli_pipeline_child_processes_report_rss(tmp_path):
    wl = make("cli_pipeline", tmp_path, env=run.child_env())
    outcome = wl.run(wl.requests[0])
    assert outcome.error is None
    assert all(mb > 0 for mb in outcome.info["rss_mb"].values())


def test_exact_search_census_covers_every_switching_class(tmp_path):
    wl = make("exact_search", tmp_path)
    census = [r for r in wl.requests if r[0] == "census"]
    spec = census[0][1]
    assert len(census) == 2 ** (len(spec.edges()) - len(spec.cells()) + 1)
    assert len({bits for _, _, bits, _ in census}) == len(census)
    assert [r[0] for r in wl.requests].count("cli") == len(TINY["exact_search"]["cli_runs"])


def test_a_corrupted_certificate_fails_the_gate(tmp_path):
    wl = make("cli_pipeline", tmp_path)
    wl.run(wl.requests[0])
    cert = tmp_path / "cert-hex.json"
    data = json.loads(cert.read_text())
    data["certificate"]["mapping"][0] = -1
    cert.write_text(json.dumps(data))
    assert wl._check("hex", "grid-hex.json", "cert-hex.json") is not None


# per-layer metrics each workload's traced pass must report above 0
TRACED = {
    "cli_pipeline": ("cli.gen_s", "cli.color_s", "cli.verify_s", "cli.self_s",
                     "grids.random_signature_s", "grids.make_grid_s", "graphio.json_load_s",
                     "graphio.json_dump_s", "graphio.graph_from_dict_s", "graphio.bytes_read",
                     "graphio.bytes_written", "colorers.color_hex_s", "colorers.color_tri_s",
                     "colorers.vertices", "hom.verify_ec_s", "trace.spans"),
    "exact_search": ("hom.find_ec_hom_calls", "hom.nodes", "hom.nodes_per_s",
                     "cli.lowerbounds_s", "hom.find_ec_hom_s", "trace.spans"),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_pass_reports_every_per_layer_metric(name, tmp_path):
    import signedgrids.cli

    plain = dict(vars(signedgrids.cli))
    passes = run.run_passes(make(name, tmp_path), seconds=0, tracer=tracing.Tracer(workloads))
    assert [p["traced"] for p in passes] == [False, False, True]
    assert vars(signedgrids.cli) == plain  # untraced requests run the plain library
    metrics = run.per_layer(passes, tracing)
    assert [n for n in metrics] == [n for n, _ in tracing.metric_names()]
    assert [n for n in TRACED[name] if not metrics[n][0] > 0] == []
    if name == "cli_pipeline":
        assert metrics["colorers.tri_min_candidates"][0] >= 2
    spans = passes[2]["recorded"]["spans"]
    assert all(parent < index for index, (_, _, _, parent, _) in enumerate(spans))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.metric_names()]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"masked_batch"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "peak_rss_mb", "requests_per_s", "request_p50_ms",
                   "request_p90_ms", "vertices_per_s", "gen_s", "color_s", "verify_s"}


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_crashing_request_fails_without_ending_the_run(tmp_path):
    wl = make("masked_batch", tmp_path)

    def crash(request):
        raise RuntimeError("boom")

    wl.run = crash
    outcomes = run.run_passes(wl, seconds=0)[0]["outcomes"]
    assert len(outcomes) == len(wl.requests)
    assert {o.error for o in outcomes} == {"RuntimeError: boom"}
