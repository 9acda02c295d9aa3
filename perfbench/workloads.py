"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of requests.  ``prepare`` builds
one request's input outside the timed region, and ``run`` executes it and
returns an :class:`Outcome`: seconds per stage, vertices processed, a digest
of what it produced, and the reason it failed its correctness gate, if any.
Library functions are looked up as module attributes at call time, so the
span recorders of :mod:`tracing` see the calls made from here too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import signedgrids.cli as sg_cli
import signedgrids.colorers as sg_colorers
import signedgrids.core as sg_core
import signedgrids.graphio as sg_graphio
import signedgrids.grids as sg_grids
import signedgrids.hom as sg_hom
from signedgrids.grids import GridSpec

POS, NEG = 1, -1
# Node budget handed to every search: never binding, read back as a node count.
BUDGET = 10**15
STAGES = ("gen", "color", "verify")
# Share of cells a masked_batch grid keeps.
KEEP = 0.7
# Largest target order the exact_search sweep tries.
MAX_ORDER = 6


@dataclass
class Outcome:
    stages: dict[str, float]
    vertices: int
    digest: str
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return sum(self.stages.values())


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


@contextlib.contextmanager
def _cwd(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def call_cli(argv: list[str], cwd: str) -> tuple[float, int, str, int]:
    """Run ``signedgrids.cli.main`` in this process: seconds, exit code, stdout, 0."""
    out = io.StringIO()
    with _cwd(cwd), contextlib.redirect_stdout(out):
        start = perf_counter()
        code = sg_cli.main(argv)
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), 0


def spawn_cli(argv: list[str], cwd: str, env: dict) -> tuple[float, int, str, int]:
    """Run the CLI as a child process: seconds, exit code, stdout, peak RSS in KiB."""
    out_path = os.path.join(cwd, "stdout.txt")
    with open(out_path, "w+b") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "signedgrids.cli", *argv],
            cwd=cwd, env=env, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    return seconds, proc.returncode, text, usage.ru_maxrss


def _targets(kind: str):
    """(base target, its antitwin doubling, identity limit) for a grid kind."""
    if kind == "hex":
        return sg_core.build_T4(), sg_core.rho_t4(), 4
    return sg_core.sp9_plus(), sg_core.rho_sp9_plus(), 10


class Workload:
    name = ""
    requests: list
    # latency samples are whole passes rather than single requests
    pass_is_sample = False
    # an untimed first pass, so that the timed ones start warm
    warmup = False

    def __init__(self, workdir: str):
        self.workdir = workdir

    def prepare(self, request):
        return request

    def run(self, request) -> Outcome:
        raise NotImplementedError

    def summary(self, outcomes: list[Outcome]) -> dict:
        return {}


class CliPipeline(Workload):
    """``signedgrids gen``, ``color`` and ``verify`` on one hex and one tri grid."""

    name = "cli_pipeline"
    # a pass holds one hex and one tri grid, whose latencies differ; the
    # percentiles of such a two-valued mix would be extreme-order statistics
    pass_is_sample = True
    warmup = True

    def __init__(self, seed: int, workdir: str, side: int = 160, env: dict | None = None):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.side = side
        self.requests = [(kind, rng.randrange(2**31)) for kind in ("hex", "tri")]
        # with an environment, each stage is a child process; without, an
        # in-process call of the CLI's main
        self.env = env
        self.checked: dict[tuple[str, str], str | None] = {}

    def _invoke(self, argv):
        if self.env is None:
            return call_cli(argv, self.workdir)
        return spawn_cli(argv, self.workdir, self.env)

    def run(self, request) -> Outcome:
        kind, grid_seed = request
        grid, cert = f"grid-{kind}.json", f"cert-{kind}.json"
        n = str(self.side)
        argvs = {
            "gen": ["gen", "--kind", kind, "--rows", n, "--cols", n,
                    "--seed", str(grid_seed), "--p-neg", "0.5", "-o", grid],
            "color": ["color", "-i", grid, "-o", cert],
            "verify": ["verify", "-i", grid, "-c", cert],
        }
        stages, rss, error, stdout = {}, {}, None, ""
        for stage in STAGES:
            seconds, code, stdout, rss_kb = self._invoke(argvs[stage])
            stages[stage] = seconds
            rss[stage] = rss_kb / 1024
            if code != 0:
                error = f"{kind} {stage} exited {code}"
                break
        info = {"rss_mb": rss}
        if error is None and stdout.strip() != "certificate OK":
            error = f"{kind} verify printed {stdout.strip()!r}"
        if error is None:
            hashes = (file_sha256(self._path(grid)), file_sha256(self._path(cert)))
            info.update(grid_sha256=hashes[0], cert_sha256=hashes[1])
            if hashes not in self.checked:
                self.checked[hashes] = self._check(kind, grid, cert)
            error = self.checked[hashes]
            digest = sha256("|".join(hashes))
        else:
            digest = ""
        return Outcome(stages, self.side * self.side, digest, error, info)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _check(self, kind: str, grid: str, cert: str) -> str | None:
        """Re-check a certificate against the target built here, not the embedded one."""
        with open(self._path(grid)) as fh:
            g = sg_graphio.graph_from_dict(json.load(fh)["graph"])
        with open(self._path(cert)) as fh:
            hom, target = sg_graphio.hom_from_dict(json.load(fh)["certificate"])
        base, rho, limit = _targets(kind)
        if target != base:
            return f"{kind} certificate embeds a target other than {base!r}"
        if (len(hom.mapping) != g.n or any(not 0 <= m < base.n for m in hom.mapping)
                or any(not 0 <= v < g.n for v in hom.switch_set)):
            return f"{kind} certificate mapping or switch set is out of range"
        lifted = [m + base.n if v in hom.switch_set else m for v, m in enumerate(hom.mapping)]
        if not sg_hom.verify_ec(g, rho.graph, lifted):
            return f"{kind} certificate fails verify_ec"
        if len(set(hom.mapping)) > limit:
            return f"{kind} certificate uses more than {limit} identities"
        return None

    def summary(self, outcomes):
        return {
            "artifacts": {
                req[0]: {k: o.info.get(k) for k in ("grid_sha256", "cert_sha256")}
                for req, o in zip(self.requests, outcomes)
            },
            "stage_rss_mb": {req[0]: o.info.get("rss_mb") for req, o in zip(self.requests, outcomes)},
        }


class MaskedBatch(Workload):
    """Many small masked grids: make_grid, color, verify_ec, certificate JSON."""

    name = "masked_batch"

    def __init__(self, seed: int, workdir: str, sides=range(16, 49), per_side: int = 2):
        super().__init__(workdir)
        rng = random.Random(seed)
        # every side appears equally often per kind, so the amount of work
        # does not depend on the seed; the seed fixes order, masks and signs
        per_kind = {}
        for kind in ("hex", "tri"):
            order = [s for s in sides for _ in range(per_side)]
            rng.shuffle(order)
            per_kind[kind] = order
        self.requests = [
            (kind, side, rng.randrange(2**63))
            for pair in zip(per_kind["hex"], per_kind["tri"])
            for kind, side in zip(("hex", "tri"), pair)
        ]

    def prepare(self, request):
        kind, side, seed = request
        rng = random.Random(seed)
        cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
        spec = GridSpec(kind, side, side, frozenset(c for c in cells if rng.random() < KEEP))
        signature = {e: NEG if rng.random() < 0.5 else POS for e in spec.edges()}
        return spec, signature

    def run(self, request) -> Outcome:
        spec, signature = request
        base, rho, limit = _targets(spec.kind)
        t0 = perf_counter()
        g = sg_grids.make_grid(spec, signature)
        t1 = perf_counter()
        if spec.kind == "hex":
            hom = sg_colorers.color_hex(g)
        else:
            hom, _trace = sg_colorers.color_tri(g)
        t2 = perf_counter()
        ok = sg_hom.verify_ec(g, rho.graph, hom.mapping)
        t3 = perf_counter()
        signed = sg_hom.ec_to_signed(hom, base.n)
        text = json.dumps(sg_graphio.hom_to_dict(signed, base), sort_keys=True)
        t4 = perf_counter()
        error = None
        if not ok:
            error = f"{spec.kind} {spec.rows}x{spec.cols} certificate fails verify_ec"
        elif len(set(signed.mapping)) > limit:
            error = f"{spec.kind} certificate uses more than {limit} identities"
        stages = {"gen": t1 - t0, "color": (t2 - t1) + (t4 - t3), "verify": t3 - t2}
        return Outcome(stages, g.n, sha256(text), error)

    def summary(self, outcomes):
        return {"certificates_sha256": sha256("".join(o.digest for o in outcomes))}


def tree_split(spec: GridSpec):
    """Spanning-tree edges of a grid and the remaining edges, in edge order."""
    parent = {c: c for c in spec.cells()}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    tree, rest = [], []
    for a, b in spec.edges():
        ra, rb = find(a), find(b)
        if ra == rb:
            rest.append((a, b))
        else:
            parent[ra] = rb
            tree.append((a, b))
    return tree, rest


# Fixed seed of the 60 tri 4x4 switching classes; the workload seed only
# switches their representatives (see README.md, "exact_search").
TRI4_CLASS_SEED = 20120978


class ExactSearch(Workload):
    """Exact chromatic numbers of small patches plus the CLI lower-bound and property runs.

    Every grid instance is one switching class (all tree edges positive, the
    class bits on the other edges) switched at a vertex set drawn from the
    seed.  Switching changes the input but neither its chromatic number nor,
    much, the search cost, so the work per seed stays the same.
    """

    name = "exact_search"

    # (command, subject, expected chromatic number, vertices of the subject)
    CLI_RUNS = (
        ("lowerbounds", "c6", 4, 6),
        ("lowerbounds", "wheel7", 6, 7),
        ("props", "rhoT4", None, 8),
        ("props", "rhoSP9plus", None, 20),
    )

    def __init__(self, seed: int, workdir: str, census=(3, 3), tri4: int = 60,
                 hex4_per_class: int = 4, cli_runs=CLI_RUNS):
        super().__init__(workdir)
        rng = random.Random(seed)
        census_spec = GridSpec("tri", *census)
        tri_spec, hex_spec = GridSpec("tri", 4, 4), GridSpec("hex", 4, 4)
        self.split = {s: tree_split(s) for s in (census_spec, tri_spec, hex_spec)}
        tri_classes = random.Random(TRI4_CLASS_SEED).sample(
            range(1 << len(self.split[tri_spec][1])), tri4)
        hex_classes = [c for c in range(1 << len(self.split[hex_spec][1]))
                       for _ in range(hex4_per_class)]
        classes = (
            [("census", census_spec, c) for c in range(1 << len(self.split[census_spec][1]))]
            + [("tri4", tri_spec, c) for c in tri_classes]
            + [("hex4", hex_spec, c) for c in hex_classes]
        )
        self.requests = [(*c, rng.randrange(2**63)) for c in classes]
        self.requests += [("cli", *run) for run in cli_runs]
        # mixed order, so that each kind of request is timed across the whole pass
        rng.shuffle(self.requests)

    def prepare(self, request):
        if request[0] == "cli":
            return request
        family, spec, bits, seed = request
        tree, rest = self.split[spec]
        signs = {e: POS for e in tree}
        signs.update({e: NEG if bits >> k & 1 else POS for k, e in enumerate(rest)})
        rng = random.Random(seed)
        switched = {c for c in spec.cells() if rng.random() < 0.5}
        signature = {(a, b): -s if (a in switched) != (b in switched) else s
                     for (a, b), s in signs.items()}
        return family, spec, signature

    def run(self, request) -> Outcome:
        if request[0] == "cli":
            return self._run_cli(*request[1:])
        family, spec, signature = request
        t0 = perf_counter()
        g = sg_grids.make_grid(spec, signature)
        t1 = perf_counter()
        budget = sg_hom.SearchBudget(BUDGET)
        found = sg_hom.signed_chromatic_number(g, MAX_ORDER, budget=budget)
        t2 = perf_counter()
        ok = found is not None and sg_hom.verify_signed(g, found[1], found[2])
        t3 = perf_counter()
        stages = {"gen": t1 - t0, "color": t2 - t1, "verify": t3 - t2}
        nodes = BUDGET - budget.remaining
        if found is None:
            return Outcome(stages, g.n, "", f"{family}: no target up to order {MAX_ORDER}")
        order, target, hom = found
        error = None
        if not ok:
            error = f"{family}: witness fails verify_signed"
        elif spec.kind == "hex" and order > 4:
            error = f"{family}: hex chromatic number {order} > 4"
        digest = sha256(repr((order, target.edges, hom.mapping, sorted(hom.switch_set), nodes)))
        return Outcome(stages, g.n, digest, error, {"family": family, "chi": order, "nodes": nodes})

    def _run_cli(self, command: str, subject: str, expected: int | None, vertices: int) -> Outcome:
        path = os.path.join(self.workdir, f"{command}-{subject}.json")
        if command == "lowerbounds":
            argv = ["lowerbounds", "--instance", subject, "--budget", str(BUDGET), "-o", path]
        else:
            argv = ["props", "--target", subject, "-o", path]
        seconds, code, stdout, _ = call_cli(argv, self.workdir)
        t0 = perf_counter()
        error, chi = None, None
        if code != 0:
            error = f"{command} {subject} exited {code}"
        else:
            with open(path) as fh:
                payload = json.load(fh)
            if expected is not None:
                chi = expected
                if not payload["conclusion"].endswith(f"chromatic number = {expected}"):
                    error = f"{command} {subject} concluded {payload['conclusion']!r}"
            elif payload["all_hold"] is not True:
                error = f"props {subject}: a property fails"
        stages = {"gen": 0.0, "color": seconds, "verify": perf_counter() - t0}
        digest = "" if error else sha256(stdout + file_sha256(path))
        return Outcome(stages, vertices, digest, error, {"family": command, "chi": chi})

    def summary(self, outcomes):
        histograms: dict[str, Counter] = {}
        for o in outcomes:
            if o.info.get("chi") is not None:
                histograms.setdefault(o.info["family"], Counter())[o.info["chi"]] += 1
        return {
            "chi": [o.info.get("chi") for o in outcomes],
            "chi_histograms": {f: dict(sorted(h.items())) for f, h in histograms.items()},
            "library_nodes": sum(o.info.get("nodes", 0) for o in outcomes),
        }


WORKLOADS = {w.name: w for w in (CliPipeline, MaskedBatch, ExactSearch)}
