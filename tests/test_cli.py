"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import gc
import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedgrids
from signedgrids import GridSpec, Homomorphism, SignedGraph, build_T4, make_grid, random_signature
from signedgrids.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, EXIT_VERIFY, main
from signedgrids.graphio import graph_to_dict, hom_to_dict

from helpers import mutated


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def hex_graph(tmp_path):
    path = tmp_path / "hex.json"
    assert (
        run(
            "gen",
            "--kind",
            "hex",
            "--rows",
            "4",
            "--cols",
            "4",
            "--seed",
            "7",
            "--p-neg",
            "0.5",
            "-o",
            str(path),
        )
        == EXIT_OK
    )
    return path


class TestGen:
    def test_dimensions_and_header(self, hex_graph):
        data = read(hex_graph)
        assert data["graph"]["n"] == 16
        assert data["config"] == {
            "kind": "hex",
            "rows": 4,
            "cols": 4,
            "seed": 7,
            "p_neg": 0.5,
        }
        assert data["tool"] == "signedgrids" and "version" in data

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "tri", "--rows", "3", "--cols", "5", "--seed", "9"]
        assert run(*args, "-o", str(a)) == EXIT_OK
        assert run(*args, "-o", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_all_positive_tri_2x2(self, tmp_path, capsys):
        assert (
            run("gen", "--kind", "tri", "--rows", "2", "--cols", "2", "--p-neg", "0")
            == EXIT_OK
        )
        data = json.loads(capsys.readouterr().out)
        assert len(data["graph"]["edges"]) == 5
        assert all(s == 1 for *_, s in data["graph"]["edges"])

    def test_usage_error(self):
        assert run("gen", "--kind", "square", "--rows", "2", "--cols", "2") == EXIT_USAGE

    def test_output_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "hex.json"
        old = os.umask(0o022)
        try:
            assert run("gen", "--kind", "hex", "--rows", "2", "--cols", "2", "-o", str(out)) == EXIT_OK
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["hex.json"]


class TestColorAndVerify:
    def test_hex_certificate(self, hex_graph, tmp_path):
        cert = tmp_path / "cert.json"
        dot = tmp_path / "grid.dot"
        assert run("color", "-i", str(hex_graph), "-o", str(cert), "--dot", str(dot)) == EXIT_OK
        data = read(cert)
        assert data["target_name"] == "T4"
        assert data["identities_used"] <= 4
        assert len(data["certificate"]["mapping"]) == 16
        assert "dashed" in dot.read_text() or "solid" in dot.read_text()
        assert run("verify", "-i", str(hex_graph), "-c", str(cert)) == EXIT_OK

    def test_tri_certificate(self, tmp_path):
        graph = tmp_path / "tri.json"
        cert = tmp_path / "cert.json"
        run("gen", "--kind", "tri", "--rows", "5", "--cols", "4", "--seed", "3", "-o", str(graph))
        assert run("color", "-i", str(graph), "-o", str(cert)) == EXIT_OK
        data = read(cert)
        assert data["target_name"] == "SP9+"
        assert data["identities_used"] <= 10

    def test_tampered_certificate_rejected(self, hex_graph, tmp_path):
        cert = tmp_path / "cert.json"
        run("color", "-i", str(hex_graph), "-o", str(cert))
        data = read(cert)
        data["certificate"]["mapping"][0] = (data["certificate"]["mapping"][0] + 1) % 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("verify", "-i", str(hex_graph), "-c", str(bad)) == EXIT_VERIFY

    @pytest.mark.parametrize(
        "forgery",
        [
            {"mapping": [0, 1], "target": {"n": 2, "edges": [[0, 1, 1]]}},  # the grid itself
            {"mapping": [-1, 1]},  # -1 would alias vertex 3 of T4
            {"mapping": [99, 1]},
            {"switch": [99]},
        ],
        ids=["grid_as_target", "mapping_-1", "mapping_99", "switch_99"],
    )
    def test_forged_certificate_rejected(self, tmp_path, capsys, forgery):
        # a single positive edge; mapping [3, 1] into T4 is an honest certificate
        graph, cert = tmp_path / "edge.json", tmp_path / "cert.json"
        run("gen", "--kind", "hex", "--rows", "1", "--cols", "2", "--p-neg", "0", "-o", str(graph))
        witness = {"kind": "signed", "mapping": [3, 1], "switch": [], "target": graph_to_dict(build_T4())}
        cert.write_text(json.dumps({"certificate": witness}))
        assert run("verify", "-i", str(graph), "-c", str(cert)) == EXIT_OK
        witness.update(forgery)
        cert.write_text(json.dumps({"certificate": witness}))
        capsys.readouterr()
        assert run("verify", "-i", str(graph), "-c", str(cert)) == EXIT_VERIFY
        assert capsys.readouterr() == ("certificate REJECTED\n", "")

    def test_certificate_with_a_grid_target(self, tmp_path, capsys):
        # the target of a plain graph's certificate may be written as a grid
        graph, cert = tmp_path / "edge.json", tmp_path / "cert.json"
        graph.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]]}))
        spec = GridSpec("hex", 1, 2)
        target = graph_to_dict(make_grid(spec, {((1, 1), (1, 2)): 1}))
        cert.write_text(json.dumps({"certificate": {"mapping": [1, 0], "switch": [], "target": target}}))
        assert run("verify", "-i", str(graph), "-c", str(cert)) == EXIT_OK
        assert capsys.readouterr() == ("certificate OK\n", "")

    @pytest.mark.parametrize(
        "forge",
        [
            lambda w: {"certificate": dict(w, mapping=31)},
            lambda w: {"certificate": dict(w, switch=1)},
            lambda w: {"certificate": dict(w, mapping=[None, 1])},
            lambda w: {"certificate": dict(w, mapping=[1.5, 1])},
            lambda w: {"certificate": dict(w, mapping=[True, 1])},
            lambda w: {"certificate": dict(w, switch=[None])},
            lambda w: [1, 2],
            lambda w: {"certificate": [1, 2]},
        ],
        ids=["mapping_not_list", "switch_not_list", "mapping_null", "mapping_float",
             "mapping_bool", "switch_null", "file_array", "certificate_array"],
    )
    def test_malformed_certificate_is_a_usage_error(self, tmp_path, capsys, forge):
        graph, cert = tmp_path / "edge.json", tmp_path / "cert.json"
        run("gen", "--kind", "hex", "--rows", "1", "--cols", "2", "--p-neg", "0", "-o", str(graph))
        witness = {"kind": "signed", "mapping": [3, 1], "switch": [], "target": graph_to_dict(build_T4())}
        cert.write_text(json.dumps(forge(witness)))
        capsys.readouterr()
        assert run("verify", "-i", str(graph), "-c", str(cert)) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("signedgrids: ") and "Traceback" not in err

    def test_color_without_grid_metadata(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]]}))
        assert run("color", "-i", str(path)) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["color", "verify"])
    def test_malformed_graph_is_a_usage_error(self, tmp_path, capsys, command):
        # color on a grid whose "edges" is 5; verify on a certificate whose target is [1, 2]
        graph, cert = tmp_path / "grid.json", tmp_path / "cert.json"
        run("gen", "--kind", "hex", "--rows", "2", "--cols", "2", "-o", str(graph))
        run("color", "-i", str(graph), "-o", str(cert))
        if command == "color":
            data = read(graph)
            data["graph"]["edges"] = 5
            graph.write_text(json.dumps(data))
            argv = ("color", "-i", str(graph))
        else:
            data = read(cert)
            data["certificate"]["target"] = [1, 2]
            cert.write_text(json.dumps(data))
            argv = ("verify", "-i", str(graph), "-c", str(cert))
        capsys.readouterr()
        assert run(*argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("signedgrids: ") and "Traceback" not in err

    @pytest.mark.parametrize("nested", ["graph", "certificate"])
    def test_deeply_nested_json_is_a_usage_error(self, hex_graph, tmp_path, capsys, nested):
        cert, deep = tmp_path / "cert.json", tmp_path / "deep.json"
        assert run("color", "-i", str(hex_graph), "-o", str(cert)) == EXIT_OK
        deep.write_text("[" * 100000)
        graph, cert = (deep, cert) if nested == "graph" else (hex_graph, deep)
        argvs = [("verify", "-i", str(graph), "-c", str(cert))]
        if nested == "graph":
            argvs.append(("color", "-i", str(graph)))
        for argv in argvs:
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and err == f"signedgrids: {deep}: JSON nested too deeply\n"

    def test_grid_with_a_dropped_edge_is_a_usage_error(self, tmp_path, capsys):
        graph = tmp_path / "tri.json"
        run("gen", "--kind", "tri", "--rows", "4", "--cols", "4", "--seed", "3", "-o", str(graph))
        data = read(graph)
        u, v, _ = data["graph"]["edges"].pop(4)
        graph.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("color", "-i", str(graph)) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("signedgrids: grid edge ")
        assert err.endswith(f"(vertices {u}, {v}) is missing\n")

    def test_grid_with_an_extra_edge_is_a_usage_error(self, tmp_path, capsys):
        graph, cert = tmp_path / "tri.json", tmp_path / "cert.json"
        run("gen", "--kind", "tri", "--rows", "4", "--cols", "4", "--seed", "3", "-o", str(graph))
        assert run("color", "-i", str(graph), "-o", str(cert)) == EXIT_OK
        data = read(graph)
        data["graph"]["edges"].append([0, 15, 1])  # cells (1, 1) and (4, 4)
        graph.write_text(json.dumps(data))
        for argv in (("color", "-i", str(graph)), ("verify", "-i", str(graph), "-c", str(cert))):
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and err == (
                "signedgrids: edge [0, 15, 1] does not join neighboring cells of the tri grid\n"
            )


class TestReports:
    def test_props_rho_t4(self, tmp_path):
        out = tmp_path / "props.json"
        assert run("props", "--target", "rhoT4", "-o", str(out)) == EXIT_OK
        assert read(out)["all_hold"] is True

    def test_props_rho_sp9_plus(self, tmp_path):
        out = tmp_path / "props.json"
        assert run("props", "--target", "rhoSP9plus", "-o", str(out)) == EXIT_OK
        assert sha256(out) == "2790febd00adf709a82625c12bad27b960af7d13e73a94468a6b70fbe9d2850a"
        data = read(out)
        assert data["all_hold"] is True
        assert data["antiautomorphic"] is True
        assert len(data["reports"]) == 5

    def test_lowerbounds_wheel7(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", "wheel7", "-o", str(out)) == EXIT_OK
        assert sha256(out) == "418b69981b88808f02b0bfefdcf3a4ff9b4696c770abbd2922bf6473b53fff9f"
        data = read(out)
        assert data["order5_admitting_count"] == 0
        assert data["order6_witness_mask"] is not None
        assert "no target of order 5" in capsys.readouterr().out

    def test_chromatic_c6_grid(self, tmp_path):
        graph = tmp_path / "c6.json"
        run("gen", "--kind", "hex", "--rows", "3", "--cols", "2", "--seed", "0", "--p-neg", "0", "-o", str(graph))
        data = read(graph)
        data["graph"]["edges"][0][2] = -1  # make the hexagon unbalanced
        graph.write_text(json.dumps(data))
        out = tmp_path / "chrom.json"
        assert run("chromatic", "-i", str(graph), "--max-order", "4", "-o", str(out)) == EXIT_OK
        result = read(out)
        assert result["status"] == "found" and result["order"] == 4

    def test_chromatic_on_a_grid_deeper_than_the_recursion_limit(self, tmp_path):
        graph, out = tmp_path / "hex40.json", tmp_path / "chrom.json"
        assert run("gen", "--kind", "hex", "--rows", "40", "--cols", "40", "--seed", "1", "-o", str(graph)) == EXIT_OK
        assert run("chromatic", "-i", str(graph), "--max-order", "4", "-o", str(out)) == EXIT_OK
        result = read(out)
        assert result["status"] == "found" and result["order"] <= 4

    def test_chromatic_budget_exhaustion(self, hex_graph, tmp_path):
        out = tmp_path / "chrom.json"
        code = run("chromatic", "-i", str(hex_graph), "--max-order", "4", "--budget", "3", "-o", str(out))
        assert code == EXIT_UNKNOWN
        assert read(out)["status"] == "unknown"

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_chromatic_max_order_below_one_is_a_usage_error(self, hex_graph, tmp_path, capsys, order):
        # no order below 1 can bound a chromatic number, so "none" would be vacuous
        out = tmp_path / "chrom.json"
        assert run("chromatic", "-i", str(hex_graph), "--max-order", order, "-o", str(out)) == EXIT_USAGE
        assert not out.exists()
        assert "max_order must be at least 1" in capsys.readouterr().err

    def test_lowerbounds_c6(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", "c6", "-o", str(out)) == EXIT_OK
        data = read(out)
        assert data["order3_admitting"] == []
        assert data["order4_T4_admits"] is True
        assert "order-4 witness T4" in capsys.readouterr().out

    def test_motif_artifact(self, tmp_path):
        out = tmp_path / "motif.json"
        assert run("motif", "--rows", "5", "--cols", "5", "-o", str(out)) == EXIT_OK
        data = read(out)
        assert data["graph"]["n"] == 25
        assert sorted(set(data["coloring"])) == [0, 1, 2, 3, 4, 5]
        assert data["target"]["n"] == 6

    def test_missing_input_file(self, tmp_path):
        assert run("color", "-i", str(tmp_path / "nope.json")) == EXIT_USAGE


def test_an_unwritable_output_is_named_as_given(tmp_path, capsys):
    out = tmp_path / "missing" / "g.json"
    assert run("gen", "--kind", "hex", "--rows", "2", "--cols", "2", "-o", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err == f"signedgrids: [Errno 2] No such file or directory: {str(out)!r}\n"


@pytest.mark.parametrize("command", ["color", "motif"])
def test_a_failed_dot_write_leaves_no_artifact(hex_graph, tmp_path, capsys, command):
    out, dot = tmp_path / "out.json", tmp_path / "missing" / "g.dot"
    source = ("-i", str(hex_graph)) if command == "color" else ("--rows", "3", "--cols", "3")
    assert run(command, *source, "-o", str(out), "--dot", str(dot)) == EXIT_USAGE
    assert str(dot) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hex.json"]


# a command's exit code and the signedgrids modules it imported, in a fresh process
FOOTPRINT = (
    "import sys\n"
    "from signedgrids.cli import main\n"
    "print(main(sys.argv[1:]), *sorted(m for m in sys.modules if m.startswith('signedgrids')))\n"
)


def loaded_modules(*argv, cwd):
    src = os.path.dirname(os.path.dirname(signedgrids.__file__))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.mark.parametrize(
    "argv, code",
    [(("--version",), EXIT_OK), (("--help",), EXIT_OK), (("gen", "--kind", "hex"), EXIT_USAGE), (("nosuchcommand",), EXIT_USAGE)],
)
def test_version_help_and_usage_errors_load_no_library_module(tmp_path, argv, code):
    assert loaded_modules(*argv, cwd=tmp_path) == (code, {"signedgrids", "signedgrids.cli"})


def test_gen_and_verify_load_no_colorer_or_property_module(hex_graph, tmp_path):
    assert run("color", "-i", str(hex_graph), "-o", str(tmp_path / "cert.json")) == EXIT_OK
    gen = loaded_modules("gen", "--kind", "tri", "--rows", "3", "--cols", "3", "-o", "g.json", cwd=tmp_path)
    verify = loaded_modules("verify", "-i", "hex.json", "-c", "cert.json", cwd=tmp_path)
    for code, modules in (gen, verify):
        assert code == EXIT_OK and "signedgrids.graphio" in modules
        assert not modules & {"signedgrids.colorers", "signedgrids.props"}


@pytest.mark.parametrize("kind", ["hex", "tri"])
def test_the_pipeline_builds_no_signed_graph_of_grid_size(tmp_path, monkeypatch, kind):
    # a grid stays a sign array from gen to verify; only targets (at most
    # 20 vertices) are SignedGraphs
    sizes = []
    init = SignedGraph.__init__

    def counting(self, n, *args, **kwargs):
        sizes.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(SignedGraph, "__init__", counting)
    graph, cert = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    assert run("gen", "--kind", kind, "--rows", "8", "--cols", "7", "--seed", "2", "-o", graph) == EXIT_OK
    assert run("color", "-i", graph, "-o", cert) == EXIT_OK
    assert run("verify", "-i", graph, "-c", cert) == EXIT_OK
    assert sizes and max(sizes) <= 20


def test_verify_and_chromatic_on_a_tiny_mask_in_a_huge_box(tmp_path, capsys):
    # two cells of a box of 10**10: both commands work per retained cell
    side = 10**5
    graph, cert, chi = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "chi.json"
    grid = {"kind": "hex", "rows": side, "cols": side, "mask": [[1, 1], [1, 2]]}
    graph.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]], "grid": grid}))
    t4 = build_T4()
    u, v, _ = next(e for e in t4.edges if e[2] == 1)
    cert.write_text(json.dumps({"certificate": hom_to_dict(Homomorphism((u, v)), t4)}))
    assert run("verify", "-i", str(graph), "-c", str(cert)) == EXIT_OK
    assert capsys.readouterr() == ("certificate OK\n", "")
    assert run("chromatic", "-i", str(graph), "--max-order", "2", "-o", str(chi)) == EXIT_OK
    assert read(chi)["order"] == 2


def test_main_calls_leave_no_parser_garbage(tmp_path):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert run("gen", "--kind", "hex", "--rows", "2", "--cols", "2", "-o", str(tmp_path / "g.json")) == EXIT_OK
        gc.collect()
        formatters = [x for x in gc.garbage if isinstance(x, argparse.HelpFormatter)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert formatters == []


def test_props_calls_leave_no_cyclic_garbage(tmp_path):
    # the clique and map enumerations of props are module-level generators,
    # so a props run frees everything it allocates without the collector
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for target in ("rhoT4", "rhoSP9plus", "SP9"):
            assert run("props", "--target", target, "-o", str(tmp_path / "p.json")) == EXIT_OK
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


# sha256 of every artifact of a small run of each command; identical
# invocations must keep writing identical bytes
GOLDEN = {
    "chromatic-found.json": "eb945bf9860cdeb97499c487e4c0acbf8ddb8b96192c007395b31c08133205e7",
    "chromatic-unknown.json": "76b67c10a6f85e93c1d3da8692f35484342ad20deb12698642630aba32524478",
    "hex-cert.json": "ff276e1b75851cddb48efd6a78aab8b88e80f6a6ab4dde36c2a082973f27ee26",
    "hex.dot": "56adf4c4c4deddc5003315a95d66b3ae5ae966e8c6e859386caf66d120916eeb",
    "hex.json": "90c87955835ccbd8a40f433c7ac6bf859521fa74cb43607cbaf364aeaa276d73",
    "lowerbounds-c6.json": "b80db301cb0b2aa67d74e22a908b9857ba3ba5849113f22bc19cac05ca00c4c3",
    "motif.dot": "5d28f342b24ff4eb0bdb34d05ea72df7272e887632d9c20964da07630d0dbcdc",
    "motif.json": "05408e35c8d21d33b5f48d39c3ab0c82c38f8b870a1110d6e929cf2b34450887",
    "props-SP9.json": "5d4dbb73d5b5358be0cea4cfe6c1fe6cb4cff214e6de4624f019cb2408734131",
    "props-rhoT4.json": "e6a9caa3b9b954306d3685df97d2c4b22861e372a208264d08b9a2af3268d32e",
    "tri-cert.json": "b6e69d3ea2870ac8036356dcf616972669367fdf12a4c4f57e15b26f45bb7fc7",
    "tri.dot": "8111123f64f1a18b9d8879037064569d86b6efb589041a54b0f2b6107df6bec2",
    "tri.json": "7b45bb31fd49d472ab27f5026c3d4847e73425196bb1fe2cec6267c309497d0d",
    "tri3.json": "2b102a98114b9f201e04d80839b87bc20dfd84e917286bf0a1db6c609c0970b6",
}


def test_artifacts_are_byte_identical(tmp_path, monkeypatch, capsys):
    # color and chromatic embed the input path in their config
    monkeypatch.chdir(tmp_path)
    steps = [
        ("gen", "--kind", "hex", "--rows", "4", "--cols", "4", "--seed", "7", "-o", "hex.json"),
        ("gen", "--kind", "tri", "--rows", "5", "--cols", "4", "--seed", "3", "-o", "tri.json"),
        ("gen", "--kind", "tri", "--rows", "3", "--cols", "3", "--seed", "1", "-o", "tri3.json"),
        ("color", "-i", "hex.json", "-o", "hex-cert.json", "--dot", "hex.dot"),
        ("color", "-i", "tri.json", "-o", "tri-cert.json", "--dot", "tri.dot"),
        ("verify", "-i", "hex.json", "-c", "hex-cert.json"),
        ("verify", "-i", "tri.json", "-c", "tri-cert.json"),
        ("chromatic", "-i", "tri3.json", "-o", "chromatic-found.json"),
        ("chromatic", "-i", "hex.json", "--max-order", "4", "--budget", "3", "-o", "chromatic-unknown.json"),
        ("props", "--target", "rhoT4", "-o", "props-rhoT4.json"),
        ("props", "--target", "SP9", "-o", "props-SP9.json"),
        ("lowerbounds", "--instance", "c6", "-o", "lowerbounds-c6.json"),
        ("motif", "--rows", "5", "--cols", "5", "-o", "motif.json", "--dot", "motif.dot"),
    ]
    codes = [run(*argv) for argv in steps]
    assert codes == [EXIT_OK] * 8 + [EXIT_UNKNOWN] + [EXIT_OK] * 4
    assert capsys.readouterr().out == (
        "certificate OK\ncertificate OK\n"
        "no target of order 3; order-4 witness T4 => chromatic number = 4\n"
    )
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == GOLDEN


# ---------------------------------------------------------------------------
# Loader fuzzing: mutated grid files and certificates end in an exit code.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Per grid kind, a small grid file and its certificate, as JSON values;
    plus one masked grid, built in the library since ``gen`` writes none."""
    work = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for kind in ("hex", "tri"):
        graph, cert = work / f"{kind}.json", work / f"{kind}-cert.json"
        run("gen", "--kind", kind, "--rows", "2", "--cols", "3", "--seed", "1", "-o", str(graph))
        run("color", "-i", str(graph), "-o", str(cert))
        docs[kind] = (read(graph), read(cert))
    spec = GridSpec("tri", 3, 3, mask=frozenset({(1, 1), (1, 2), (2, 1), (3, 3)}))
    masked = {"graph": graph_to_dict(make_grid(spec, random_signature(spec, 2, 0.5)))}
    graph, cert = work / "masked.json", work / "masked-cert.json"
    graph.write_text(json.dumps(masked))
    run("color", "-i", str(graph), "-o", str(cert))
    docs["masked"] = (masked, read(cert))
    return work, docs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_loader_inputs_end_in_an_exit_code(valid_files, data):
    work, docs = valid_files
    grid_doc, cert_doc = docs[data.draw(st.sampled_from(sorted(docs)))]
    which = data.draw(st.sampled_from(("grid", "certificate", "both")))
    if which != "certificate":
        grid_doc = data.draw(mutated(grid_doc))
    if which != "grid":
        cert_doc = data.draw(mutated(cert_doc))
    graph, cert, out = work / "graph.json", work / "cert.json", work / "out.json"
    graph.write_text(json.dumps(grid_doc))
    cert.write_text(json.dumps(cert_doc))
    assert run("color", "-i", str(graph), "-o", str(out)) in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY)
    assert run("verify", "-i", str(graph), "-c", str(cert)) in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY)
