"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import stat
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedgrids
from signedgrids import (
    GridSpec,
    Homomorphism,
    SignedGraph,
    build_T4,
    complete_signed_graph,
    find_isomorphism,
    make_grid,
    random_signature,
    unbalanced_c6,
    unbalanced_wheel7,
    verify_ec,
    verify_signed,
)
from signedgrids import cli
from signedgrids.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, EXIT_VERIFY, main
from signedgrids.graphio import graph_from_dict, graph_to_dict, hom_from_dict, hom_to_dict

from helpers import certifies, mutated, random_edits, single_edits


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
            {"mapping": [3]},  # a certificate for a smaller graph
            {"mapping": [3, 1, 0]},  # ... or a larger one
        ],
        ids=["grid_as_target", "mapping_-1", "mapping_99", "switch_99", "mapping_short", "mapping_long"],
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

    def test_color_without_grid_metadata(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]]}))
        assert run("color", "-i", str(path)) == EXIT_USAGE
        assert capsys.readouterr().err == "signedgrids: input file carries no grid metadata\n"

    @pytest.mark.parametrize("command", ["color", "verify"])
    def test_malformed_graph_is_a_usage_error(self, tmp_path, capsys, command):
        # color on a grid whose "edges" is 5; verify on a certificate whose
        # target is [1, 2]; both on a grid with an edge naming vertex n at
        # either end, with integer labels, and with null labels
        graph, cert = tmp_path / "grid.json", tmp_path / "cert.json"
        run("gen", "--kind", "hex", "--rows", "2", "--cols", "2", "-o", str(graph))
        run("color", "-i", str(graph), "-o", str(cert))
        good_graph, good_cert = read(graph), read(cert)
        n = good_graph["graph"]["n"]
        (u, v, s), *rest = good_graph["graph"]["edges"]
        forged_graphs = [
            {"edges": [[n, v, s], *rest]},
            {"edges": [[u, n, s], *rest]},
            {"labels": list(range(n))},
            {"labels": None},
        ]
        if command == "color":
            forged_graphs.append({"edges": 5})
        cases = [(dict(good_graph, graph=dict(good_graph["graph"], **f)), good_cert) for f in forged_graphs]
        if command == "verify":
            cases.append((good_graph, {"certificate": dict(good_cert["certificate"], target=[1, 2])}))
        for forged_graph, forged_cert in cases:
            graph.write_text(json.dumps(forged_graph))
            cert.write_text(json.dumps(forged_cert))
            argv = ("color", "-i", str(graph)) if command == "color" else ("verify", "-i", str(graph), "-c", str(cert))
            capsys.readouterr()
            assert run(*argv) == EXIT_USAGE, forged_graph
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
        assert sha256(out) == "18ac62c6be9bfbae4f7d54cd54f29ca4b9eef09a5c17fa5363ba58ce7f381906"
        data = read(out)
        assert data["status"] == "found" and data["order"] == 6
        hom, target = hom_from_dict(data["witness"])
        assert verify_signed(unbalanced_wheel7(), target, hom)
        # the witness target is mask 37, the least mask of the 6th order-6 class
        assert target == complete_signed_graph(6, 37)
        assert capsys.readouterr().out == (
            "no target of order 5; order-6 witness found => chromatic number = 6\n"
        )

    @pytest.mark.parametrize(
        "instance, searches",
        [
            ("c6", {1: 1, 2: 1, 3: 2, 4: 2}),
            # 7 order-5 classes, and the witness, mask 37, is the 6th order-6 class
            ("wheel7", {1: 1, 2: 1, 3: 2, 4: 3, 5: 7, 6: 6}),
        ],
        ids=["c6", "wheel7"],
    )
    def test_lowerbounds_searches_one_target_per_switching_class(self, tmp_path, monkeypatch, instance, searches):
        orders = []
        search = signedgrids.hom.find_signed_hom

        def counted(g, h, budget=None):
            orders.append(h.n)
            return search(g, h, budget=budget)

        monkeypatch.setattr(signedgrids.hom, "find_signed_hom", counted)
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", instance, "-o", str(out)) == EXIT_OK
        assert Counter(orders) == searches

    @pytest.mark.parametrize("instance", ["c6", "wheel7"])
    def test_lowerbounds_budget_exhaustion(self, tmp_path, capsys, instance):
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", instance, "--budget", "0", "-o", str(out)) == EXIT_UNKNOWN
        assert read(out)["status"] == "unknown"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("chi, status", [(3, "none"), (5, "found")])
    def test_lowerbounds_concludes_unexpected_off_the_claimed_order(self, tmp_path, capsys, monkeypatch, chi, status):
        # c6 needs 4: a claim of 3 finds nothing, one of 5 finds order 4;
        # neither proves the claim, so the run fails verification
        monkeypatch.setitem(signedgrids.cli._INSTANCES, "c6", (unbalanced_c6, chi))
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", "c6", "-o", str(out)) == EXIT_VERIFY
        data = read(out)
        assert data["status"] == status and data["conclusion"] == "unexpected"
        assert capsys.readouterr().out == "unexpected\n"

    @pytest.mark.parametrize(
        "instance, build, chi", [("c6", unbalanced_c6, 4), ("wheel7", unbalanced_wheel7, 6)], ids=["c6", "wheel7"]
    )
    def test_lowerbounds_is_the_chromatic_sweep_on_the_instance(self, tmp_path, instance, build, chi):
        graph, lb, chrom = tmp_path / "g.json", tmp_path / "lb.json", tmp_path / "chrom.json"
        graph.write_text(json.dumps(graph_to_dict(build())))
        assert run("lowerbounds", "--instance", instance, "-o", str(lb)) == EXIT_OK
        assert run("chromatic", "-i", str(graph), "--max-order", str(chi), "-o", str(chrom)) == EXIT_OK
        a, b = read(lb), read(chrom)
        assert (a["order"], a["witness"]) == (b["order"], b["witness"])

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

    def test_sweeps_build_no_graph_from_a_grid(self, hex_graph, tmp_path, monkeypatch):
        # chromatic on hex and tri grid files, lowerbounds on the c6 grid:
        # no grid is converted, and every SignedGraph built is smaller than
        # the 16-vertex grids
        tri = tmp_path / "tri.json"
        assert run("gen", "--kind", "tri", "--rows", "4", "--cols", "4", "--seed", "7", "-o", str(tri)) == EXIT_OK

        def refused(self):
            raise AssertionError("a sweep converted a grid to a SignedGraph")

        init, sizes = SignedGraph.__init__, []

        def counted(self, n, edges, labels=None):
            sizes.append(n)
            init(self, n, edges, labels)

        monkeypatch.setattr(signedgrids.grids.SignedGrid, "graph", refused)
        monkeypatch.setattr(SignedGraph, "__init__", counted)
        for path in (hex_graph, tri):
            assert run("chromatic", "-i", str(path), "-o", str(tmp_path / "chrom.json")) == EXIT_OK
            assert read(tmp_path / "chrom.json")["status"] == "found"
        assert max(sizes, default=0) < 16
        assert run("lowerbounds", "--instance", "c6", "-o", str(tmp_path / "lb.json")) == EXIT_OK

    def test_lowerbounds_c6(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        assert run("lowerbounds", "--instance", "c6", "-o", str(out)) == EXIT_OK
        data = read(out)
        assert data["status"] == "found" and data["order"] == 4
        hom, target = hom_from_dict(data["witness"])
        assert verify_signed(unbalanced_c6(), target, hom)
        # the least mask of its class, one negative edge: T4 up to relabeling
        assert find_isomorphism(target, build_T4()) is not None
        assert capsys.readouterr().out == (
            "no target of order 3; order-4 witness found => chromatic number = 4\n"
        )

    def test_motif_artifact(self, tmp_path):
        out = tmp_path / "motif.json"
        assert run("motif", "--rows", "5", "--cols", "5", "-o", str(out)) == EXIT_OK
        data = read(out)
        assert data["graph"]["n"] == 25
        assert sorted(set(data["coloring"])) == [0, 1, 2, 3, 4, 5]
        assert data["target"]["n"] == 6
        # the coloring maps the artifact's own graph into its own target
        assert verify_ec(graph_from_dict(data["graph"]), graph_from_dict(data["target"]), data["coloring"])
        # the grid's bytes are those the motif has always written
        graph = json.dumps(data["graph"], sort_keys=True).encode()
        assert hashlib.sha256(graph).hexdigest() == "7a3d61f0c44fd32d72d6921317ee72c5ae0913cbb6ec70a6e32dc183efe62c52"

    def test_missing_input_file(self, tmp_path):
        assert run("color", "-i", str(tmp_path / "nope.json")) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, config",
    [
        (("gen", "--kind", "tri", "--rows", "3", "--cols", "2"),
         {"kind": "tri", "rows": 3, "cols": 2, "seed": 0, "p_neg": 0.5}),
        (("color", "-i", "hex.json", "--dot", "out.dot"), {"input": "hex.json"}),
        (("props", "--target", "rhoT4"), {"target": "rhoT4"}),
        (("chromatic", "-i", "hex.json", "--max-order", "4"), {"input": "hex.json", "max_order": 4, "budget": None}),
        (("lowerbounds", "--instance", "c6"), {"instance": "c6", "budget": None}),
        (("motif", "--rows", "3", "--cols", "2", "--dot", "out.dot"), {"rows": 3, "cols": 2}),
    ],
    ids=["gen", "color", "props", "chromatic", "lowerbounds", "motif"],
)
def test_config_is_every_argument_but_the_destinations(hex_graph, tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "-o", "out.json") == EXIT_OK
    written = read(tmp_path / "out.json")["config"]
    assert written == config
    assert "output" not in written and "dot" not in written


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


@pytest.mark.parametrize("command", ["color", "motif"])
def test_a_dot_over_the_artifact_is_a_usage_error(hex_graph, tmp_path, capsys, monkeypatch, command):
    # --dot naming the file of -o, by another path or through a symlink,
    # would replace the artifact with the drawing: refused before any write
    monkeypatch.chdir(tmp_path)
    source = ("-i", str(hex_graph)) if command == "color" else ("--rows", "3", "--cols", "3")
    (tmp_path / "out.json").write_text("kept\n")
    (tmp_path / "link.json").symlink_to("out.json")
    for dot in ("out.json", "./out.json", str(tmp_path / "out.json"), "link.json"):
        assert run(command, *source, "-o", "out.json", "--dot", dot) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("signedgrids: ") and err.count("\n") == 1 and "same file" in err
        assert (tmp_path / "out.json").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hex.json", "link.json", "out.json"]
    assert run(command, *source, "-o", "out.json", "--dot", "out.dot") == EXIT_OK
    assert (tmp_path / "out.dot").read_text().startswith("graph G {")


# a command's exit code and the modules it loaded, in a fresh process: those
# loaded after the interpreter's start (without `site`, and minus what it had
# loaded by then), so that only what the package itself imports is counted
FOOTPRINT = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "if sys.argv[1:] == ['import']:\n"
    "    import signedgrids.hom\n"
    "    code = 0\n"
    "else:\n"
    "    from signedgrids.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, *sorted(set(sys.modules) - before))\n"
)


def loaded_modules(*argv, cwd):
    """Run ``cli.main(argv)`` (or, for ``import``, import ``signedgrids.hom``)
    in a fresh process; its exit code and the modules it newly loaded."""
    src = os.path.dirname(os.path.dirname(signedgrids.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def library(modules):
    return {m for m in modules if m.startswith("signedgrids")}


@pytest.mark.parametrize(
    "argv, code",
    [(("--version",), EXIT_OK), (("--help",), EXIT_OK), (("gen", "--kind", "hex"), EXIT_USAGE), (("nosuchcommand",), EXIT_USAGE)],
)
def test_version_help_and_usage_errors_load_no_library_module(tmp_path, argv, code):
    got, modules = loaded_modules(*argv, cwd=tmp_path)
    assert (got, library(modules)) == (code, {"signedgrids", "signedgrids.cli"})


def test_gen_and_verify_load_no_colorer_or_property_module(hex_graph, tmp_path):
    assert run("color", "-i", str(hex_graph), "-o", str(tmp_path / "cert.json")) == EXIT_OK
    gen = loaded_modules("gen", "--kind", "tri", "--rows", "3", "--cols", "3", "-o", "g.json", cwd=tmp_path)
    verify = loaded_modules("verify", "-i", "hex.json", "-c", "cert.json", cwd=tmp_path)
    for code, modules in (gen, verify):
        assert code == EXIT_OK and "signedgrids.graphio" in modules
        assert not modules & {"signedgrids.colorers", "signedgrids.props"}
    # only a certificate needs the search module
    assert "signedgrids.hom" not in gen[1] and "signedgrids.hom" in verify[1]


def test_commands_and_the_library_load_no_dataclasses_inspect_or_typing(hex_graph, tmp_path):
    # the value classes are plain slotted classes, and random is loaded by
    # the one command that draws signs
    runs = {
        "gen": loaded_modules("gen", "--kind", "tri", "--rows", "3", "--cols", "3", "-o", "g.json", cwd=tmp_path),
        "color": loaded_modules("color", "-i", "hex.json", "-o", "cert.json", cwd=tmp_path),
        "verify": loaded_modules("verify", "-i", "hex.json", "-c", "cert.json", cwd=tmp_path),
        "import": loaded_modules("import", cwd=tmp_path),
    }
    for name, (code, modules) in runs.items():
        assert code == EXIT_OK and library(modules), name
        assert not modules & {"dataclasses", "inspect", "typing"}, name
    # the search module tells a grid by type without loading the grid module
    assert "signedgrids.hom" in runs["import"][1] and "signedgrids.grids" not in runs["import"][1]
    assert "random" in runs["gen"][1]
    assert "random" not in runs["color"][1] | runs["verify"][1]


def test_the_commands_load_no_shutil(hex_graph, tmp_path):
    # argparse's stock help formatter imports shutil, and with it bz2, lzma,
    # zlib and fnmatch, for the terminal width; the parser's own does not
    assert run("color", "-i", str(hex_graph), "-o", str(tmp_path / "cert.json")) == EXIT_OK
    for argv in (
        ("--version",),
        ("gen", "--kind", "tri", "--rows", "3", "--cols", "3", "-o", "g.json"),
        ("color", "-i", "hex.json", "-o", "cert.json"),
        ("verify", "-i", "hex.json", "-c", "cert.json"),
    ):
        code, modules = loaded_modules(*argv, cwd=tmp_path)
        assert code == EXIT_OK and not modules & {"shutil", "bz2", "lzma"}, argv


def test_help_and_usage_errors_are_the_stock_formatters_text(monkeypatch, capsys):
    # at every terminal width, each command's --help and usage error read
    # as argparse's stock HelpFormatter writes them
    ours = cli.build_parser()
    commands = next(a.choices for a in ours._actions if isinstance(a, argparse._SubParsersAction))
    # an option of each command without its value: that command's usage error
    valueless = {"gen": "--rows", "color": "-i", "verify": "-c", "props": "--target",
                 "chromatic": "--budget", "lowerbounds": "--instance", "motif": "--cols"}
    assert sorted(commands) == sorted(valueless) and len(commands) == 7
    argvs = [["--help"], [], ["--bogus"], *([c, "--help"] for c in commands), *([c, o] for c, o in valueless.items())]
    helps = {}
    for columns in (None, "40", "80", "200"):
        with monkeypatch.context() as patch:
            if columns is None:
                patch.delenv("COLUMNS", raising=False)
            else:
                patch.setenv("COLUMNS", columns)
            ours = cli.build_parser()
            patch.setattr(cli, "_formatter", argparse.HelpFormatter)
            stock = cli.build_parser()
            for argv in argvs:
                texts = []
                for parser in (ours, stock):
                    with pytest.raises(SystemExit):
                        parser.parse_args(argv)
                    texts.append(capsys.readouterr())
                assert texts[0] == texts[1] and texts[0].out + texts[0].err, (columns, argv)
                if argv == ["--help"]:
                    helps[columns] = texts[0].out
    # the width reaches the text
    assert helps["40"] != helps["200"]


@pytest.mark.parametrize("kind", ["hex", "tri"])
def test_the_pipeline_builds_no_signed_graph_of_grid_size(tmp_path, monkeypatch, kind):
    # a grid stays a sign column from gen to verify; only targets (at most
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


# small files that claim a large graph, and a 256 MB address-space limit
# under which each must be rejected in proportion to its own size
HOSTILE_FILES = {
    "plain-1e8.json": {"n": 10**8, "edges": []},
    "tri-1000-no-edges.json": {"n": 10**6, "edges": [], "grid": {"kind": "tri", "rows": 1000, "cols": 1000}},
    "tri-1e5-no-edges.json": {"n": 10**10, "edges": [], "grid": {"kind": "tri", "rows": 10**5, "cols": 10**5}},
    "edge.json": {"n": 2, "edges": [[0, 1, 1]]},
    "t4-cert.json": hom_to_dict(Homomorphism((0, 1)), build_T4()),
    # the mapping is in range, but no edge touches its images
    "plain-1e8-cert.json": {"mapping": [0, 1], "switch": [], "target": {"n": 10**8, "edges": []}},
    # counts past 2^63, which no index-sized integer holds
    "tri-1e10-no-edges.json": {"n": 10**20, "edges": [], "grid": {"kind": "tri", "rows": 10**10, "cols": 10**10}},
    "plain-1e20.json": {"n": 10**20, "edges": []},
    # text, not a value: a nest deeper than the decoder's recursion limit
    "nest.json": "[" * 100000,
}
ADDRESS_SPACE = 256 << 20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize(
    "argv, code",
    [
        (("color", "-i", "plain-1e8.json", "-o", "out.json"), EXIT_USAGE),
        (("verify", "-i", "plain-1e8.json", "-c", "t4-cert.json"), EXIT_VERIFY),
        (("verify", "-i", "edge.json", "-c", "plain-1e8-cert.json"), EXIT_VERIFY),
        *(
            ((command, "-i", name, *extra), EXIT_USAGE)
            for name in ("tri-1000-no-edges.json", "tri-1e5-no-edges.json")
            for command, extra in (("color", ("-o", "out.json")), ("verify", ("-c", "t4-cert.json")))
        ),
        # the answer's mapping alone has n entries: out of memory, one line
        (("chromatic", "-i", "plain-1e8.json", "-o", "out.json"), EXIT_USAGE),
        # the missing edge is named by arithmetic on the bounding ids
        *(
            ((command, "-i", "tri-1e10-no-edges.json", *extra), EXIT_USAGE)
            for command, extra in (("color", ("-o", "out.json")), ("verify", ("-c", "t4-cert.json")),
                                   ("chromatic", ("-o", "out.json")))
        ),
        # the search's per-vertex list has more entries than an index holds
        (("chromatic", "-i", "plain-1e20.json", "-o", "out.json"), EXIT_USAGE),
        (("color", "-i", "nest.json", "-o", "out.json"), EXIT_USAGE),
        (("verify", "-i", "nest.json", "-c", "t4-cert.json"), EXIT_USAGE),
        (("verify", "-i", "edge.json", "-c", "nest.json"), EXIT_USAGE),
        (("chromatic", "-i", "nest.json", "-o", "out.json"), EXIT_USAGE),
    ],
)
def test_a_small_file_claiming_a_large_graph_costs_its_size(tmp_path, argv, code):
    for name, payload in HOSTILE_FILES.items():
        (tmp_path / name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
    src = os.path.dirname(os.path.dirname(signedgrids.__file__))
    proc = subprocess.run([sys.executable, "-m", "signedgrids.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr
    if code == EXIT_USAGE:
        assert proc.stderr.startswith("signedgrids: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out.json").exists()


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
    "hex-cert.json": "6c15b5f8758c32bce0f5e33b4d23cb1f1e2a581e190c1de0d6d6ee4732ee4ff3",
    "hex.dot": "94e0619b2f2f9c041c26c9db5bc94d18a2a42dc50ee458e58031a8ddadabd7fb",
    "hex.json": "90c87955835ccbd8a40f433c7ac6bf859521fa74cb43607cbaf364aeaa276d73",
    "lowerbounds-c6.json": "862a0aa58efa12142016d4940e99d85b835481c704d64a040a1fb5340208a631",
    "motif.dot": "c887bdbdea1f0aaaad54c48554c1c077896d59eae7d7cf82670b6d0fa114cc91",
    "motif.json": "9fc694b2f27c897d26d7324125b557e09ae4a4b069680a12868fdc7fb9146fad",
    "props-SP9.json": "5d4dbb73d5b5358be0cea4cfe6c1fe6cb4cff214e6de4624f019cb2408734131",
    "props-rhoSP9plus.json": "2790febd00adf709a82625c12bad27b960af7d13e73a94468a6b70fbe9d2850a",
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
        ("props", "--target", "rhoSP9plus", "-o", "props-rhoSP9plus.json"),
        ("lowerbounds", "--instance", "c6", "-o", "lowerbounds-c6.json"),
        ("motif", "--rows", "5", "--cols", "5", "-o", "motif.json", "--dot", "motif.dot"),
    ]
    codes = [run(*argv) for argv in steps]
    assert codes == [EXIT_OK] * 8 + [EXIT_UNKNOWN] + [EXIT_OK] * 5
    assert capsys.readouterr().out == (
        "certificate OK\ncertificate OK\n"
        "no target of order 3; order-4 witness found => chromatic number = 4\n"
    )
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == GOLDEN
    # the artifact writer gives the standard encoder's text, byte for byte
    for p in tmp_path.glob("*.json"):
        text = p.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", p.name


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
    code = run("verify", "-i", str(graph), "-c", str(cert))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY)
    # an accepted certificate is a signed homomorphism by the definition
    assert code != EXIT_OK or certifies(read(graph), read(cert))


def byte_mutants(work, graph, cert):
    """Each non-blank byte of the tri and hex grid files and certificates,
    replaced by a seeded token or deleted: writes the mutant to ``graph`` or
    ``cert``, the other file intact beside it, and yields its path and the
    byte's index."""
    rng = random.Random(31)
    tokens = ("", "0", "1", "5", "-", "]", '"')
    for kind in ("hex", "tri"):
        texts = {graph: (work / f"{kind}.json").read_text(), cert: (work / f"{kind}-cert.json").read_text()}
        for path, text in texts.items():
            other = cert if path == graph else graph
            other.write_text(texts[other])
            for k, byte in enumerate(text):
                if byte.isspace():
                    continue
                path.write_text(text[:k] + rng.choice(tokens) + text[k + 1 :])
                yield path, k


def test_every_byte_mutant_of_the_files_ends_in_an_exit_code(valid_files, tmp_path, capsys):
    # verify exits 0, 1 or 2, a usage error says so in one line, and an
    # accepted certificate is a signed homomorphism by the definition
    work, _ = valid_files
    graph, cert = tmp_path / "graph.json", tmp_path / "cert.json"
    codes = Counter()
    for path, k in byte_mutants(work, graph, cert):
        code = run("verify", "-i", str(graph), "-c", str(cert))
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (path.name, k)
        if code == EXIT_USAGE:
            assert len(err.splitlines()) == 1 and err.startswith("signedgrids: "), (path.name, k, err)
        if code == EXIT_OK:
            assert certifies(read(graph), read(cert)), (path.name, k)
        codes[code] += 1
    # enough mutants are accepted that the oracle clause is exercised
    assert codes[EXIT_OK] >= 100 and codes[EXIT_USAGE] and codes[EXIT_VERIFY], codes


def test_every_byte_mutant_of_a_grid_file_colors_or_is_a_usage_error(valid_files, tmp_path, capsys):
    # the same mutants of the grid files (color reads no certificate): color
    # exits 0 with a certificate that is a signed homomorphism by the
    # definition, or 1 with a one-line message
    work, _ = valid_files
    graph, out = tmp_path / "graph.json", tmp_path / "out.json"
    codes = Counter()
    for path, k in byte_mutants(work, graph, tmp_path / "cert.json"):
        if path != graph:
            continue
        code = run("color", "-i", str(graph), "-o", str(out))
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_USAGE), (k, code, err)
        if code == EXIT_USAGE:
            assert len(err.splitlines()) == 1 and err.startswith("signedgrids: "), (k, err)
        else:
            assert certifies(read(graph), read(out)), k
            out.unlink()
        codes[code] += 1
    assert codes[EXIT_OK] >= 100 and codes[EXIT_USAGE] >= 100, codes


@pytest.mark.parametrize("kind", ["hex", "tri"])
def test_verify_signed_agrees_with_the_oracle_on_edited_certificates(valid_files, kind):
    # every single edit of the certificate, then seeded runs of two to four
    # edits: verify_signed's verdict is the definition's on each
    _, docs = valid_files
    grid_doc, cert_doc = docs[kind]
    g, cert = graph_from_dict(grid_doc["graph"]), cert_doc["certificate"]
    rng = random.Random(29)
    edits = single_edits(cert) + [random_edits(cert, rng, rng.randint(2, 4)) for _ in range(6000)]
    verdicts = Counter()
    for edit in edits:
        hom, target = hom_from_dict(edit)
        verdict = verify_signed(g, target, hom)
        assert verdict == certifies(grid_doc, {"certificate": edit}), edit
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]
