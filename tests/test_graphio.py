"""JSON round-trips and DOT rendering."""

import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedgrids import (
    GridSpec,
    Homomorphism,
    SignedGrid,
    SignedGraph,
    build_T4,
    color_tri,
    find_signed_hom,
    make_grid,
    random_signature,
    sp9_plus,
    unbalanced_c6,
    verify_signed,
)
from signedgrids import graphio
from signedgrids.grids import is_sign_column
from signedgrids.hom import ec_to_signed
from signedgrids.graphio import (
    ROW_CHUNK,
    ArtifactEncoder,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    hom_from_dict,
    hom_to_dict,
)

from helpers import graph_from_dict_reference, grid_neighbors, mutated, random_signed_graph


def test_graph_roundtrip_plain():
    g = random_signed_graph(random.Random(5), 7, 0.5)
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_roundtrip_with_labels_and_grid():
    spec = GridSpec("tri", 3, 4, mask=frozenset({(1, 1), (1, 2), (2, 2), (3, 4)}))
    g = make_grid(spec, random_signature(spec, 2, 0.5))
    back = graph_from_dict(graph_to_dict(g))
    assert back == g
    assert back.grid == spec


def test_only_a_signed_grid_is_written_with_its_grid():
    # a grid's graph() is a plain SignedGraph: no "grid", the same edges
    g = make_grid(GridSpec("hex", 3, 4), random_signature(GridSpec("hex", 3, 4), 1, 0.5))
    written = graph_to_dict(g.graph())
    assert "grid" not in written and written == {k: v for k, v in graph_to_dict(g).items() if k != "grid"}
    assert graph_from_dict(written) == g.graph()


def test_graph_dict_is_json_serializable():
    spec = GridSpec("hex", 2, 3)
    g = make_grid(spec, random_signature(spec, 0, 0.5))
    text = json.dumps(graph_to_dict(g), sort_keys=True)
    assert graph_from_dict(json.loads(text)) == g


def test_hom_roundtrip():
    g = unbalanced_c6()
    hom = find_signed_hom(g, build_T4())
    encoded = hom_to_dict(hom, build_T4())
    back, target = hom_from_dict(encoded)
    assert back == hom
    assert target == build_T4()


def test_dot_styles():
    g = unbalanced_c6()
    dot = graph_to_dot(g)
    assert dot.count("dashed") == 1 and dot.count("solid") == 5
    annotated = graph_to_dot(g, annotations=[f"c{v}" for v in range(6)])
    assert 'label="c3"' in annotated
    # a quote or a trailing backslash in a label stays inside its DOT string
    quoted = graph_to_dot(SignedGraph(2, [(0, 1, 1)], labels=['a"b', "c\\"]))
    assert '0 [label="a\\"b"];' in quoted and '1 [label="c\\\\"];' in quoted


def test_ec_certificate_has_no_switch_set():
    encoded = hom_to_dict(Homomorphism((0, 1)), build_T4())
    assert encoded["kind"] == "signed" and encoded["switch"] == []
    encoded.update(kind="ec", switch=[1])  # an ec certificate ignores any switch list
    assert hom_from_dict(encoded)[0] == Homomorphism((0, 1))


def test_grid_edges_must_match_the_grid_metadata():
    # every dropped edge is named as missing and every added non-grid pair is
    # rejected, on small grids with and without masks
    rng = random.Random(17)
    for seed in range(60):
        kind, rows, cols = rng.choice(("hex", "tri")), rng.randint(1, 5), rng.randint(1, 5)
        mask = None
        if seed % 2:
            mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < 0.7)
        spec = GridSpec(kind, rows, cols, mask)
        g = make_grid(spec, random_signature(spec, seed, 0.5))
        d = graph_to_dict(g)
        assert graph_from_dict(d) == g
        for k, (u, v, _) in enumerate(d["edges"]):
            with pytest.raises(ValueError, match=rf"\(vertices {u}, {v}\) is missing"):
                graph_from_dict(dict(d, edges=d["edges"][:k] + d["edges"][k + 1 :]))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.graph().has_edge(u, v):
                    with pytest.raises(ValueError, match="does not join neighboring cells"):
                        graph_from_dict(dict(d, edges=d["edges"] + [[v, u, 1]]))


def load_outcome(loader, doc):
    """What a loader makes of a document: the graph, or its error.

    A grid read by ``graph_from_dict`` is compared through ``.graph()`` and
    its spec; the reference's grid is a ``GridGraph`` with the spec as its
    ``grid``, and a plain graph has no spec.
    """
    try:
        g = loader(doc)
    except Exception as exc:  # the two loaders must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    spec = getattr(g, "grid", None)
    return "ok", g.graph() if isinstance(g, SignedGrid) else g, spec, g.labels


def grid_docs():
    """Small grid documents: both kinds, one and two columns, one row, a mask."""
    specs = [
        GridSpec("hex", 2, 3),
        GridSpec("tri", 2, 3),
        GridSpec("tri", 3, 2),
        GridSpec("hex", 3, 2),
        GridSpec("tri", 1, 4),
        GridSpec("hex", 4, 1),
        GridSpec("tri", 3, 3, mask=frozenset({(1, 1), (1, 2), (2, 1), (3, 3)})),
    ]
    return [graph_to_dict(make_grid(s, random_signature(s, k, 0.5))) for k, s in enumerate(specs)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grid_loader_matches_the_signed_graph_reference_on_mutated_files(data):
    doc = data.draw(mutated(data.draw(st.sampled_from(grid_docs()))))
    assert load_outcome(graph_from_dict, doc) == load_outcome(graph_from_dict_reference, doc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grid_loader_matches_the_reference_on_shuffled_and_reversed_edges(data):
    doc = data.draw(st.sampled_from(grid_docs()))
    edges = data.draw(st.permutations(doc["edges"]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    doc = dict(doc, edges=[[v, u, s] if flip else [u, v, s] for (u, v, s), flip in zip(edges, flips)])
    if edges and data.draw(st.booleans()):  # one edge given twice, in either orientation
        u, v, s = data.draw(st.sampled_from(edges))
        doc["edges"].insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(([u, v, s], [v, u, s]))))
    expected = load_outcome(graph_from_dict_reference, doc)
    assert load_outcome(graph_from_dict, doc) == expected
    if expected[0] == "ok":
        assert graph_from_dict(doc) == graph_from_dict(graph_to_dict(graph_from_dict(doc)))


@pytest.mark.parametrize("kind", ["hex", "tri"])
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (2, 1), (1, 5), (5, 1), (2, 2), (3, 2), (4, 3)])
def test_slot_arithmetic_on_thin_grids(kind, rows, cols):
    # every cell pair of the box: the loader accepts exactly the grid steps,
    # and a tri grid of two columns tells a right step from a down-left one
    # (both differ by 1 in vertex id) by the column alone
    spec = GridSpec(kind, rows, cols)
    g = make_grid(spec, random_signature(spec, rows * cols, 0.5))
    doc = graph_to_dict(g)
    assert graph_from_dict(doc) == g
    cells = spec.cells()
    expected = {(cells[u], cells[v]) for u, v, _ in g.edges}
    assert expected == {(a, b) for a in cells for b in cells if grid_neighbors(kind, a, b)}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            extra = dict(doc, edges=doc["edges"] + [[u, v, -1]])
            if (cells[u], cells[v]) in expected:
                with pytest.raises(ValueError, match="duplicate edge"):
                    graph_from_dict(extra)
            else:
                with pytest.raises(ValueError, match="does not join neighboring cells"):
                    graph_from_dict(extra)
            assert load_outcome(graph_from_dict, extra) == load_outcome(graph_from_dict_reference, extra)


def test_hex_right_edges_follow_the_row_parity():
    spec = GridSpec("hex", 4, 5)
    doc = graph_to_dict(make_grid(spec, random_signature(spec, 3, 0.5)))
    rights = {(u, v) for u, v, _ in doc["edges"] if v == u + 1}
    for u in range(spec.rows * spec.cols - 1):
        (i, j) = divmod(u, spec.cols)
        if j == spec.cols - 1:
            continue
        assert ((u, u + 1) in rights) == ((i + 1 + j + 1) % 2 == 0)
        if (u, u + 1) not in rights:
            with pytest.raises(ValueError, match="does not join neighboring cells of the hex grid"):
                graph_from_dict(dict(doc, edges=doc["edges"] + [[u, u + 1, 1]]))


def test_grid_loader_errors_keep_the_reference_precedence():
    # structural errors of any edge come first, then the first bad sign or
    # duplicate, then the labels, then a missing edge
    spec = GridSpec("tri", 2, 3)
    doc = graph_to_dict(make_grid(spec, random_signature(spec, 4, 0.5)))
    edges = doc["edges"]
    (u, v, s), rest = edges[0], edges[1:]
    cases = {
        "does not join neighboring cells": [[u, v, 5]] + rest + [[0, 5, 1]],
        "edge sign must be +1 or -1, got 5": [[u, v, 5]] + rest + [[v, u, s]],
        f"duplicate edge ({v},{u})": edges + [[v, u, s], [u, v, 0]],
        "labels must cover every vertex": rest,
    }
    for message, raw in cases.items():
        bad = dict(doc, edges=raw, labels=["a"] * (spec.rows * spec.cols - 1))
        if not message.startswith("labels"):
            del bad["labels"]
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_dict(bad)
        assert load_outcome(graph_from_dict, bad) == load_outcome(graph_from_dict_reference, bad)
    labeled = dict(doc, labels=[f"c{k}" for k in range(6)])
    assert graph_from_dict(labeled).labels == tuple(labeled["labels"])
    assert graph_to_dict(graph_from_dict(labeled)) == labeled


def test_an_edge_given_in_both_orientations_is_a_duplicate():
    spec = GridSpec("tri", 2, 2)
    doc = graph_to_dict(make_grid(spec, random_signature(spec, 1, 0.5)))
    u, v, s = doc["edges"][2]
    for twice in ([v, u, s], [v, u, -s], [u, v, s]):
        bad = dict(doc, edges=doc["edges"] + [twice])
        message = f"duplicate edge ({twice[0]},{twice[1]})"
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_dict(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_dict_reference(bad)


@pytest.mark.parametrize(
    "kind, edges", [("hex", [[0, 1, -1], [0, 2, 1]]), ("tri", [[0, 1, -1], [0, 2, 1], [1, 2, 1]])]
)
def test_a_masked_grid_costs_its_mask_not_its_box(kind, edges):
    # four cells of a box of 10**10: the loader, the writer, the spec's edge
    # queries and make_grid all work per retained cell
    side = 10**5
    mask = [[1, 1], [1, 2], [2, 1], [side, side]]
    doc = {"n": 4, "edges": edges, "grid": {"kind": kind, "rows": side, "cols": side, "mask": mask}}
    tracemalloc.start()
    try:
        g = graph_from_dict(doc)
        spec = g.grid
        assert len(g.signs) == len(edges)
        assert graph_to_dict(g) == doc
        assert spec.edge_count() == len(spec.edges()) == len(edges)
        assert make_grid(spec, random_signature(spec, 1, 0.5)).n == 4
        assert g.graph().edges == tuple(map(tuple, edges))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_short_grid_edge_list_costs_its_file_not_its_grid(monkeypatch):
    # a file claiming an unmasked tri 1000x1000 grid with no edges: its
    # length differs from the grid's edge count, so the edge columns are never
    # built, and the first missing edge is named from its empty slot without
    # the spec's cells or cell-pair edges
    def refuse(self):
        raise AssertionError("built for a short edge list")

    for name in ("edge_columns", "edges", "cells"):
        monkeypatch.setattr(GridSpec, name, refuse)
    doc = {"n": 10**6, "edges": [], "grid": {"kind": "tri", "rows": 1000, "cols": 1000}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("grid edge (1, 1)-(1, 2) (vertices 0, 1) is missing")):
            graph_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_make_grid_and_the_loader_share_one_sign_check():
    # the same columns are rejected by make_grid and by the loader's bulk
    # check; True == 1 and 1.0 == 1, but neither is an int sign
    spec = GridSpec("tri", 2, 3)
    signs = random_signature(spec, 2, 0.5)
    doc = graph_to_dict(make_grid(spec, signs))
    assert is_sign_column(signs) and is_sign_column(())
    assert graphio._listed_signs(doc["edges"], *spec.edge_columns()) == signs
    for bad in (True, 1.0, None, 0, 2):
        column = signs[:-1] + (bad,)
        assert not is_sign_column(column)
        with pytest.raises(ValueError, match="sign column does not fit"):
            make_grid(spec, column)
        rows = [[u, v, s] for u, v, s in zip(*spec.edge_columns(), column)]
        assert graphio._listed_signs(rows, *spec.edge_columns()) is None


def one_defect_docs(doc):
    """``doc`` with one defect in its canonical edge list each: a ``true``, a
    ``1.0``, two rows swapped, the last row dropped, a sign of 2, a row given
    as ``[v, u, s]``, a row that is no triple, and one label too few.  Each
    row defect at the first, a middle and the last row, and in each entry of
    the row."""
    edges = doc["edges"]
    out = [dict(doc, edges=edges[:-1]), dict(doc, labels=["x"] * (doc["n"] - 1))]
    for k in sorted({0, len(edges) // 2, len(edges) - 1}):
        u, v, s = edges[k]

        def at(row):
            return dict(doc, edges=edges[:k] + [row] + edges[k + 1 :])

        for col in range(3):
            for bad in (True, float(edges[k][col])):
                row = list(edges[k])
                row[col] = bad
                out.append(at(row))
        out += [at([u, v, 2]), at([u, v, -2]), at([v, u, s]), at([u, v]), at([u, v, s, s]), at((u, v, s))]
        if k + 1 < len(edges):
            out.append(dict(doc, edges=edges[:k] + [edges[k + 1], edges[k]] + edges[k + 2 :]))
            # the same entries, split across two rows as [u, v] and [s, ...]
            out.append(dict(doc, edges=edges[:k] + [[u, v], [s, *edges[k + 1]]] + edges[k + 2 :]))
    return out


@pytest.mark.parametrize("doc", grid_docs(), ids=lambda d: "{kind}-{rows}x{cols}".format(**d["grid"]))
def test_one_defect_in_a_canonical_grid_file(doc):
    # the bulk check must hand every such file to the per-edge loop, whose
    # result or message is the reference's: a swapped or reversed row is
    # still the same grid, every other defect an error
    outcomes = [load_outcome(graph_from_dict, bad) for bad in one_defect_docs(doc)]
    assert outcomes == [load_outcome(graph_from_dict_reference, bad) for bad in one_defect_docs(doc)]
    same = load_outcome(graph_from_dict, doc)
    assert {o[0] for o in outcomes if o != same} == {"ValueError"}


def test_a_canonical_grid_file_is_checked_in_bulk(monkeypatch):
    # a file that lists the grid's edges in their own order never reaches the
    # per-edge loop, which is the only reader of GridSpec.direction; the grid
    # read keeps the file's signs as its sign column
    docs = grid_docs()
    for spec_kind in ("hex", "tri"):
        spec = GridSpec(spec_kind, 30, 17)
        docs.append(graph_to_dict(make_grid(spec, random_signature(spec, 9, 0.5))))
    expected = [graph_from_dict(doc) for doc in docs]

    def refuse(self, x, y):
        raise AssertionError("the per-edge loop ran")

    monkeypatch.setattr(GridSpec, "direction", refuse)
    for doc, g in zip(docs, expected):
        read = graph_from_dict(doc)
        assert read == g and type(read.signs) is tuple
        assert graph_to_dict(read) == doc
    with pytest.raises(AssertionError, match="per-edge loop"):
        graph_from_dict(dict(docs[0], edges=docs[0]["edges"][::-1]))


def test_a_canonical_load_and_its_verification_share_the_edge_columns(monkeypatch):
    # the loader's bulk check and the verifier read the same tails and heads,
    # computed once per spec: one slot pattern for load and verify together
    spec = GridSpec("tri", 9, 8)
    g = make_grid(spec, random_signature(spec, 4, 0.5))
    hom = ec_to_signed(color_tri(g)[0], 10)
    doc = graph_to_dict(g)
    checked, patterns = [], []
    listed_signs, slot_pattern = graphio._listed_signs, GridSpec.slot_pattern

    def listed(raw, tails, heads):
        checked.append((tails, heads))
        return listed_signs(raw, tails, heads)

    def pattern(self):
        patterns.append(self)
        return slot_pattern(self)

    monkeypatch.setattr(graphio, "_listed_signs", listed)
    monkeypatch.setattr(GridSpec, "slot_pattern", pattern)
    read = graph_from_dict(doc)
    assert verify_signed(read, sp9_plus(), hom)
    assert len(patterns) == 1 and len(checked) == 1
    tails, heads = checked[0]
    assert read.columns[0] is tails and read.columns[1] is heads
    assert read == g and hash(read) == hash(g) and repr(read) == repr(g)


# Values built from what artifacts hold, plus what the encoder's fast paths
# must tell apart: bools among ints, empty rows, int rows of mixed lengths.
ints = st.integers(-(2**70), 2**70)
json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | st.text(),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(ints)
        | st.lists(st.lists(ints | st.booleans(), max_size=4))
        | st.lists(st.tuples(ints, ints, ints))
    ),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_artifact_encoder_writes_the_standard_text(value):
    assert json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder) == json.dumps(
        value, indent=2, sort_keys=True
    )


@pytest.mark.parametrize(
    "options",
    [
        {"indent": 0},
        {"indent": 3, "sort_keys": False},
        {"indent": "%\t", "separators": ("%,", ":"), "ensure_ascii": False},
        {"indent": None},
    ],
    ids=["indent0", "unsorted", "odd_separators", "no_indent"],
)
def test_artifact_encoder_honours_the_encoder_options(options):
    value = {"b": [[1, -2], [3]], "a": [0, True, None, 1.5, "é"], "c": {"z": [], "y": {}}, "d": (1, 2)}
    assert json.dumps(value, cls=ArtifactEncoder, **options) == json.dumps(value, **options)


@pytest.mark.parametrize(
    "value",
    [{1: "int key"}, {"s": frozenset({2, 1})}, {"nan": float("nan")}],
    ids=["int_key", "needs_default", "nan"],
)
def test_artifact_encoder_defers_other_values_to_the_base_class(value):
    options = {"indent": 2, "sort_keys": True, "default": sorted}
    assert json.dumps(value, cls=ArtifactEncoder, **options) == json.dumps(value, **options)


def test_artifact_encoder_keeps_allow_nan():
    with pytest.raises(ValueError):
        json.dumps({"x": [float("inf")]}, indent=2, allow_nan=False, cls=ArtifactEncoder)


@pytest.mark.parametrize("extra", [-1, 0, 1, ROW_CHUNK + 1], ids=["chunk-1", "chunk", "chunk+1", "2chunks+1"])
def test_artifact_encoder_at_chunk_boundaries(extra):
    # int-row blocks are rendered ROW_CHUNK rows at a time; a non-int in the
    # last row of a block sends the whole block to the generic path
    rows = [[k, -k, k % 7 - 3] for k in range(ROW_CHUNK + extra)]
    values = [{"edges": rows, "n": 3}, [rows, [[1, 2]]], {"edges": rows[:-1] + [[1, True, 2]]}]
    values.append({"edges": rows[:-1] + [[1, 2.5]]})
    for value in values:
        for options in ({"indent": 2, "sort_keys": True}, {"indent": "%\t", "separators": ("%,", ":")}):
            assert json.dumps(value, cls=ArtifactEncoder, **options) == json.dumps(value, **options)
