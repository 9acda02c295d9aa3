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
    sp5_plus,
    sp9_plus,
    unbalanced_c6,
    verify_signed,
)
from signedgrids import graphio
from signedgrids.hom import _search_plan, ec_to_signed
from signedgrids.graphio import (
    EDGE_CHUNK,
    ArtifactEncoder,
    Text,
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


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_a_grid_and_its_graph_read_alike(masked):
    # both types keep their edges as sorted columns, and every reader zips
    # them: the search plan, the dict view's rows and the DOT text agree.
    # verify_signed on honest and forged maps is compared for both types in
    # test_hom.py::TestVerifiersMatchTheReference::test_grids_and_their_certificates
    rng = random.Random(61 + masked)
    for _ in range(30):
        kind, rows, cols = rng.choice(("hex", "tri")), rng.randint(1, 6), rng.randint(1, 6)
        mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < 0.7) if masked else None
        spec = GridSpec(kind, rows, cols, mask or None)
        g = make_grid(spec, random_signature(spec, rng.randrange(1000), 0.5))
        graph = g.graph()
        assert graph.columns == g.columns and graph.edges == g.edges
        assert _search_plan(graph) == _search_plan(g)
        assert graph_to_dict(graph)["edges"] == graph_to_dict(g)["edges"]
        assert graph_to_dot(graph) == graph_to_dot(g)


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


@pytest.mark.parametrize(
    "kind, edges, message",
    [
        ("tri", [], "grid edge (1, 1)-(1, 2) (vertices 0, 1) is missing"),
        ("hex", [[0, 100000, 1], [1, 0, -1]], "grid edge (1, 2)-(2, 2) (vertices 1, 100001) is missing"),
        ("tri", [[0, 1, 1], [1, 0, 1]], "duplicate edge (1,0)"),
        ("tri", [[100000, 1, 1], [0, 1, 2]], "edge sign must be +1 or -1, got 2"),
        ("hex", [[1, 2, 1]], "edge [1, 2, 1] does not join neighboring cells of the hex grid"),
        ("tri", [[99999, 100000, 1]], "edge [99999, 100000, 1] does not join neighboring cells"),
    ],
)
def test_a_grid_of_ten_billion_cells_costs_its_file(monkeypatch, kind, edges, message):
    # an unmasked 10^5 x 10^5 grid and a short edge list: no slot pattern and
    # no slot array of the box are built, its slots are tested by arithmetic,
    # and the errors and their precedence are those of a small grid
    def refuse(self):
        raise AssertionError("built for a short edge list")

    for name in ("edge_columns", "edges", "cells", "slot_pattern"):
        monkeypatch.setattr(GridSpec, name, refuse)
    doc = {"n": 10**10, "edges": edges, "grid": {"kind": kind, "rows": 10**5, "cols": 10**5}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize(
    "kind, masked",
    [pytest.param("hex", False, id="hex"), pytest.param("tri", False, id="tri"), pytest.param("tri", True, id="tri-masked")],
)
def test_a_permuted_full_edge_list_loads_as_the_canonical_one(kind, masked):
    # a list of the grid's edge count that is not in order fills the slot
    # dict; one edge fewer or one more is an error, as the reference words it
    spec = GridSpec(kind, 17, 23)
    if masked:  # about 70% of the cells kept
        rng = random.Random(17)
        spec = GridSpec(kind, 17, 23, frozenset(c for c in spec.cells() if rng.random() < 0.7))
    g = make_grid(spec, random_signature(spec, 4, 0.5))
    edges = [[v, u, s] if k % 3 else [u, v, s] for k, (u, v, s) in enumerate(graph_to_dict(g)["edges"])]
    random.Random(4).shuffle(edges)
    doc = dict(graph_to_dict(g), edges=edges)
    assert graph_from_dict(doc) == g
    for changed in (edges[:-1], edges[1:], edges + edges[5:6]):
        doc = dict(doc, edges=changed)
        assert load_outcome(graph_from_dict, doc) == load_outcome(graph_from_dict_reference, doc)


def test_make_grid_and_the_loader_share_one_sign_check(monkeypatch):
    # the SignedGrid constructor checks the signs, once per make_grid and
    # once per canonical load; True == 1 and 1.0 == 1, but neither is an
    # int sign, and a bad sign in a file is worded by the per-edge loop
    spec = GridSpec("tri", 2, 3)
    signs = random_signature(spec, 2, 0.5)
    doc = graph_to_dict(make_grid(spec, signs))
    checks = []
    init = SignedGrid.__init__  # the check is the constructor's
    monkeypatch.setattr(SignedGrid, "__init__", lambda self, *args: checks.append(init(self, *args)))
    assert make_grid(spec, signs).signs == signs and len(checks) == 1
    assert graph_from_dict(doc).signs == signs and len(checks) == 2
    for bad, message in (
        (True, "has an entry that is not an integer"),
        (1.0, "has an entry that is not an integer"),
        (None, "has an entry that is not an integer"),
        (0, "edge sign must be +1 or -1, got 0"),
        (2, "edge sign must be +1 or -1, got 2"),
    ):
        column = signs[:-1] + (bad,)
        with pytest.raises(ValueError, match="sign column does not fit"):
            make_grid(spec, column)
        with pytest.raises(ValueError, match="sign column does not fit"):
            SignedGrid(spec, column)
        rows = [[u, v, s] for u, v, s in zip(*spec.edge_columns(), column)]
        with pytest.raises(ValueError, match=re.escape(message)):
            graph_from_dict(dict(doc, edges=rows))


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
    st.none() | st.booleans() | ints | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
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
    # honoured, never ignored: the encoder writes the artifact format only,
    # so any other option is refused before anything is rendered
    value = {"b": [[1, -2], [3]], "a": [0, True, None, 1.5, "é"], "c": {"z": [], "y": {}}, "d": (1, 2)}
    with pytest.raises(ValueError, match="writes indent=2 and sorted keys only"):
        json.dumps(value, cls=ArtifactEncoder, **options)
    with pytest.raises(ValueError, match="writes indent=2 and sorted keys only"):
        ArtifactEncoder(**options)
    # the same value in the artifact format is written
    artifact = json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder)
    assert artifact == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value, error",
    [({1: "int key"}, TypeError), ({"s": frozenset({2, 1})}, TypeError), ({"nan": float("nan")}, ValueError)],
    ids=["int_key", "needs_default", "nan"],
)
def test_artifact_encoder_rejects_other_values(value, error):
    # no artifact holds a non-str key (the standard encoder would write it
    # as a string), a type that needs a default, or a float that is not
    # finite: each raises, and nothing is handed to another encoder
    with pytest.raises(error):
        json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder)


def test_artifact_encoder_keeps_allow_nan():
    # no float that is not finite is written, and allow_nan=False is an
    # option of another format
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps({"x": [x]}, indent=2, sort_keys=True, cls=ArtifactEncoder)
    with pytest.raises(ValueError, match="allow_nan"):
        json.dumps({"x": [1.5]}, indent=2, sort_keys=True, allow_nan=False, cls=ArtifactEncoder)


def grid_values():
    """Graph values of every shape an artifact holds: hex and tri grids,
    square, one row, one column, two columns, one cell, masked and
    labelled, and plain graphs (certificate targets and the motif target)."""
    values = {}
    for kind in ("hex", "tri"):
        for rows, cols in ((7, 7), (1, 9), (9, 1), (9, 2), (1, 1)):
            spec = GridSpec(kind, rows, cols)
            values[f"{kind}-{rows}x{cols}"] = make_grid(spec, random_signature(spec, rows + cols, 0.5))
        rng = random.Random(len(kind))
        full = GridSpec(kind, 8, 8)
        spec = GridSpec(kind, 8, 8, frozenset(c for c in full.cells() if rng.random() < 0.7))
        values[f"{kind}-masked"] = make_grid(spec, random_signature(spec, 4, 0.5))
        g = make_grid(full, random_signature(full, 5, 0.5))
        values[f"{kind}-labelled"] = SignedGrid(g.grid, g.signs, tuple(f"v{k}é" for k in range(g.n)))
    values["T4"], values["SP9+"], values["SP5+"] = build_T4(), sp9_plus(), sp5_plus()
    values["plain-labelled"] = SignedGraph(3, [(0, 1, 1), (1, 2, -1)], labels=("a", "b", '"c"'))
    values["plain-empty"] = SignedGraph(2, [])
    return values


@pytest.mark.parametrize("name", sorted(grid_values()))
def test_artifact_encoder_renders_graphs_as_their_dicts(name):
    # the oracle: the standard encoder on graph_to_dict's view, the graph
    # at the top, in a list and in a dict
    g = grid_values()[name]
    for value, view in (
        ({"graph": g}, {"graph": graph_to_dict(g)}),
        ([g, {"g": g}], [graph_to_dict(g), {"g": graph_to_dict(g)}]),
    ):
        assert json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder) == json.dumps(
            view, indent=2, sort_keys=True
        )


@pytest.mark.parametrize("change", ["true", "extra", "missing"])
def test_a_grid_with_inexact_signs_cannot_be_built(change):
    # True among the signs (%d would print 1), and one sign more or fewer
    # than the spec has edges (zip would list the shorter count): the
    # constructor refuses each, so the encoder never meets one
    spec = GridSpec("tri", 5, 5)
    signs = list(random_signature(spec, 1, 0.5))
    if change == "true":
        signs[7] = True
    elif change == "extra":
        signs.append(-1)
    else:
        signs.pop()
    with pytest.raises(ValueError, match="sign column does not fit the tri 5x5 grid: it needs 56 entries"):
        SignedGrid(spec, tuple(signs))
    with pytest.raises(ValueError, match="sign column does not fit"):
        SignedGrid(spec, signs)  # a list, not a tuple


@pytest.mark.parametrize("value", [{"graph": build_T4(), "n": [1, 2]}, {"x": [1.5, -0.0]}, []])
def test_artifact_encoder_hands_back_unjoined_pieces(value):
    text = json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder, joined=False)
    assert isinstance(text, Text)
    joined = json.dumps(value, indent=2, sort_keys=True, cls=ArtifactEncoder)
    assert "".join(text.pieces) == joined
    assert len(text) == len(joined)


@pytest.mark.parametrize(
    "extra", [-1, 0, 1, EDGE_CHUNK - 1, EDGE_CHUNK + 1], ids=["chunk-1", "chunk", "chunk+1", "2chunks-1", "2chunks+1"]
)
def test_artifact_encoder_at_chunk_boundaries(extra):
    # edge lists are rendered EDGE_CHUNK edges at a time: a tri grid of one
    # row and a path graph with that many edges
    edges = EDGE_CHUNK + extra
    spec = GridSpec("tri", 1, edges + 1)
    grid = make_grid(spec, random_signature(spec, edges, 0.5))
    path = SignedGraph(edges + 1, grid.edges)
    for g in (grid, path):
        assert json.dumps({"graph": g, "n": 3}, indent=2, sort_keys=True, cls=ArtifactEncoder) == json.dumps(
            {"graph": graph_to_dict(g), "n": 3}, indent=2, sort_keys=True
        )
