"""JSON round-trips and DOT rendering."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedgrids import GridSpec, Homomorphism, build_T4, find_signed_hom, make_grid, random_signature, unbalanced_c6
from signedgrids.graphio import (
    ArtifactEncoder,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    hom_from_dict,
    hom_to_dict,
)

from helpers import random_signed_graph


def test_graph_roundtrip_plain():
    g = random_signed_graph(random.Random(5), 7, 0.5)
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_roundtrip_with_labels_and_grid():
    spec = GridSpec("tri", 3, 4, mask=frozenset({(1, 1), (1, 2), (2, 2), (3, 4)}))
    g = make_grid(spec, random_signature(spec, 2, 0.5))
    back = graph_from_dict(graph_to_dict(g))
    assert back == g
    assert back.grid == spec


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
                if not g.has_edge(u, v):
                    with pytest.raises(ValueError, match="does not join neighboring cells"):
                        graph_from_dict(dict(d, edges=d["edges"] + [[v, u, 1]]))


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
