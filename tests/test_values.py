"""The immutable value classes: equality, hash, repr, immutability, copies."""

import copy
import pickle

import pytest

from signedgrids.colorers import CandidateTrace
from signedgrids.core import (
    AntitwinnedGraph,
    SignedGraph,
    build_SP5,
    build_T4,
    negate,
    rho_sp9_plus,
    rho_t4,
    sign_masks,
)
from signedgrids.grids import GridSpec, SignedGrid, make_grid, unbalanced_c6
from signedgrids.hom import Homomorphism, _search_plan
from signedgrids.props import PropertyReport


def cases():
    """Per class: an instance, an equal one built apart, an unequal one of
    the same class, its repr, and the fields that make up its value."""
    c6 = unbalanced_c6()
    t4 = build_T4()
    return [
        # built apart from its edges reversed, each turned around
        (t4, SignedGraph(4, [(v, u, s) for u, v, s in reversed(t4.edges)]), negate(t4),
         "SignedGraph(n=4, edges=6)", ("n", "columns")),
        (rho_t4(), AntitwinnedGraph(build_T4()), AntitwinnedGraph(build_SP5()),
         "AntitwinnedGraph(base=SignedGraph(n=4, edges=6))", ("base",)),
        (GridSpec("tri", 2, 3, frozenset({(1, 1)})), GridSpec("tri", 2, 3, {(1, 1)}), GridSpec("tri", 2, 3),
         "GridSpec(kind='tri', rows=2, cols=3, mask=frozenset({(1, 1)}))", ("kind", "rows", "cols", "mask")),
        (c6, make_grid(GridSpec("hex", 3, 2), list(c6.signs)), SignedGrid(c6.grid, c6.signs, tuple("abcdef")),
         "SignedGrid(grid=GridSpec(kind='hex', rows=3, cols=2, mask=None), n=6)", ("grid", "signs", "labels")),
        (Homomorphism((0, 1, 2), frozenset({1})), Homomorphism((0, 1, 2), frozenset({1})), Homomorphism((0, 1, 2)),
         "Homomorphism(mapping=(0, 1, 2), switch_set=frozenset({1}))", ("mapping", "switch_set")),
        (CandidateTrace(3), CandidateTrace(3), CandidateTrace(2), "CandidateTrace(smallest=3)", ("smallest",)),
        (PropertyReport("p", False, ((1, 2),)), PropertyReport("p", False, ((1, 2),)), PropertyReport("p", True),
         "PropertyReport(name='p', holds=False, counterexamples=((1, 2),))", ("name", "holds", "counterexamples")),
    ]


NAMES = ["SignedGraph", "AntitwinnedGraph", "GridSpec", "SignedGrid", "Homomorphism", "CandidateTrace", "PropertyReport"]


@pytest.mark.parametrize("case", cases(), ids=NAMES)
def test_equality_hash_and_repr_are_those_of_a_frozen_dataclass(case):
    value, twin, other, text, fields = case
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != other and not value == other
    # the hash of the compared fields' tuple, as a frozen dataclass has it
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    assert repr(value) == text
    assert value != tuple(getattr(value, name) for name in fields)


def test_the_reprs_of_defaults_and_derived_fields():
    assert repr(Homomorphism((0, 1))) == "Homomorphism(mapping=(0, 1), switch_set=frozenset())"
    assert repr(PropertyReport("q", True)) == "PropertyReport(name='q', holds=True, counterexamples=())"
    assert repr(GridSpec("hex", 3, 2)) == "GridSpec(kind='hex', rows=3, cols=2, mask=None)"
    # a SignedGrid shows its spec and its vertex count, not its signs or labels
    grid = SignedGrid(GridSpec("tri", 1, 2), (1,), ("a", "b"))
    assert repr(grid) == "SignedGrid(grid=GridSpec(kind='tri', rows=1, cols=2, mask=None), n=2)"
    # the vertex count is derived, and the labels are compared
    assert grid.n == 2 and grid != SignedGrid(GridSpec("tri", 1, 2), (1,))


def test_values_of_different_classes_are_never_equal():
    values = [case[0] for case in cases()]
    for a in values:
        for b in values:
            if a is not b:
                assert a != b and not a == b
    # equal fields do not make equal values across classes
    assert CandidateTrace(build_T4()) != AntitwinnedGraph(build_T4()) and Homomorphism((1,)) != CandidateTrace((1,))


@pytest.mark.parametrize("case", cases(), ids=NAMES)
def test_fields_cannot_be_assigned_or_deleted(case):
    value, _, _, text, fields = case
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("case", cases(), ids=NAMES)
@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_values_survive_pickle_and_copy(case, how):
    value, *_, text, fields = case
    twin = {
        "pickle": lambda v: pickle.loads(pickle.dumps(v, pickle.HIGHEST_PROTOCOL)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }[how](value)
    assert type(twin) is type(value) and twin == value and hash(twin) == hash(value) and repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(twin, fields[0], None)


@pytest.mark.parametrize("how", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_doubling_survives_copies_with_its_base_cycle(how):
    # the base keeps its doubling, so the copy holds a reference cycle
    double = rho_sp9_plus()
    assert double.base._double is double
    twin = how(double)
    assert twin is not double and twin == double and twin.graph == double.graph
    assert twin.base._double is twin and twin.identity(17) == double.identity(17)


@pytest.mark.parametrize("how", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_spec_survives_copies_with_its_kept_tables(how):
    spec = GridSpec("tri", 3, 4, frozenset({(1, 1), (1, 2), (2, 2), (3, 4)}))
    tables = spec.edge_columns(), spec.edge_count(), spec.slot_pattern()
    twin = how(spec)
    kept = ("_columns", "_count", "_pattern")
    assert twin == spec and all(getattr(twin, name) is not None for name in kept)
    assert [getattr(twin, name) for name in kept] == [getattr(spec, name) for name in kept]
    assert (twin.edge_columns(), twin.edge_count(), twin.slot_pattern()) == tables
    assert make_grid(twin, (1,) * twin.edge_count()).grid == spec


def test_a_graph_is_frozen_and_keeps_its_hash():
    # a graph used as a dict key must stay where it was put
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)], labels=("a", "b", "c"))
    key, table = hash(g), {g: "kept"}
    for name in ("n", "columns", "adjacency", "labels"):
        with pytest.raises(AttributeError):
            setattr(g, name, 99)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert hash(g) == key and table[g] == "kept"
    assert (g.n, g.columns, g.labels) == (3, ((0, 1), (1, 2), (1, -1)), ("a", "b", "c"))


@pytest.mark.parametrize("how", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_graph_survives_copies_with_its_kept_tables(how):
    base = rho_sp9_plus().base  # keeps its doubling; fill its other two tables
    sign_masks(base)
    _search_plan(base)
    twin = how(base)
    assert twin is not base and twin == base and hash(twin) == hash(base)
    assert twin.columns == base.columns and twin.adjacency == base.adjacency and twin.labels == base.labels
    assert twin._masks == base._masks and twin._plan == base._plan
    assert twin._double == base._double and twin._double.base is twin and twin._double is not base._double
    assert sign_masks(twin) is twin._masks and _search_plan(twin) is twin._plan


def test_a_subclass_that_adds_a_slot_keeps_every_field_in_its_own_slot():
    class Tagged(SignedGraph):
        __slots__ = ("tag",)

        def __init__(self, n, edges, labels, tag):
            super().__init__(n, edges, labels)
            self._keep("tag", tag)

    g = Tagged(3, [(2, 1, -1), (0, 1, 1)], ("a", "b", "c"), "t")
    assert (g.n, g.labels, g.tag) == (3, ("a", "b", "c"), "t")
    assert g.columns == ((0, 1), (1, 2), (1, -1)) and g.adjacency == {0: {1: 1}, 1: {0: 1, 2: -1}, 2: {1: -1}}
    assert g._masks is g._double is g._plan is None
    # equal to the plain graph of its edges, either way round
    plain = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    assert g == plain and plain == g and hash(g) == hash(plain)
    with pytest.raises(AttributeError):
        g.tag = "u"
