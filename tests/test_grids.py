"""Grid generators, 4-cycle machinery, and the fixed fixtures."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedgrids import (
    NEG,
    POS,
    GridSpec,
    SignedGrid,
    all_c4_unbalanced_grid,
    find_isomorphism,
    make_grid,
    random_signature,
    sp5_plus,
    switch,
    unbalanced_c6,
    unbalanced_wheel7,
    verify_ec,
)
from signedgrids.graphio import graph_to_dict

from helpers import (
    brute_c4_keys,
    cycle_edge_key,
    cycle_sign,
    enumerate_c4,
    grid_edges_reference,
    grid_neighbors,
    induced_subgraph,
    induced_target,
    is_unbalanced,
    make_grid_reference,
    random_signed_graph,
    signature_dict,
    verify_signed_with_mapping,
)


def all_positive_grid(kind, rows, cols, mask=None):
    spec = GridSpec(kind, rows, cols, mask)
    return make_grid(spec, {e: POS for e in spec.edges()})


class TestAdjacency:
    def test_hex_2x2(self):
        g = all_positive_grid("hex", 2, 2)
        assert g.n == 4
        # ids: (1,1)=0 (1,2)=1 (2,1)=2 (2,2)=3
        assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (0, 2), (1, 3)}

    def test_hex_brick_wall_shape(self):
        # at most one horizontal neighbor anywhere, degree at most 3
        for rows in range(1, 9):
            for cols in range(1, 9):
                g = all_positive_grid("hex", rows, cols).graph()
                for v in range(g.n):
                    i, j = divmod(v, cols)
                    horizontals = [
                        u for u in g.neighbors(v) if u // cols == i
                    ]
                    assert len(horizontals) <= 1
                    assert g.degree(v) <= 3

    def test_tri_2x2(self):
        g = all_positive_grid("tri", 2, 2)
        assert g.n == 4
        assert {(u, v) for u, v, _ in g.edges} == {
            (0, 1),
            (2, 3),
            (0, 2),
            (1, 3),
            (1, 2),
        }

    def test_tri_second_row_sees_both_upper_columns(self):
        g = all_positive_grid("tri", 2, 5).graph()
        for c in range(1, 6):
            v = 5 + (c - 1)
            ups = {u for u in g.neighbors(v) if u < 5}
            expected = {c - 1} | ({c} if c < 5 else set())
            assert ups == expected

    def test_tri_max_degree_six(self):
        g = all_positive_grid("tri", 5, 5).graph()
        assert max(g.degree(v) for v in range(g.n)) == 6

    def test_index_formula(self):
        spec = GridSpec("tri", 3, 4)
        for k, (i, j) in enumerate(spec.cells()):
            assert k == (i - 1) * 4 + (j - 1)


class TestSignatures:
    def test_p_zero_and_one(self):
        spec = GridSpec("hex", 3, 3)
        assert set(signature_dict(spec, random_signature(spec, 1, 0.0)).values()) == {POS}
        assert set(signature_dict(spec, random_signature(spec, 1, 1.0)).values()) == {NEG}

    def test_deterministic(self):
        spec = GridSpec("tri", 4, 4)
        assert random_signature(spec, 42, 0.5) == random_signature(spec, 42, 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            random_signature(GridSpec("hex", 2, 2), 0, 1.5)

    def test_sign_arrays_must_fit_the_slots(self):
        # a sign column has one int +1 or -1 per edge; True == 1 and
        # 1.0 == 1, but gen would write them as true and 1.0
        for spec in (GridSpec("hex", 3, 4), GridSpec("tri", 3, 2, mask=frozenset({(1, 1), (1, 2), (2, 1)}))):
            signs = random_signature(spec, 5, 0.5)
            assert type(signs) is tuple and len(signs) == spec.edge_count()
            assert make_grid(spec, list(signs)) == make_grid(spec, signs)
            assert make_grid(spec, signs) == make_grid(spec, signature_dict(spec, signs))
            bad = [signs[:-1], signs + (1,)] + [signs[:-1] + (x,) for x in (0, 2, True, 1.0, None)]
            for column in bad:
                with pytest.raises(ValueError, match="sign column does not fit"):
                    make_grid(spec, column)

    def test_mapping_values_are_read_in_edge_order(self):
        # a mapping with its keys in any order is read in edge order, and
        # its values go to the constructor as they are: True and 1.0 equal
        # 1 but are no int sign; a domain mismatch is named first
        spec = GridSpec("tri", 4, 3, mask=frozenset(GridSpec("tri", 4, 3).cells()) - {(2, 2)})
        signs = random_signature(spec, 4, 0.5)
        edges = spec.edges()
        shuffled = dict(reversed(list(zip(edges, signs))))  # keys out of edge order
        grid = make_grid(spec, shuffled)
        assert grid.signs == signs and grid == make_grid(spec, signs)
        assert json.dumps(graph_to_dict(grid)) == json.dumps(graph_to_dict(make_grid(spec, signs)))
        for bad in (True, 1.0, -1.0, 0, None):
            sig = dict(shuffled)
            sig[edges[3]] = bad
            with pytest.raises(ValueError, match="sign column does not fit the tri 4x3 grid"):
                make_grid(spec, sig)
            del sig[edges[-1]]
            with pytest.raises(ValueError, match="signature domain mismatch: 1 missing, 0 extra edges"):
                make_grid(spec, sig)

    def test_domain_mismatch_rejected(self):
        spec = GridSpec("hex", 2, 2)
        sig = signature_dict(spec, random_signature(spec, 0, 0.5))
        sig.popitem()
        with pytest.raises(ValueError):
            make_grid(spec, sig)


@st.composite
def grid_signatures(draw):
    """A random (masked) grid spec and its random signature, with at most one
    key mutated: dropped, reversed, or replaced by (or added as) a pair of
    non-neighbors, a pair touching a masked-out cell, or a pair leaving the box."""
    kind = draw(st.sampled_from(("hex", "tri")))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    box = GridSpec(kind, rows, cols)
    mask = draw(st.none() | st.sets(st.sampled_from(box.cells()), min_size=1))
    spec = GridSpec(kind, rows, cols, mask)
    sig = signature_dict(spec, random_signature(spec, draw(st.integers(0, 2**16)), 0.5))
    sig = dict(draw(st.permutations(list(sig.items()))))
    mutation = draw(st.sampled_from(("none", "drop", "reverse", "non_neighbor", "masked_out", "outside")))
    if not sig or mutation == "none":
        return spec, sig
    a, b = key = draw(st.sampled_from(list(sig)))
    if mutation == "drop":
        del sig[key]
        return spec, sig
    if mutation == "reverse":
        new = (b, a)
    elif mutation == "non_neighbor":
        edges, cells = set(spec.edges()), spec.cells()
        pairs = [(c, d) for c in cells for d in cells if c != d and (c, d) not in edges]
        if not pairs:
            return spec, sig
        new = draw(st.sampled_from(pairs))
    elif mutation == "masked_out":
        dropped = sorted(set(box.cells()) - set(spec.cells()))
        if not dropped:
            return spec, sig
        i, j = x = draw(st.sampled_from(dropped))
        new = draw(st.sampled_from((((i - 1, j), x), (x, (i + 1, j)), ((i, j - 1), x), (x, (i, j + 1)))))
    else:  # the last three would alias a slot of the grid if the box went unchecked
        i, j = draw(st.integers(1, rows)), draw(st.integers(1, cols))
        new = draw(st.sampled_from((
            ((rows, j), (rows + 1, j)),
            ((0, j), (1, j)),
            ((0, j), (0, j + 1)),
            ((i, 0), (i + 1, 0)),
            ((i, cols + 1), (i + 1, cols + 1)),
        )))
    if mutation == "reverse" or draw(st.booleans()):
        del sig[key]
    sig[new] = draw(st.sampled_from((POS, NEG)))
    return spec, sig


@given(grid_signatures())
@settings(max_examples=400, deadline=None)
def test_make_grid_matches_the_set_reference(case):
    spec, sig = case
    try:
        expected = make_grid_reference(spec, sig)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            make_grid(spec, sig)
        assert str(caught.value) == str(exc)
        return
    grid = make_grid(spec, sig)
    g = grid.graph()
    assert g == expected and grid.grid == spec == expected.grid
    # in order too: the search filters neighbors in adjacency order
    assert [list(g.neighbors(v).items()) for v in range(g.n)] == [
        list(expected.neighbors(v).items()) for v in range(g.n)
    ]


def test_edges_follow_the_adjacency_rules_on_masked_grids():
    # every pair of retained cells, in row-major order, against the rules
    rng = random.Random(8)
    for kind in ("hex", "tri"):
        for rows in range(1, 7):
            for cols in range(1, 7):
                box = GridSpec(kind, rows, cols)
                for keep in (None, 0.3, 0.6, 0.9):
                    mask = None if keep is None else frozenset(c for c in box.cells() if rng.random() < keep)
                    spec = GridSpec(kind, rows, cols, mask)
                    cells = spec.cells()
                    pairs = [(a, b) for a in cells for b in cells if grid_neighbors(kind, a, b)]
                    assert spec.edges() == tuple(sorted(pairs))


def test_edge_count_is_the_number_of_edges():
    for kind in ("hex", "tri"):
        for rows in range(1, 8):
            for cols in range(1, 8):
                spec = GridSpec(kind, rows, cols)
                assert spec.edge_count() == len(spec.edges())


def test_edge_count_closed_form_is_the_slot_patterns_count():
    # an unmasked grid's edge count is counted without its slot pattern; odd
    # and even sides meet every parity case of the hex right edges
    for kind in ("hex", "tri"):
        for rows in range(1, 41):
            for cols in range(1, 41):
                spec = GridSpec(kind, rows, cols)
                assert spec.edge_count() == spec.slot_pattern().count(1)


def test_slot_arithmetic_is_the_slot_pattern():
    # an unmasked grid tests a slot without its pattern; a masked one reads it
    rng = random.Random(12)
    for kind in ("hex", "tri"):
        for rows in range(1, 13):
            for cols in range(1, 13):
                spec = GridSpec(kind, rows, cols)
                masked = GridSpec(kind, rows, cols, frozenset(c for c in spec.cells() if rng.random() < 0.7))
                for s in (spec, masked):
                    pattern = s.slot_pattern()
                    assert [s.has_slot(p) for p in range(len(pattern))] == [x == 1 for x in pattern]


class TestSpecChecks:
    @pytest.mark.parametrize(
        "rows, cols",
        [(2.0, 3), (2, 3.0), (True, 3), (2, True), (0, 3), (2, -1), ("2", 3), (None, 3)],
    )
    def test_rows_and_cols_are_exact_ints_of_at_least_one(self, rows, cols):
        # a float once built a grid whose n was a float
        with pytest.raises(ValueError, match="rows and cols must be ints of at least 1"):
            GridSpec("tri", rows, cols)

    @pytest.mark.parametrize(
        "cell",
        [(1, 1.0), (1.0, 2), (True, 2), (1, True), (0, 1), (3, 1), (1, 4), (1, -1), (1, 2, 3), (1,), "ab", None],
    )
    def test_mask_cells_are_pairs_of_exact_ints_inside_the_box(self, cell):
        # a float cell once built a grid whose own file the loader refused
        with pytest.raises(ValueError, match="is not a pair of ints inside the 2x3 grid"):
            GridSpec("hex", 2, 3, {cell, (1, 2)})

    def test_a_checked_spec_keeps_its_values(self):
        spec = GridSpec("hex", 2, 3, [(1, 2), (2, 2), (1, 2)])
        assert spec.mask == frozenset({(1, 2), (2, 2)}) and GridSpec("tri", 1, 1).rows == 1
        assert make_grid(spec, (1,)).n == 2


class TestMasks:
    def test_masked_grid_is_induced_subgraph(self):
        for i in range(20):
            rng = random.Random(400 + i)
            kind = "hex" if i % 2 == 0 else "tri"
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            full_spec = GridSpec(kind, rows, cols)
            full = make_grid(full_spec, random_signature(full_spec, i, 0.5)).graph()
            kept = [
                c for c in full_spec.cells() if rng.random() < 0.7
            ]
            if not kept:
                continue
            mask = frozenset(kept)
            spec = GridSpec(kind, rows, cols, mask)
            sig = {
                e: full.sign(
                    full_spec.cells().index(e[0]), full_spec.cells().index(e[1])
                )
                for e in spec.edges()
            }
            masked = make_grid(spec, sig).graph()
            ids = [full_spec.cells().index(c) for c in spec.cells()]
            assert masked == induced_subgraph(full, ids)


class TestC4:
    def test_single_hexagon_has_none(self):
        assert enumerate_c4(unbalanced_c6()) == []

    def test_tri_2x2_and_brute_force(self):
        g = all_positive_grid("tri", 2, 2).graph()
        cycles = enumerate_c4(g)
        assert len(cycles) == 1
        assert {cycle_edge_key(c) for c in cycles} == brute_c4_keys(g)

    def test_wheel_has_six_matching_brute_force(self):
        w7 = unbalanced_wheel7()
        cycles = enumerate_c4(w7)
        assert len(cycles) == 6
        assert {cycle_edge_key(c) for c in cycles} == brute_c4_keys(w7)

    def test_random_graphs_match_brute_force(self):
        for i in range(30):
            g = random_signed_graph(random.Random(500 + i), 8, 0.45)
            found = enumerate_c4(g)
            keys = {cycle_edge_key(c) for c in found}
            assert len(keys) == len(found)  # no duplicates
            assert keys == brute_c4_keys(g)

    def test_is_unbalanced(self):
        c4 = [(0, 1, POS), (1, 2, POS), (2, 3, POS), (0, 3, POS)]
        g = make_c4(c4)
        assert not is_unbalanced(g, [0, 1, 2, 3])
        g1 = make_c4([(0, 1, NEG)] + c4[1:])
        assert is_unbalanced(g1, [0, 1, 2, 3])

    def test_unbalance_survives_switching(self):
        g = unbalanced_wheel7()
        rng = random.Random(7)
        for _ in range(25):
            subset = [v for v in range(7) if rng.random() < 0.5]
            sw = switch(g, subset)
            for cyc in enumerate_c4(g):
                assert is_unbalanced(sw, cyc)

    def test_rejects_non_cycles(self):
        g = all_positive_grid("tri", 2, 2)
        with pytest.raises(ValueError):
            is_unbalanced(g, [0, 1])
        with pytest.raises(ValueError):
            cycle_sign(g, [0, 1, 1, 2])
        with pytest.raises(ValueError):
            is_unbalanced(g, [0, 3, 1, 2])  # 0-3 is not an edge


def make_c4(edges):
    from signedgrids import SignedGraph

    return SignedGraph(4, edges)


class TestFixtures:
    def test_periodic_grid_is_all_unbalanced_with_six_colors(self):
        g, coloring = all_c4_unbalanced_grid(6, 6)
        cycles = enumerate_c4(g)
        assert cycles and all(is_unbalanced(g, c) for c in cycles)
        assert set(coloring.values()) == set(range(6))

    def test_periodic_grid_coloring_maps_every_window_into_sp5_plus(self):
        # the signs are read off the coloring, so it needs no switching
        for rows in range(2, 14):
            for cols in range(2, 14):
                g, coloring = all_c4_unbalanced_grid(rows, cols)
                assert verify_ec(g, sp5_plus(), [coloring[v] for v in range(g.n)]), (rows, cols)

    def test_periodic_grid_windows_stay_unbalanced(self):
        g, _ = all_c4_unbalanced_grid(12, 12)
        spec = g.grid
        index = {c: k for k, c in enumerate(spec.cells())}
        rng = random.Random(99)
        for _ in range(8):
            r0, c0 = rng.randint(1, 8), rng.randint(1, 8)
            h, w = rng.randint(2, 4), rng.randint(2, 4)
            cells = [
                (i, j)
                for i in range(r0, r0 + h)
                for j in range(c0, c0 + w)
            ]
            window = induced_subgraph(g, [index[c] for c in cells])
            for cyc in enumerate_c4(window):
                assert is_unbalanced(window, cyc)

    def test_periodic_grid_coloring_is_a_valid_signed_coloring(self):
        g, coloring = all_c4_unbalanced_grid(6, 6)
        target = induced_target(g, [coloring[v] for v in range(g.n)], 6)
        iso = find_isomorphism(target, sp5_plus())
        assert iso is not None
        mapped = [iso[coloring[v]] for v in range(g.n)]
        assert verify_signed_with_mapping(g, sp5_plus(), mapped) is not None

    def test_wheel(self):
        w7 = unbalanced_wheel7()
        assert w7.n == 7 and w7.edge_count == 12
        negatives = [(u, v) for u, v, s in w7.edges if s == NEG]
        assert len(negatives) == 3
        assert all(u != 0 and v != 0 for u, v in negatives)  # all on the rim
        assert all(is_unbalanced(w7, c) for c in enumerate_c4(w7))

    def test_c6(self):
        grid = unbalanced_c6()
        assert isinstance(grid, SignedGrid) and grid.grid.kind == "hex"
        c6 = grid.graph()
        assert c6.n == 6 and c6.edge_count == 6
        assert sum(1 for *_, s in c6.edges if s == NEG) == 1
        assert all(c6.degree(v) == 2 for v in range(6))  # one hexagon
        cycle = [0]
        while len(cycle) < 6:
            nxt = [u for u in c6.neighbors(cycle[-1]) if u not in cycle]
            cycle.append(nxt[0])
        assert is_unbalanced(c6, cycle)

    def test_fixture_needs_two_rows(self):
        with pytest.raises(ValueError):
            all_c4_unbalanced_grid(1, 5)


def test_grid_columns_are_its_edges():
    # the columns, the edges derived from them and the graph built from them
    # all list the edges read cell by cell by the adjacency rules, and the
    # tails and heads are the ones the spec keeps
    rng = random.Random(12)
    for _ in range(30):
        kind, rows, cols = rng.choice(("hex", "tri")), rng.randint(1, 6), rng.randint(1, 6)
        mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < 0.7) or None
        for spec in (GridSpec(kind, rows, cols), GridSpec(kind, rows, cols, mask)):
            g = make_grid(spec, random_signature(spec, rng.randrange(1000), 0.5))
            tails, heads, signs = g.columns
            assert list(zip(tails, heads, signs)) == grid_edges_reference(g)
            assert g.edges == tuple(grid_edges_reference(g)) == g.graph().edges
            assert signs is g.signs
            assert tails is spec.edge_columns()[0] and heads is spec.edge_columns()[1]
