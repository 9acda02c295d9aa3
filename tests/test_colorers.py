"""The two constructive coloring algorithms and their normalization step."""

import json
import random
from itertools import product

import pytest

from signedgrids import (
    NEG,
    POS,
    GridSpec,
    SignedGraph,
    all_c4_unbalanced_grid,
    build_T4,
    color_hex,
    color_tri,
    find_isomorphism,
    make_grid,
    negate,
    normalize_hex,
    random_signature,
    rho_sp9_plus,
    rho_t4,
    sp5_plus,
    sp9_plus,
    switch,
    unbalanced_c6,
    verify_ec,
)
from signedgrids import colorers
from signedgrids.graphio import ArtifactEncoder, hom_to_dict
from signedgrids.hom import ec_to_signed

from helpers import (
    color_hex_reference,
    color_tri_reference,
    compatible_colors_reference,
    fill_bounding,
    grid_graph,
    induced_target,
    mask_members,
    normalize_hex_reference,
    verify_signed_with_mapping,
)

RHO_T4 = rho_t4()
RHO_SP9P = rho_sp9_plus()


def random_grid(kind, seed, max_dim=12, p=None):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    p = p if p is not None else rng.choice((0.2, 0.5, 0.8))
    spec = GridSpec(kind, rows, cols)
    return make_grid(spec, random_signature(spec, seed, p))


def scaffold_edges(spec):
    """Edges the normalization must make positive, derived from first principles:
    every horizontal edge, plus each vertical edge whose lower endpoint has
    odd coordinate parity."""
    out = []
    for i in range(1, spec.rows + 1):
        for j in range(1, spec.cols + 1):
            if (i + j) % 2 == 0 and j < spec.cols:
                out.append(((i, j), (i, j + 1)))
            if i >= 2 and (i + j) % 2 == 1:
                out.append(((i - 1, j), (i, j)))
    return out


def assert_switched_slots(slots, box, normalized):
    """``normalize_hex``'s slot array holds the reference's switched signs,
    each read as ``slots[3*u + box.direction(u, v)]`` for an edge of the
    bounding grid ``box``, and 0 in every other slot."""
    assert all(slots[3 * u + box.direction(u, v)] == s for u, v, s in normalized.edges)
    assert len(slots) - slots.tolist().count(0) == len(normalized.edges)


class TestNormalizeHex:
    def test_all_positive_grid_is_already_normal(self):
        spec = GridSpec("hex", 5, 6)
        g = make_grid(spec, {e: POS for e in spec.edges()})
        slots, switched = normalize_hex(g)
        assert switched == frozenset()
        assert_switched_slots(slots, spec, g)

    def test_scaffold_positive_on_random_grids(self):
        for seed in range(40):
            spec = GridSpec("hex", 6, 6)
            g = make_grid(spec, random_signature(spec, seed, 0.5))
            slots, switched = normalize_hex(g)
            normalized = switch(g, switched)
            assert_switched_slots(slots, spec, normalized)
            vid = lambda c: (c[0] - 1) * spec.cols + (c[1] - 1)
            for a, b in scaffold_edges(spec):
                assert normalized.sign(vid(a), vid(b)) == POS

    def test_idempotent(self):
        g = random_grid("hex", 123)
        _, switched = normalize_hex(g)
        normalized = make_grid(g.grid, [s for *_, s in switch(g, switched).edges])
        slots, switched = normalize_hex(normalized)
        assert switched == frozenset()
        assert_switched_slots(slots, g.grid, normalized)

    def test_rejects_non_hex_and_normalizes_masks_on_the_bounding_grid(self):
        with pytest.raises(ValueError):
            normalize_hex(random_grid("tri", 5))
        spec = GridSpec("hex", 3, 3, mask=frozenset({(1, 1), (1, 2)}))
        g = make_grid(spec, {e: NEG for e in spec.edges()})
        slots, switched = normalize_hex(g)
        normalized, expected = normalize_hex_reference(fill_bounding(grid_graph(g))[0])
        assert switched == expected != frozenset()
        assert_switched_slots(slots, GridSpec("hex", 3, 3), normalized)


class TestColorHex:
    def test_unbalanced_hexagon(self):
        g = unbalanced_c6()
        hom = color_hex(g)
        assert verify_ec(g, RHO_T4.graph, hom.mapping)

    def test_all_positive_grid(self):
        spec = GridSpec("hex", 4, 4)
        g = make_grid(spec, {e: POS for e in spec.edges()})
        assert verify_ec(g, RHO_T4.graph, color_hex(g).mapping)

    def test_random_grids_all_verify(self):
        for seed in range(120):
            g = random_grid("hex", 20000 + seed)
            hom = color_hex(g)
            assert verify_ec(g, RHO_T4.graph, hom.mapping)

    def test_at_most_four_identities(self):
        for seed in range(30):
            g = random_grid("hex", 21000 + seed)
            signed = ec_to_signed(color_hex(g), 4)
            assert len(set(signed.mapping)) <= 4

    def test_robust_under_switching(self):
        rng = random.Random(5555)
        for seed in range(20):
            g = random_grid("hex", 22000 + seed, max_dim=8)
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            sw = make_grid(g.grid, [s for *_, s in switch(g, subset).edges])
            assert verify_ec(sw, RHO_T4.graph, color_hex(sw).mapping)

    def test_masked_grid(self):
        rng = random.Random(61)
        for seed in range(25):
            full = GridSpec("hex", 6, 6)
            kept = frozenset(c for c in full.cells() if rng.random() < 0.65)
            if not kept:
                continue
            spec = GridSpec("hex", 6, 6, mask=kept)
            g = make_grid(spec, random_signature(spec, seed, 0.5))
            hom = color_hex(g)
            assert verify_ec(g, RHO_T4.graph, hom.mapping)

    def test_requires_grid_metadata(self):
        with pytest.raises(ValueError):
            color_hex(SignedGraph(2, [(0, 1, POS)]))

    def test_makes_one_slot_array(self, monkeypatch):
        # normalize_hex switches the one scatter of the grid's signs in place,
        # and color_hex colors that array
        calls = []
        bounding_signs = colorers._bounding_signs

        def counted(g):
            calls.append(g)
            return bounding_signs(g)

        monkeypatch.setattr(colorers, "_bounding_signs", counted)
        for g in (random_grid("hex", 7), masked_grid("hex", 7)):
            calls.clear()
            assert color_hex(g) == color_hex_reference(grid_graph(g))
            assert calls == [g]


class TestOnlySignedGridsAreColored:
    """The colorers take a SignedGrid of their kind; a SignedGraph, even one
    made from a grid, and a grid of the other kind are rejected."""

    @pytest.mark.parametrize("kind", ["hex", "tri"])
    def test_graphs_made_from_grids_are_rejected(self, kind):
        g = random_grid(kind, 11)
        colorers_of_kind = (color_hex, normalize_hex) if kind == "hex" else (color_tri,)
        for colorer in colorers_of_kind:
            for graph in (g.graph(), switch(g, range(0, g.n, 2)), negate(g)):
                with pytest.raises(ValueError, match=f"input must be a signed {kind} grid"):
                    colorer(graph)

    def test_a_grid_of_the_other_kind_is_rejected(self):
        with pytest.raises(ValueError, match="input must be a signed tri grid"):
            color_tri(random_grid("hex", 3))
        for colorer in (color_hex, normalize_hex):
            with pytest.raises(ValueError, match="input must be a signed hex grid"):
                colorer(random_grid("tri", 3))


class TestColorTri:
    def test_all_positive_3x3(self):
        spec = GridSpec("tri", 3, 3)
        g = make_grid(spec, {e: POS for e in spec.edges()})
        hom, trace = color_tri(g)
        assert verify_ec(g, RHO_SP9P.graph, hom.mapping)
        assert trace.min_size() >= 2

    def test_random_grids_all_verify_with_fat_candidate_sets(self):
        for seed in range(120):
            g = random_grid("tri", 30000 + seed)
            hom, trace = color_tri(g)
            assert verify_ec(g, RHO_SP9P.graph, hom.mapping)
            assert trace.min_size() >= 2

    def test_at_most_ten_identities(self):
        for seed in range(20):
            g = random_grid("tri", 31000 + seed)
            signed = ec_to_signed(color_tri(g)[0], 10)
            assert len(set(signed.mapping)) <= 10

    def test_masked_grid(self):
        rng = random.Random(62)
        for seed in range(25):
            full = GridSpec("tri", 5, 5)
            kept = frozenset(c for c in full.cells() if rng.random() < 0.65)
            if not kept:
                continue
            spec = GridSpec("tri", 5, 5, mask=kept)
            g = make_grid(spec, random_signature(spec, seed, 0.5))
            hom, _ = color_tri(g)
            assert verify_ec(g, RHO_SP9P.graph, hom.mapping)


class TestCandidateMachinery:
    def test_case_table_pair(self):
        target = RHO_SP9P.graph
        got = {target.label(c) for c in compatible_colors_reference(target, [(0, POS), (1, POS)])}
        assert got == {"2+", "inf+", "x+2-", "2x+2-"}

    def test_first_vertex_candidates_stay_in_the_nine_set(self):
        target = RHO_SP9P.graph
        nine = compatible_colors_reference(target, [(0, POS)])
        assert len(nine) == 9
        assert {target.label(c) for c in nine} == {
            "1+",
            "2+",
            "x+",
            "2x+",
            "inf+",
            "x+1-",
            "x+2-",
            "2x+1-",
            "2x+2-",
        }

    def test_every_pair_of_first_candidates_leaves_two_colors(self):
        # the inductive core: whatever two candidates the previous vertex
        # kept, the next vertex still has at least two compatible colors
        target = RHO_SP9P.graph
        second = compatible_colors_reference(target, [(0, POS), (1, POS)])
        first = compatible_colors_reference(target, [(0, POS)])
        for i, p1 in enumerate(first):
            for p2 in first[i + 1 :]:
                reachable = [
                    c
                    for c in second
                    if target.status(p1, c) == POS or target.status(p2, c) == POS
                ]
                assert len(reachable) >= 2

    def test_all_sixteen_local_sign_patterns_leave_two_colors(self):
        # forward DP step for every signature of the four local edges,
        # anchored at adjacent colors 0+ and 1+ for the two upper vertices
        target = RHO_SP9P.graph
        for s1, s2, s3, s4 in product((POS, NEG), repeat=4):
            first = compatible_colors_reference(target, [(0, s1)])
            second = [
                c
                for c in compatible_colors_reference(target, [(0, s2), (1, s3)])
                if any(target.status(p, c) == s4 for p in first)
            ]
            assert len(second) >= 2

    def test_no_constraints_means_every_vertex(self):
        assert compatible_colors_reference(RHO_SP9P.graph, []) == list(range(20))


def masked_grid(kind, seed):
    """A random grid of side 1 to 14; odd seeds get a random mask."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 14), rng.randint(1, 14)
    mask = None
    if seed % 2:
        keep = rng.choice((0.3, 0.7, 0.95))
        mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < keep)
    spec = GridSpec(kind, rows, cols, mask)
    return make_grid(spec, random_signature(spec, seed, rng.choice((0.2, 0.5, 0.8))))


def differential_grids(kind):
    """300 random grids, plus one-row and one-column grids and single-row,
    single-column, single-cell and empty masks."""
    specs = [
        GridSpec(kind, 1, 9),
        GridSpec(kind, 9, 1),
        GridSpec(kind, 1, 1),
        GridSpec(kind, 6, 7, mask=frozenset((3, j) for j in range(1, 8))),
        GridSpec(kind, 6, 7, mask=frozenset((i, 4) for i in range(1, 7))),
        GridSpec(kind, 6, 7, mask=frozenset({(4, 5)})),
        GridSpec(kind, 6, 7, mask=frozenset()),
    ]
    edge_cases = [make_grid(spec, random_signature(spec, k, 0.5)) for k, spec in enumerate(specs)]
    return [masked_grid(kind, 40000 + seed) for seed in range(300)] + edge_cases


def certificate_text(hom, base):
    """The certificate as ``color`` writes it."""
    cert = hom_to_dict(ec_to_signed(hom, base.n), base)
    return json.dumps(cert, indent=2, sort_keys=True, cls=ArtifactEncoder)


class TestAgainstSignedGraphReference:
    """The sign-array colorers against the SignedGraph versions in ``helpers``.

    Same mapping, same certificate bytes, same switch set (on the bounding
    grid) and same tri candidate sets, on 300 random grids of each kind,
    half of them masked.
    """

    def test_color_hex(self):
        for g in differential_grids("hex"):
            hom, expected = color_hex(g), color_hex_reference(grid_graph(g))
            assert hom == expected
            assert certificate_text(hom, build_T4()) == certificate_text(expected, build_T4())
            bounding = grid_graph(g) if g.grid.mask is None else fill_bounding(grid_graph(g))[0]
            normalized, expected = normalize_hex_reference(bounding)
            slots, switched = normalize_hex(g)
            assert switched == expected
            assert_switched_slots(slots, bounding.grid, normalized)

    def test_color_tri(self):
        for g in differential_grids("tri"):
            hom, trace = color_tri(g)
            expected_hom, expected_rows = color_tri_reference(grid_graph(g))
            assert hom == expected_hom
            assert certificate_text(hom, sp9_plus()) == certificate_text(expected_hom, sp9_plus())
            assert tuple(tuple(map(mask_members, row)) for row in trace.rows) == expected_rows

    def test_switched_and_negated_grids(self):
        # a switched or negated grid, rebuilt as a grid, colors like any grid
        for g in differential_grids("hex")[::10]:
            negated = make_grid(g.grid, [s for *_, s in negate(g).edges])
            assert negated.graph() == negate(g)
            hom = color_hex(negated)
            assert hom == color_hex_reference(grid_graph(negated))
            assert verify_ec(negated, RHO_T4.graph, hom.mapping)
        for g in differential_grids("tri")[::10]:
            sw = make_grid(g.grid, [s for *_, s in switch(g, range(0, g.n, 3)).edges])
            hom, _ = color_tri(sw)
            assert hom == color_tri_reference(grid_graph(sw))[0]
            assert verify_ec(sw, RHO_SP9P.graph, hom.mapping)


class TestPeriodicFixtureColoring:
    def test_six_by_six_certificate(self):
        g, coloring = all_c4_unbalanced_grid(6, 6)
        target = induced_target(g, [coloring[v] for v in range(g.n)], 6)
        iso = find_isomorphism(target, sp5_plus())
        assert iso is not None
        mapped = [iso[coloring[v]] for v in range(g.n)]
        assert verify_signed_with_mapping(g, sp5_plus(), mapped) is not None
