"""Shared test utilities: random instances and brute-force oracles."""

from __future__ import annotations

import copy
import random
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations, product

from hypothesis import strategies as st

from signedgrids import (
    NEG,
    POS,
    GridSpec,
    SignedGraph,
    SignedGrid,
    antitwin_double,
    rho_sp9_plus,
    rho_t4,
    sign_masks,
    switch,
    verify_ec,
)
from signedgrids.colorers import ColoringInvariantError
from signedgrids.graphio import grid_from_dict
from signedgrids.hom import Homomorphism, SearchBudget, _search_order, ec_to_signed, find_ec_hom
from signedgrids.props import pstar21_excluded_pairs


def random_signed_graph(rng: random.Random, n: int, p_edge: float = 0.4) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, 1 if rng.random() < 0.5 else -1))
    return SignedGraph(n, edges)


@st.composite
def signed_graphs(draw, max_n: int = 8, p_edge: float = 0.4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(min_value=0, max_value=1)) < p_edge:
                edges.append((u, v, draw(st.sampled_from((1, -1)))))
    return SignedGraph(n, edges)


# ---------------------------------------------------------------------------
# Structural oracles the library does not need: switching equivalence,
# induced subgraphs and quotients, common neighbors, and 4-cycles.
# ---------------------------------------------------------------------------


def _require_total(g: SignedGraph | SignedGrid, mapping: Sequence[int]) -> None:
    if len(mapping) != g.n:
        raise ValueError("mapping must be total on the source vertices")


def underlying_pairs(g: SignedGraph) -> frozenset[tuple[int, int]]:
    """Unsigned edge set, for comparing underlying graphs."""
    return frozenset((u, v) for u, v, _ in g.edges)


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> frozenset[int] | None:
    """Find a switch set carrying ``g1`` onto ``g2``, or None if there is none.

    Both graphs must share the same underlying unsigned graph.  Each connected
    component is decided by fixing its smallest vertex unswitched and
    propagating the parity constraint ``x_u XOR x_v = [signs differ on uv]``
    along a spanning tree, then checking every non-tree edge.  The parity
    constraints are invariant under complementing a component, so a failed
    propagation means no switch set exists at all.
    """
    if g1.n != g2.n or underlying_pairs(g1) != underlying_pairs(g2):
        raise ValueError("graphs do not share the same underlying graph")
    x = [-1] * g1.n
    for root in range(g1.n):
        if x[root] != -1:
            continue
        x[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, s1 in g1.neighbors(u).items():
                need = x[u] ^ (1 if s1 != g2.sign(u, v) else 0)
                if x[v] == -1:
                    x[v] = need
                    stack.append(v)
                elif x[v] != need:
                    return None
    return frozenset(v for v in range(g1.n) if x[v] == 1)


def induced_subgraph(g: SignedGraph, vertices: Sequence[int]) -> SignedGraph:
    """Induced subgraph on ``vertices``, reindexed in the given order."""
    idx = {v: i for i, v in enumerate(vertices)}
    if len(idx) != len(vertices):
        raise ValueError("vertex list contains duplicates")
    edges = [
        (idx[u], idx[v], s)
        for u, v, s in g.edges
        if u in idx and v in idx
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in vertices]
    return SignedGraph(len(vertices), edges, labels=labels)


def induced_target(g: SignedGraph | SignedGrid, mapping: Sequence[int], size: int) -> SignedGraph:
    """Target graph induced by a coloring: one edge per observed color pair.

    Raises ``ValueError`` if two source edges force the same color pair to
    carry both signs, or if an edge joins equal colors.
    """
    _require_total(g, mapping)
    signs: dict[tuple[int, int], int] = {}
    for u, v, s in g.edges:
        a, b = mapping[u], mapping[v]
        if a == b:
            raise ValueError(f"edge ({u},{v}) joins two vertices of color {a}")
        key = (a, b) if a < b else (b, a)
        prev = signs.setdefault(key, s)
        if prev != s:
            raise ValueError(f"color pair {key} carries both signs")
    return SignedGraph(size, [(a, b, s) for (a, b), s in sorted(signs.items())])


def verify_signed_with_mapping(
    g: SignedGraph | SignedGrid,
    h: SignedGraph,
    mapping: Sequence[int],
    budget: SearchBudget | None = None,
) -> frozenset[int] | None:
    """Find a switch set making ``mapping`` an ec homomorphism, or None.

    The candidate images of each source vertex are restricted to the two
    copies of its prescribed target vertex in the antitwin doubling of ``h``,
    so only the switch choice is searched.
    """
    _require_total(g, mapping)
    rho = antitwin_double(h)
    domains = [(m, m + h.n) for m in mapping]
    found = find_ec_hom(g, rho.graph, domains=domains, budget=budget)
    if found is None:
        return None
    return ec_to_signed(found, h.n).switch_set


def common_positive_neighbors(g: SignedGraph, u: int, v: int) -> frozenset[int]:
    """Vertices positively adjacent to both ``u`` and ``v``."""
    if u == v:
        raise ValueError("need two distinct vertices")
    pos = sign_masks(g)[POS]
    common = pos[u] & pos[v]
    return frozenset(w for w in range(g.n) if common >> w & 1)


def enumerate_c4(g: SignedGraph | SignedGrid) -> list[tuple[int, int, int, int]]:
    """All 4-cycles of ``g``, one representative per cycle.

    Each cycle is reported as ``(u, a, v, b)`` meaning ``u-a-v-b-u``, where
    ``{u, v}`` is the diagonal containing the smallest vertex of the cycle and
    ``a < b``.  Chords are irrelevant: any closed walk on four distinct
    vertices counts.  Found by pairing common neighbors of every vertex pair.
    """
    if isinstance(g, SignedGrid):
        g = g.graph()
    out = []
    for u in range(g.n):
        nu = set(g.neighbors(u))
        for v in range(u + 1, g.n):
            common = sorted(nu & set(g.neighbors(v)))
            for a, b in combinations(common, 2):
                if u < a:  # keep only the diagonal holding the global minimum
                    out.append((u, a, v, b))
    return out


def _check_cycle(g: SignedGraph, cycle) -> None:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise ValueError("not a cycle: need at least 3 distinct vertices")
    for t in range(k):
        if not g.has_edge(cycle[t], cycle[(t + 1) % k]):
            raise ValueError(f"not a cycle: missing edge {cycle[t]}-{cycle[(t + 1) % k]}")


def cycle_sign(g: SignedGraph | SignedGrid, cycle) -> int:
    """Product of the edge signs along a cycle (a switching invariant)."""
    if isinstance(g, SignedGrid):
        g = g.graph()
    _check_cycle(g, cycle)
    prod = 1
    k = len(cycle)
    for t in range(k):
        prod *= g.sign(cycle[t], cycle[(t + 1) % k])
    return prod


def is_unbalanced(g: SignedGraph | SignedGrid, cycle) -> bool:
    """True iff the cycle carries an odd number of negative edges."""
    return cycle_sign(g, cycle) == NEG


def cycle_edge_key(cycle) -> frozenset:
    k = len(cycle)
    return frozenset(
        (min(cycle[t], cycle[(t + 1) % k]), max(cycle[t], cycle[(t + 1) % k]))
        for t in range(k)
    )


def brute_c4_keys(g: SignedGraph) -> set[frozenset]:
    """All 4-cycles found by checking every 4-subset and every diagonal pairing."""
    keys = set()
    for quad in combinations(range(g.n), 4):
        p, q, r, s = quad
        for d1, d2 in (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r))):
            x1, x2 = d1
            y1, y2 = d2
            cyc = (x1, y1, x2, y2)
            if all(g.has_edge(cyc[t], cyc[(t + 1) % 4]) for t in range(4)):
                keys.add(cycle_edge_key(cyc))
    return keys


def ec_hom_exists_brute(g: SignedGraph, h: SignedGraph) -> bool:
    """Oracle: try every one of the |V(h)|^|V(g)| mappings."""
    if g.n == 0:
        return True
    if h.n == 0:
        return False
    return any(
        verify_ec(g, h, mapping) for mapping in product(range(h.n), repeat=g.n)
    )


# ---------------------------------------------------------------------------
# Oracle for the verifiers: the per-edge loop over explicit (u, v, sign)
# triples, with a grid's edges listed cell by cell by the adjacency rules.
# ---------------------------------------------------------------------------


def grid_edges_reference(g: SignedGrid) -> list[tuple[int, int, int]]:
    """A grid's edges, sorted, listed from its cells by the adjacency rules
    of the grids module docstring rather than through its columns, and
    paired in that order with its sign column."""
    spec = g.grid
    cells = spec.cells()
    index = {c: k for k, c in enumerate(cells)}
    pairs = [
        (k, index[b])
        for k, (i, j) in enumerate(cells)
        for b in ((i, j + 1), (i + 1, j - 1), (i + 1, j))
        if b in index and grid_neighbors(spec.kind, (i, j), b)
    ]
    return [(u, v, s) for (u, v), s in zip(pairs, g.signs, strict=True)]


def _edges_reference(g: SignedGraph | SignedGrid):
    return grid_edges_reference(g) if isinstance(g, SignedGrid) else g.edges


def first_ec_violation_reference(
    g: SignedGraph | SignedGrid, h: SignedGraph, mapping: Sequence[int]
) -> tuple[int, int] | None:
    """The first edge triple that ``mapping`` does not carry to an
    equal-sign edge of ``h``, by one dict lookup per triple, else None."""
    if len(mapping) != g.n:
        raise ValueError("mapping must be total on the source vertices")
    rows = [h.neighbors(a) for a in range(h.n)]
    for u, v, s in _edges_reference(g):
        if rows[mapping[u]].get(mapping[v], 0) != s:
            return (u, v)
    return None


def verify_ec_reference(g: SignedGraph | SignedGrid, h: SignedGraph, mapping: Sequence[int]) -> bool:
    """Oracle for ``verify_ec``: an entry outside ``range(h.n)`` gives False."""
    if mapping and (min(mapping) < 0 or max(mapping) >= h.n):
        if len(mapping) != g.n:
            raise ValueError("mapping must be total on the source vertices")
        return False
    return first_ec_violation_reference(g, h, mapping) is None


def verify_signed_reference(g: SignedGraph | SignedGrid, h: SignedGraph, hom: Homomorphism) -> bool:
    """Oracle for ``verify_signed``: each edge triple's sign, negated when the
    switch set holds exactly one end, checked against the target."""
    flipped = hom.switch_set
    if flipped and (min(flipped) < 0 or max(flipped) >= g.n):
        return False
    mapping = hom.mapping
    if len(mapping) != g.n:
        raise ValueError("mapping must be total on the source vertices")
    if mapping and (min(mapping) < 0 or max(mapping) >= h.n):
        return False
    rows = [h.neighbors(a) for a in range(h.n)]
    for u, v, s in _edges_reference(g):
        if (u in flipped) != (v in flipped):
            s = -s
        if rows[mapping[u]].get(mapping[v], 0) != s:
            return False
    return True


def signed_hom_exists_brute(g: SignedGraph, h: SignedGraph) -> bool:
    """Oracle realizing the definition: enumerate all 2^n switchings."""
    for bits in range(1 << g.n):
        subset = [v for v in range(g.n) if (bits >> v) & 1]
        if find_ec_hom(switch(g, subset), h) is not None:
            return True
    return False


def find_ec_hom_reference(
    g: SignedGraph,
    h: SignedGraph,
    domains: Sequence[Sequence[int]] | None = None,
    budget: SearchBudget | None = None,
) -> Homomorphism | None:
    """Oracle: ``find_ec_hom`` on sorted candidate lists instead of bitmasks.

    Same search order, candidate order and one budget node per candidate
    tried, so it must return the same witness and spend the same budget.
    """
    n = g.n
    if domains is None:
        doms: list[list[int]] = [list(range(h.n))] * n
    else:
        if len(domains) != n:
            raise ValueError("domains must list candidates for every vertex")
        doms = []
        for cand in domains:
            dom = sorted(set(cand))
            if any(not 0 <= c < h.n for c in dom):
                raise ValueError("candidate out of target range")
            doms.append(dom)

    order, _ = _search_order(g)
    position = [0] * n
    for k, v in enumerate(order):
        position[v] = k
    # per search vertex: neighbors that come later in the order, with signs
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(n):
        for w, s in g.neighbors(v).items():
            if position[w] > position[v]:
                later[v].append((w, s))

    hstat = [[h.status(a, b) for b in range(h.n)] for a in range(h.n)]
    current: list[list[int]] = [list(d) for d in doms]
    assignment = [-1] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for c in current[v]:
            if budget is not None:
                budget.spend()
            assignment[v] = c
            saved = []
            ok = True
            row = hstat[c]
            for w, s in later[v]:
                old = current[w]
                new = [d for d in old if row[d] == s]
                if not new:
                    ok = False
                    saved.append((w, old))
                    break
                saved.append((w, old))
                current[w] = new
            if ok and extend(k + 1):
                return True
            for w, old in saved:
                current[w] = old
            assignment[v] = -1
        return False

    if extend(0):
        return Homomorphism(tuple(assignment))
    return None


# ---------------------------------------------------------------------------
# Oracle for the colorers: the SignedGraph versions, on sorted candidate lists
# and frozensets, with masked grids colored through a rebuilt bounding grid.
# They read a grid as a GridGraph, a SignedGraph that keeps its spec.
# ---------------------------------------------------------------------------


class GridGraph(SignedGraph):
    """A :class:`SignedGraph` with the :class:`GridSpec` it was built for as
    its ``grid``: the form in which the oracles below read a grid."""

    __slots__ = ("grid",)

    def __init__(self, n, edges, labels=None, grid=None):
        super().__init__(n, edges, labels=labels)
        self.grid = grid


def grid_graph(g: SignedGrid) -> GridGraph:
    """A signed grid as a :class:`GridGraph`, for the oracles."""
    return GridGraph(g.n, g.edges, labels=g.labels, grid=g.grid)


def compatible_colors_reference(
    h: SignedGraph, constraints: Iterable[tuple[int, int]]
) -> list[int]:
    """Target vertices adjacent to every ``(image, sign)`` constraint, ascending."""
    cands: frozenset[int] | None = None
    for image, s in constraints:
        nbrs = frozenset(u for u, t in h.neighbors(image).items() if t == s)
        cands = nbrs if cands is None else cands & nbrs
    if cands is None:
        return list(range(h.n))
    return sorted(cands)


def make_grid_reference(spec: GridSpec, signature: dict) -> SignedGraph:
    """Oracle for ``make_grid``: compare the key set with ``spec.edges()`` as sets."""
    cell_edges = spec.edges()
    if set(signature) != set(cell_edges):
        missing = set(cell_edges) - set(signature)
        extra = set(signature) - set(cell_edges)
        raise ValueError(
            f"signature domain mismatch: {len(missing)} missing, {len(extra)} extra edges"
        )
    cells = spec.cells()
    index = {c: k for k, c in enumerate(cells)}
    edges = [(index[a], index[b], signature[(a, b)]) for a, b in cell_edges]
    return GridGraph(len(cells), edges, grid=spec)


def grid_neighbors(kind: str, a, b) -> bool:
    """True iff cell ``b`` is the right, down-left (tri) or down neighbor of
    ``a``, by the adjacency rules of the grids module docstring."""
    (i, j), (k, l) = a, b
    right = k == i and l == j + 1 and (kind == "tri" or (i + j) % 2 == 0)
    return right or (k == i + 1 and (l == j or (kind == "tri" and l == j - 1)))


def signature_dict(spec: GridSpec, signs: Sequence[int]) -> dict:
    """A sign column as the cell-pair signature ``make_grid`` also takes."""
    return dict(zip(spec.edges(), signs))


def graph_from_dict_reference(d: Mapping) -> GridGraph:
    """Oracle for ``graph_from_dict``: the loader that checks every edge and
    then builds a GridGraph, whose ``grid`` is None without grid metadata."""
    if not isinstance(d, Mapping):
        raise ValueError("graph must be a JSON object")
    n = d.get("n")
    if type(n) is not int:
        raise ValueError(f"graph 'n' {n!r} is not an integer")
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise ValueError("graph 'edges' must be a list")
    labels = d.get("labels")
    if "labels" in d and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError("graph 'labels' must be a list of strings")
    grid = grid_from_dict(d["grid"]) if "grid" in d else None
    if grid is not None:
        size = grid.rows * grid.cols if grid.mask is None else len(grid.mask)
        if n != size:
            raise ValueError(f"graph 'n' is {n}, but its grid has {size} cells")
        cells, edges = grid.cells(), set(grid.edges())
    for e in raw:
        if type(e) is not list or len(e) != 3:
            raise ValueError(f"edge {e!r} is not a [u, v, sign] triple")
        u, v, s = e
        if type(u) is not int or type(v) is not int or type(s) is not int:
            raise ValueError(f"edge {e!r} has an entry that is not an integer")
        if grid is not None:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} has an endpoint out of range [0,{n})")
            if (cells[min(u, v)], cells[max(u, v)]) not in edges:
                raise ValueError(f"edge {e!r} does not join neighboring cells of the {grid.kind} grid")
    g = GridGraph(n, raw, labels=labels, grid=grid)
    if grid is not None and g.edge_count != len(edges):
        index = {c: k for k, c in enumerate(cells)}
        for a, b in grid.edges():
            if not g.has_edge(index[a], index[b]):
                raise ValueError(
                    f"grid edge {a}-{b} (vertices {index[a]}, {index[b]}) is missing"
                )
    return g


def fill_bounding(g: GridGraph) -> tuple[GridGraph, list[int]]:
    """Extend a masked grid to its full bounding grid, filling with +1.

    Returns the full grid and, per masked vertex, its id in the full grid.
    """
    spec: GridSpec = g.grid
    full = GridSpec(spec.kind, spec.rows, spec.cols)
    index = {c: k for k, c in enumerate(spec.cells())}
    signature = {}
    for a, b in full.edges():
        if a in index and b in index:
            signature[(a, b)] = g.sign(index[a], index[b])
        else:
            signature[(a, b)] = POS
    full_g = make_grid_reference(full, signature)
    full_index = {c: k for k, c in enumerate(full.cells())}
    return full_g, [full_index[c] for c in spec.cells()]


def normalize_hex_reference(g: GridGraph) -> tuple[SignedGraph, frozenset[int]]:
    """Switch a full hexagonal grid so the coloring scaffold is all positive.

    Returns the switched grid and the switch set; rejects masked grids.
    """
    spec = g.grid
    if not isinstance(spec, GridSpec) or spec.kind != "hex":
        raise ValueError("input must carry hex grid metadata")
    if spec.mask is not None:
        raise ValueError("normalize_hex expects a full grid; extend masks first")
    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    flip = [False] * g.n

    def live_sign(a: int, b: int) -> int:
        s = g.sign(a, b)
        return -s if flip[a] != flip[b] else s

    for i in range(2, rows + 2):
        for j in range(1, cols + 1):
            if (i + j) % 2 == 0:
                continue
            cur = vid(i, j) if i <= rows else None
            up = vid(i - 1, j)
            upright = vid(i - 1, j + 1) if j < cols else None
            sv = live_sign(cur, up) if cur is not None else POS
            sh = live_sign(up, upright) if upright is not None else POS
            if sv == NEG and sh == NEG:
                flip[up] = not flip[up]
            elif sv == POS and sh == NEG:
                if cur is not None:
                    flip[cur] = not flip[cur]
                flip[up] = not flip[up]
            elif sv == NEG and sh == POS:
                flip[cur] = not flip[cur]
    switched = frozenset(v for v in range(g.n) if flip[v])
    return switch(g, switched), switched


def color_hex_reference(g: GridGraph) -> Homomorphism:
    """Oracle for :func:`signedgrids.colorers.color_hex`."""
    spec = g.grid
    if spec.mask is not None:
        full, restrict = fill_bounding(g)
        inner = color_hex_reference(full)
        return Homomorphism(tuple(inner.mapping[k] for k in restrict))

    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    normalized, switched = normalize_hex_reference(g)
    rho = rho_t4()
    target = rho.graph
    excluded = pstar21_excluded_pairs(rho)
    group_of = {0: (0, 3), 3: (0, 3), 1: (1, 2), 2: (1, 2)}
    phi = [-1] * g.n

    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            cur = vid(i, j)
            if (i + j) % 2 == 0:
                if i == 1:
                    cands = list(range(target.n))
                else:
                    up = vid(i - 1, j)
                    cands = compatible_colors_reference(
                        target, [(phi[up], normalized.sign(up, cur))]
                    )
                    if len(cands) < 3 or any(rho.twin(c) in cands for c in cands):
                        raise ColoringInvariantError(
                            f"single-constraint candidates degenerate at ({i},{j}): {cands}"
                        )
                if i >= 2 and j < cols:
                    diag = phi[vid(i - 1, j + 1)]
                    banned = group_of[rho.identity(diag)]
                    cands = [c for c in cands if rho.identity(c) not in banned]
                if not cands:
                    raise ColoringInvariantError(f"no candidate at ({i},{j})")
                phi[cur] = cands[0]
            else:
                constraints = []
                if i >= 2:
                    up = vid(i - 1, j)
                    s = normalized.sign(up, cur)
                    if s != POS:
                        raise ColoringInvariantError(
                            f"vertical scaffold edge above ({i},{j}) not positive"
                        )
                    constraints.append((phi[up], s))
                if j >= 2:
                    left = vid(i, j - 1)
                    s = normalized.sign(left, cur)
                    if s != POS:
                        raise ColoringInvariantError(
                            f"horizontal scaffold edge left of ({i},{j}) not positive"
                        )
                    constraints.append((phi[left], s))
                if len(constraints) == 2:
                    a, b = constraints[0][0], constraints[1][0]
                    if a == b or rho.twin(a) == b or frozenset({a, b}) in excluded:
                        raise ColoringInvariantError(
                            f"invalid color pair {a},{b} ahead of ({i},{j})"
                        )
                cands = compatible_colors_reference(target, constraints)
                if not cands:
                    raise ColoringInvariantError(f"no candidate at ({i},{j})")
                phi[cur] = cands[0]

    final = [rho.twin(c) if v in switched else c for v, c in enumerate(phi)]
    return Homomorphism(tuple(final))


def color_tri_reference(
    g: GridGraph,
) -> tuple[Homomorphism, tuple[tuple[frozenset[int], ...], ...]]:
    """Oracle for :func:`signedgrids.colorers.color_tri`.

    Returns the homomorphism and the rows of candidate sets as frozensets.
    """
    spec = g.grid
    if spec.mask is not None:
        full, restrict = fill_bounding(g)
        inner, trace = color_tri_reference(full)
        return Homomorphism(tuple(inner.mapping[k] for k in restrict)), trace

    rows, cols = spec.rows, spec.cols
    vid = lambda r, c: (r - 1) * cols + (c - 1)
    target = rho_sp9_plus().graph
    phi = [-1] * g.n
    trace_rows = []

    for r in range(1, rows + 1):
        sets: list[frozenset[int]] = []
        for c in range(1, cols + 1):
            cur = vid(r, c)
            constraints = []
            if r >= 2:
                up = vid(r - 1, c)
                constraints.append((phi[up], g.sign(up, cur)))
                if c < cols:
                    upright = vid(r - 1, c + 1)
                    constraints.append((phi[upright], g.sign(upright, cur)))
            cands = compatible_colors_reference(target, constraints)
            if c >= 2:
                left = vid(r, c - 1)
                s_row = g.sign(left, cur)
                prev = sets[-1]
                cands = [
                    t for t in cands if any(target.status(p, t) == s_row for p in prev)
                ]
            if len(cands) < 2:
                raise ColoringInvariantError(
                    f"candidate set at ({r},{c}) has {len(cands)} < 2 colors"
                )
            sets.append(frozenset(cands))
        trace_rows.append(tuple(sets))

        choice = [-1] * cols
        choice[cols - 1] = min(sets[cols - 1])
        for c in range(cols - 1, 0, -1):
            s_row = g.sign(vid(r, c), vid(r, c + 1))
            nxt = choice[c]
            feasible = [p for p in sorted(sets[c - 1]) if target.status(p, nxt) == s_row]
            if not feasible:
                raise ColoringInvariantError(
                    f"backward pass stuck at ({r},{c}); forward filter broken"
                )
            choice[c - 1] = feasible[0]
        for c in range(1, cols + 1):
            phi[vid(r, c)] = choice[c - 1]

    return Homomorphism(tuple(phi)), tuple(trace_rows)


def mask_members(mask: int) -> frozenset[int]:
    """The set bits of an int bitmask, as vertex ids."""
    return frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)


# ---------------------------------------------------------------------------
# Loader fuzzing: JSON documents with slots dropped, duplicated or retyped.
# ---------------------------------------------------------------------------

REPLACEMENTS = (None, [], {}, "x", 1.5, True, -1, 0, 7)


def _positions(value, holder, key):
    """Every (container, key) slot inside ``holder[key]``, itself included."""
    yield holder, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _positions(v, value, k)
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _positions(v, value, k)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three slots dropped, duplicated or retyped."""
    holder = {"root": copy.deepcopy(doc)}
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_positions(holder["root"], holder, "root"))
        container, key = draw(st.sampled_from(slots))
        value = container[key]
        op = draw(st.sampled_from(("drop", "duplicate", "retype", "listify")))
        if op == "drop" and container is not holder:
            del container[key]
        elif op == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
        elif op == "listify" and isinstance(value, dict):
            container[key] = list(value.values())
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return holder["root"]
