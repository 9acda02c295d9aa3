"""Shared test utilities: random instances and brute-force oracles."""

from __future__ import annotations

import copy
import random
from collections import Counter, deque
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from signedgrids import (
    NEG,
    POS,
    GridSpec,
    SignedGraph,
    SignedGrid,
    antitwin_double,
    make_grid,
    rho_t4,
    sign_masks,
    switch,
    verify_ec,
)
from signedgrids.colorers import ColoringInvariantError
from signedgrids.graphio import grid_from_dict
from signedgrids.hom import (
    BudgetExceededError,
    Homomorphism,
    SearchBudget,
    canonical_complete_targets,
    complete_signed_graph,
    ec_to_signed,
    find_ec_hom,
    find_signed_hom,
)
from signedgrids.props import PropertyReport, automorphisms, pstar21_excluded_pairs


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
    domains = [1 << m | 1 << (m + h.n) for m in mapping]
    found = find_ec_hom(g, rho.graph, domains=domains, budget=budget)
    if found is None:
        return None
    return ec_to_signed(found, h.n).switch_set


def f9_product(u: int, v: int) -> int:
    """Product in F3[x]/(x^2 + 1) of SP9 vertices ``u`` and ``v``, where
    vertex ``a + 3b`` is the element ``a + bx``:
    ``(a + bx)(c + dx) = ac + 2bd + (ad + bc)x``, since ``x*x = 2``."""
    a, b, c, d = u % 3, u // 3, v % 3, v // 3
    return (a * c + 2 * b * d) % 3 + 3 * ((a * d + b * c) % 3)


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


# ---------------------------------------------------------------------------
# Oracles for the tables a graph keeps: each is built afresh from the
# graph's adjacency on every call and reads no kept slot.
# ---------------------------------------------------------------------------


def sign_masks_reference(h: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """Oracle for ``sign_masks``: bit ``b`` of row ``a`` of entry ``s`` is
    set iff the adjacency gives ``ab`` sign ``s``, one pair at a time; every
    bit of entry 0, a non-edge, is set."""
    table = {s: [0] * h.n for s in (POS, NEG)}
    for a in range(h.n):
        for b in range(h.n):
            s = h.adjacency.get(a, {}).get(b, 0)
            if s:
                table[s][a] |= 1 << b
    return (((1 << h.n) - 1,) * h.n, tuple(table[POS]), tuple(table[NEG]))


def antitwin_double_reference(h: SignedGraph) -> SignedGraph:
    """Oracle for ``antitwin_double(h).graph``: the four copy pairs of each
    adjacency entry, signed by the copies, with the doubling's labels."""
    n = h.n
    edges = []
    for u, row in h.adjacency.items():
        for v, s in row.items():
            if u < v:
                edges += [(u, v, s), (u + n, v + n, s), (u, v + n, -s), (v, u + n, -s)]
    labels = [f"{h.label(v)}{side}" for side in "+-" for v in range(n)]
    return SignedGraph(2 * n, edges, labels=labels)


def search_order_reference(g: SignedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Oracle for the order and roots of ``hom._search_plan``: breadth-first
    over the adjacency, neighbors in ascending order, from the unvisited
    vertex of largest degree (least id on ties) per component."""
    rows = g.adjacency
    order: list[int] = []
    roots: list[int] = []
    for root in sorted(range(g.n), key=lambda v: (-len(rows.get(v, ())), v)):
        if root in order:
            continue
        roots.append(root)
        order.append(root)
        queue = deque([root])
        while queue:
            for w in sorted(rows.get(queue.popleft(), ())):
                if w not in order:
                    order.append(w)
                    queue.append(w)
    return tuple(order), tuple(roots)


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

    order, _ = search_order_reference(g)
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
            if budget is not None:  # one node per candidate, counted on the budget itself
                budget.remaining -= 1
                if budget.remaining < 0:
                    raise BudgetExceededError("search node budget exhausted")
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
# Oracles for the property checks: every tuple against every sign vector,
# and orbits from the whole automorphism group.
# ---------------------------------------------------------------------------


def ordered_cliques_reference(g: SignedGraph, k: int) -> list[tuple[int, ...]]:
    """Every ordered k-tuple of distinct, pairwise adjacent vertices, in
    lexicographic order: the k-permutations that pass a pair check."""
    return [t for t in permutations(range(g.n), k) if all(g.has_edge(a, b) for a, b in combinations(t, 2))]


def check_pkn_reference(g: SignedGraph, k: int, n: int) -> PropertyReport:
    """Oracle for ``check_pkn``: each ordered k-clique and each sign vector
    on its own, the witnesses narrowed one vertex at a time."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    masks = sign_masks(g)
    everyone = (1 << g.n) - 1
    bad = []
    for tup in ordered_cliques_reference(g, k):
        for alpha in product((POS, NEG), repeat=k):
            witnesses = everyone
            for v, a in zip(tup, alpha):
                witnesses &= masks[a][v]
                if not witnesses:
                    break
            count = witnesses.bit_count()
            if count < n:
                bad.append((tup, alpha, count))
    return PropertyReport(f"P({k},{n})", not bad, tuple(bad))


def check_transitivity_reference(g: SignedGraph, n: int) -> PropertyReport:
    """Oracle for ``check_transitivity``: every automorphism enumerated,
    and each pattern's orbit as the images of its first tuple under all
    of them."""
    autos = list(automorphisms(g))
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for tup in ordered_cliques_reference(g, n):
        pattern = tuple(
            g.sign(tup[i], tup[j]) for i in range(n) for j in range(i + 1, n)
        )
        groups.setdefault(pattern, []).append(tup)
    bad = []
    for pattern, tuples in sorted(groups.items()):
        seed = tuples[0]
        orbit = {tuple(perm[v] for v in seed) for perm in autos}
        for tup in tuples:
            if tup not in orbit:
                bad.append((tup, pattern, 0))
    names = {1: "vertex-transitive", 2: "edge-transitive"}
    return PropertyReport(names.get(n, f"K{n}-transitive"), not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Oracles for the complete targets: masks over the pairs (0,1), (0,2), ...,
# (0,n-1), (1,2), ..., a set bit a negative pair, with no lane packing.
# ---------------------------------------------------------------------------


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(combinations(range(n), 2))}


def all_complete_targets(n: int):
    """All ``2^(n(n-1)/2)`` complete signed graphs on ``n`` vertices."""
    for mask in range(1 << len(_pair_bits(n))):
        yield complete_signed_graph(n, mask)


def canonical_complete_targets_reference(n: int) -> tuple[int, ...]:
    """Oracle for ``canonical_complete_targets``: masks swept in increasing
    order, each unmarked one a representative whose orbit is marked one
    permutation and one bit at a time."""
    idx = _pair_bits(n)
    m = len(idx)
    perm_maps = []
    for perm in permutations(range(n)):
        dst = [0] * m
        for (i, j), k in idx.items():
            a, b = perm[i], perm[j]
            dst[k] = idx[(a, b) if a < b else (b, a)]
        perm_maps.append(tuple(dst))
    seen = bytearray(1 << m)
    reps = []
    for sig in range(1 << m):
        if seen[sig]:
            continue
        reps.append(sig)
        for dst in perm_maps:
            t = 0
            rest = sig
            while rest:
                low = rest & -rest
                t |= 1 << dst[low.bit_length() - 1]
                rest ^= low
            seen[t] = 1
    return tuple(reps)


def switching_classes_reference(n: int) -> list[tuple[int, int]]:
    """Oracle for ``switching_classes``: ``(least mask, size)`` of each class
    of :func:`switching_class_roots_reference`, in mask order."""
    return sorted(Counter(switching_class_roots_reference(n)).items())


def switching_class_roots_reference(n: int) -> list[int]:
    """The least mask of each order-``n`` mask's switching class, by a
    union-find over every mask joined along the group's generators, the
    adjacent transpositions and the single-vertex switches.  A root is
    always the least mask of its set."""
    idx = _pair_bits(n)
    masks = range(1 << len(idx))
    parent = list(masks)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    moves = []
    for i in range(n - 1):  # swap i and i + 1: where each pair's bit goes
        swap = {i: i + 1, i + 1: i}
        dst = [idx[tuple(sorted((swap.get(a, a), swap.get(b, b))))] for a, b in idx]
        image = [0] * len(masks)
        for mask in masks[1:]:
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << dst[low.bit_length() - 1]
        moves.append(image.__getitem__)
    for v in range(n):  # switch v: negate the pairs at v
        moves.append(sum(1 << k for pair, k in idx.items() if v in pair).__xor__)
    for mask in masks:
        for move in moves:
            a, b = find(mask), find(move(mask))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return list(map(find, masks))


def signed_chromatic_number_reference(
    g: SignedGraph | SignedGrid, max_order: int, budget: SearchBudget | None = None
) -> tuple[int, SignedGraph, Homomorphism] | None:
    """Oracle for ``signed_chromatic_number``: every canonical target of
    each order in increasing mask order, none skipped for its switching
    class; the first that admits a signed homomorphism is returned."""
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if isinstance(g, SignedGrid):
        g = g.graph()
    for order in range(1, max_order + 1):
        for mask in canonical_complete_targets(order):
            h = complete_signed_graph(order, mask)
            found = find_signed_hom(g, h, budget=budget)
            if found is not None:
                return (order, h, found)
    return None


def switching_class_grid(spec: GridSpec, bits: int, switched: Iterable) -> SignedGrid:
    """A grid of switching class ``bits``, switched at the cells ``switched``.

    The edges of a spanning tree, grown in edge order, are positive before
    the switch; the ``k``-th other edge is negative when bit ``k`` of
    ``bits`` is set.  On a connected grid with ``V`` cells and ``E`` edges,
    the ``2^(E - V + 1)`` values of ``bits`` give its switching classes, one
    each.
    """
    parent = {c: c for c in spec.cells()}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    switched = set(switched)
    signature = {}
    k = 0
    for a, b in spec.edges():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            s = POS
        else:
            s = NEG if bits >> k & 1 else POS
            k += 1
        signature[a, b] = -s if (a in switched) != (b in switched) else s
    return make_grid(spec, signature)


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
    """The paper's hex colorer (normal form, positive scaffold, P*(2,1)):
    a second oracle for :func:`signedgrids.colorers.color_hex`, whose maps
    differ from it but verify on the same grids."""
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


def color_rows_reference(
    g: GridGraph, target: SignedGraph, floor: int
) -> tuple[Homomorphism, tuple[tuple[frozenset[int], ...], ...]]:
    """Oracle for the row pass of :mod:`signedgrids.colorers`: ``color_hex``
    is ``(g, rho_t4().graph, 1)`` and ``color_tri`` is
    ``(g, rho_sp9_plus().graph, 2)``.  A pair the grid does not join
    (``status`` 0) constrains nothing.

    Returns the homomorphism and the rows of candidate sets as frozensets.
    """
    spec = g.grid
    if spec.mask is not None:
        full, restrict = fill_bounding(g)
        inner, trace = color_rows_reference(full, target, floor)
        return Homomorphism(tuple(inner.mapping[k] for k in restrict)), trace

    rows, cols = spec.rows, spec.cols
    vid = lambda r, c: (r - 1) * cols + (c - 1)
    phi = [-1] * g.n
    trace_rows = []

    for r in range(1, rows + 1):
        sets: list[frozenset[int]] = []
        for c in range(1, cols + 1):
            cur = vid(r, c)
            constraints = []
            if r >= 2:
                above = [vid(r - 1, c)] + ([vid(r - 1, c + 1)] if c < cols else [])
                constraints = [(phi[u], g.status(u, cur)) for u in above if g.status(u, cur)]
            cands = compatible_colors_reference(target, constraints)
            s_row = g.status(vid(r, c - 1), cur) if c >= 2 else 0
            if s_row:
                cands = [t for t in cands if any(target.status(p, t) == s_row for p in sets[-1])]
            if len(cands) < floor:
                raise ColoringInvariantError(
                    f"candidate set at ({r},{c}) has {len(cands)} < {floor} colors"
                )
            sets.append(frozenset(cands))
        trace_rows.append(tuple(sets))

        choice = [-1] * cols
        choice[cols - 1] = min(sets[cols - 1])
        for c in range(cols - 1, 0, -1):
            s_row = g.status(vid(r, c), vid(r, c + 1))
            nxt = choice[c]
            feasible = [
                p for p in sorted(sets[c - 1]) if s_row == 0 or target.status(p, nxt) == s_row
            ]
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


def certifies(graph_doc, cert_doc) -> bool:
    """Oracle for ``verify`` from the definition, on the JSON it reads:
    switch the source, map each edge, compare its sign with its image's."""
    g = graph_doc["graph"] if isinstance(graph_doc, dict) and "graph" in graph_doc else graph_doc
    c = cert_doc["certificate"] if isinstance(cert_doc, dict) and "certificate" in cert_doc else cert_doc
    mapping, h = c["mapping"], c["target"]
    switched = set() if c.get("kind") == "ec" else set(c.get("switch", []))  # ec: no switch set
    if len(mapping) != g["n"] or not set(mapping) <= set(range(h["n"])) or not switched <= set(range(g["n"])):
        return False
    image = {(a, b): t for a, b, t in h["edges"]} | {(b, a): t for a, b, t in h["edges"]}
    switch = {v: -1 if v in switched else 1 for v in range(g["n"])}
    return all(image.get((mapping[u], mapping[v])) == switch[u] * s * switch[v] for u, v, s in g["edges"])


def single_edits(cert: dict) -> list[dict]:
    """``cert`` with one edit each: every mapping entry set to every other
    target vertex, every switch membership toggled, every target edge sign
    flipped."""
    mapping, switched, target = cert["mapping"], set(cert.get("switch", [])), cert["target"]
    out = [
        dict(cert, mapping=mapping[:v] + [y] + mapping[v + 1 :])
        for v, x in enumerate(mapping)
        for y in range(target["n"])
        if y != x
    ]
    out += [dict(cert, switch=sorted(switched ^ {v})) for v in range(len(mapping))]
    edges = target["edges"]
    out += [
        dict(cert, target=dict(target, edges=edges[:k] + [[a, b, -t]] + edges[k + 1 :]))
        for k, (a, b, t) in enumerate(edges)
    ]
    return out


def random_edits(cert: dict, rng: random.Random, count: int) -> dict:
    """``cert`` after ``count`` edits of the kinds :func:`single_edits`
    makes, drawn from ``rng``."""
    cert = copy.deepcopy(cert)
    mapping, switched, edges = cert["mapping"], set(cert.get("switch", [])), cert["target"]["edges"]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            v = rng.randrange(len(mapping))
            mapping[v] = rng.choice([y for y in range(cert["target"]["n"]) if y != mapping[v]])
        elif kind == 1:
            switched ^= {rng.randrange(len(mapping))}
        else:
            edges[rng.randrange(len(edges))][2] *= -1
    cert["switch"] = sorted(switched)
    return cert
