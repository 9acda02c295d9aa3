"""Shared test utilities: random instances and brute-force oracles."""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import combinations, product

from hypothesis import strategies as st

from signedgrids import SignedGraph, switch, verify_ec
from signedgrids.hom import Homomorphism, SearchBudget, _search_order, find_ec_hom


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
