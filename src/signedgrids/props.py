"""Exhaustive verification of target-graph properties.

The coloring algorithms lean on extension properties of their targets: P(k,n)
says every ordered k-clique, for every prescribed sign vector, has at least n
common neighbors realizing it.  :func:`check_pkn` checks it by brute force,
in one walk over the ordered cliques that carries the witness masks of every
sign prefix, so tuples sharing a prefix share its ``&`` operations.

Sign-preserving maps are searched with iterated degree-pair refinement as
the pruning invariant: :func:`automorphisms` enumerates the group,
:func:`find_isomorphism` and :func:`check_antiautomorphic` stop at the first
map.  :func:`check_transitivity` never enumerates the group: it closes each
orbit under the automorphisms found so far, and searches for one more,
pinned to the tuple to reach, only for a tuple outside that closure.  On
ρ(SP9+), whose group has 1,440 elements, ``props --target rhoSP9plus`` takes
0.02–0.04 s in-process against 0.23 s by enumeration (2 cores, Python
3.11).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product

from .core import AntitwinnedGraph, NEG, POS, FrozenValue, SignedGraph, negate, rho_t4, sign_masks

__all__ = [
    "PropertyReport",
    "check_pkn",
    "pstar21_excluded_pairs",
    "check_pstar21",
    "automorphisms",
    "find_isomorphism",
    "check_transitivity",
    "check_antiautomorphic",
]


class PropertyReport(FrozenValue):
    """Outcome of an exhaustive property check.

    ``counterexamples`` is nonempty exactly when ``holds`` is false; its entry
    shape depends on the property (documented per check).
    """

    __slots__ = _fields = ("name", "holds", "counterexamples")

    def __init__(self, name: str, holds: bool, counterexamples: tuple = ()):
        if holds != (len(counterexamples) == 0):
            raise ValueError("counterexamples must be nonempty iff the property fails")
        self._set(name, holds, counterexamples)


def _ordered_cliques(g: SignedGraph, k: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each ordered tuple of k distinct, pairwise adjacent vertices, in
    lexicographic order, with the witness mask of every sign vector in
    ``product((POS, NEG), repeat=k)`` order: the vertices adjacent to the
    whole tuple with those signs."""
    everyone = (1 << g.n) - 1
    return _extend_clique(g, k, sign_masks(g), everyone, (), [everyone])


def _extend_clique(
    g: SignedGraph, k: int, table: tuple, common: int, tup: tuple[int, ...], witnesses: list[int]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """:func:`_ordered_cliques` from ``tup``, whose common neighbors are
    ``common`` and whose sign vectors have the masks ``witnesses``.

    Adding a vertex splits every mask in two, one ``&`` each, so tuples
    sharing a prefix share its work.  A module-level generator rather than
    a self-recursive closure, whose cell would tie it into a reference
    cycle on every call.
    """
    if len(tup) == k:
        yield tup, witnesses
        return
    pos, neg = table[POS], table[NEG]
    for v in range(g.n):
        if common >> v & 1:
            p, q = pos[v], neg[v]
            split = [m & r for m in witnesses for r in (p, q)]
            yield from _extend_clique(g, k, table, common & (p | q), tup + (v,), split)


def check_pkn(g: SignedGraph, k: int, n: int) -> PropertyReport:
    """Check extension property P(k, n) exhaustively.

    Every ordered k-tuple inducing a clique is tried against all 2^k sign
    vectors; the property holds when each combination has at least ``n``
    vertices adjacent to the whole tuple with the prescribed signs.
    Counterexample entries are ``(tuple, sign_vector, achieved_count)``, by
    tuple in lexicographic order and then by sign vector in ``product((POS,
    NEG), repeat=k)`` order.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    alphas = list(product((POS, NEG), repeat=k))
    bad = []
    # no vertex is its own neighbor, so the tuple is never among its witnesses
    for tup, witnesses in _ordered_cliques(g, k):
        for alpha, mask in zip(alphas, witnesses):
            count = mask.bit_count()
            if count < n:
                bad.append((tup, alpha, count))
    return PropertyReport(f"P({k},{n})", not bad, tuple(bad))


def pstar21_excluded_pairs(atg: AntitwinnedGraph) -> frozenset[frozenset[int]]:
    """The four pairs exempt from the weak common-positive-neighbor property.

    Defined for the doubled T4 target only: for each of the identity groups
    {1,4} and {2,3} of T4's labels, the two mixed-copy vertex pairs are exempt.
    """
    if atg != rho_t4():
        raise ValueError("excluded pairs are defined for the doubled T4 target")
    # the minus copy of the first id with the plus copy of the second:
    # 1-4+, 4-1+, 2-3+ and 3-2+
    return frozenset(frozenset({atg.twin(a), b}) for a, b in ((0, 3), (3, 0), (1, 2), (2, 1)))


def check_pstar21(atg: AntitwinnedGraph) -> PropertyReport:
    """Weak pair property of the doubled T4 target.

    Every pair of distinct, non-antitwin vertices outside the four excluded
    pairs must have a common positive neighbor.  Counterexample entries are
    ``((u, v), None, 0)``.
    """
    if not isinstance(atg, AntitwinnedGraph):
        raise TypeError("input must be an AntitwinnedGraph")
    g = atg.graph
    excluded = pstar21_excluded_pairs(atg)
    pos = sign_masks(g)[POS]
    bad = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if atg.twin(u) == v or frozenset({u, v}) in excluded:
                continue
            if not pos[u] & pos[v]:
                bad.append(((u, v), None, 0))
    return PropertyReport("P*(2,1)", not bad, tuple(bad))


# ---------------------------------------------------------------------------
# Automorphisms and isomorphisms of signed graphs.
# ---------------------------------------------------------------------------


def _refined_colors(graphs: Sequence[SignedGraph]) -> list[tuple[int, ...]]:
    """Iterated (positive-degree, negative-degree) refinement to a fixpoint.

    All graphs share one color dictionary so classes are comparable across
    them (needed for isomorphism search).  A signed degree is the popcount
    of a :func:`signedgrids.core.sign_masks` entry.
    """
    colorings = [
        tuple((m[POS][v].bit_count(), m[NEG][v].bit_count()) for v in range(g.n))
        for g, m in zip(graphs, map(sign_masks, graphs))
    ]
    key_ids: dict = {}
    colorings = [
        tuple(key_ids.setdefault(c, len(key_ids)) for c in cols) for cols in colorings
    ]
    while True:
        key_ids = {}
        new = []
        for g, cols in zip(graphs, colorings):
            sigs = []
            for v in range(g.n):
                nbr_profile = sorted((s, cols[u]) for u, s in g.neighbors(v).items())
                sigs.append((cols[v], tuple(nbr_profile)))
            new.append(tuple(key_ids.setdefault(c, len(key_ids)) for c in sigs))
        if new == colorings:
            return list(colorings)
        colorings = new


def _map_tables(g1: SignedGraph, g2: SignedGraph):
    """Per vertex of ``g1``, the vertices of ``g2`` of its refined color, and
    both graphs' status rows; None when no bijection keeps the colors."""
    if g1.n != g2.n:
        return None
    n = g1.n
    cols1, cols2 = _refined_colors([g1, g2])
    if sorted(cols1) != sorted(cols2):
        return None
    stat1 = [[g1.status(u, v) for v in range(n)] for u in range(n)]
    stat2 = [[g2.status(u, v) for v in range(n)] for u in range(n)]
    candidates = [[w for w in range(n) if cols2[w] == cols1[v]] for v in range(n)]
    return candidates, stat1, stat2


def _signed_maps(g1: SignedGraph, g2: SignedGraph) -> Iterator[tuple[int, ...]]:
    """All bijections g1 -> g2 preserving edge signs and non-edges."""
    tables = _map_tables(g1, g2)
    if tables is None:
        return
    candidates, stat1, stat2 = tables
    yield from _extend_map(0, [-1] * g1.n, [False] * g1.n, candidates, stat1, stat2)


def _extend_map(
    v: int,
    image: list[int],
    used: list[bool],
    candidates: list[list[int]],
    stat1: list[list[int]],
    stat2: list[list[int]],
) -> Iterator[tuple[int, ...]]:
    """Every completion of the partial bijection ``image`` (vertices below
    ``v`` assigned) that keeps the status rows ``stat1`` in ``stat2``.

    A module-level generator, not a self-recursive closure, so that a call
    leaves no reference cycle behind.
    """
    if v == len(image):
        yield tuple(image)
        return
    row = stat1[v]
    for w in candidates[v]:
        if used[w]:
            continue
        roww = stat2[w]
        if all(roww[image[u]] == row[u] for u in range(v)):
            image[v] = w
            used[w] = True
            yield from _extend_map(v + 1, image, used, candidates, stat1, stat2)
            used[w] = False
            image[v] = -1


def automorphisms(g: SignedGraph) -> Iterator[tuple[int, ...]]:
    """Yield every sign-preserving vertex permutation of ``g``.

    Signs of edges and non-adjacency are both preserved.  Intended for small
    graphs (around 24 vertices or fewer).
    """
    return _signed_maps(g, g)


def find_isomorphism(g1: SignedGraph, g2: SignedGraph) -> tuple[int, ...] | None:
    """A sign-preserving isomorphism ``g1 -> g2``, or None."""
    for m in _signed_maps(g1, g2):
        return m
    return None


def _orbit(seed: tuple[int, ...], generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The images of ``seed`` under the group the permutations generate."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        tup = frontier.pop()
        for perm in generators:
            image = tuple([perm[v] for v in tup])
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def check_transitivity(g: SignedGraph, n: int) -> PropertyReport:
    """Transitivity on ordered signed n-cliques (n=1: vertices, n=2: edges).

    For every sign pattern, the automorphism group must act transitively on
    the ordered n-cliques realizing it.  Counterexample entries are
    ``(tuple, pattern, 0)`` for tuples outside the orbit of their pattern's
    first representative, by pattern in sorted order and then by tuple in
    lexicographic order.

    The group is never enumerated.  Each pattern's orbit is first closed
    under the automorphisms found so far; for a tuple outside it, a search
    pinned to carry the representative onto the tuple stops at its first
    automorphism, which joins the generators and grows the orbit, or finds
    none, and the tuple is a counterexample.  A tuple whose refined colors
    differ from the representative's is a counterexample without a search.
    """
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for tup, _ in _ordered_cliques(g, n):
        pattern = tuple(
            g.sign(tup[i], tup[j]) for i in range(n) for j in range(i + 1, n)
        )
        groups.setdefault(pattern, []).append(tup)
    candidates, stat, _ = _map_tables(g, g)
    generators: list[tuple[int, ...]] = []
    bad = []
    for pattern, tuples in sorted(groups.items()):
        seed = tuples[0]
        orbit = _orbit(seed, generators)
        for tup in tuples:
            if tup in orbit:
                continue
            # refined colors are kept by every automorphism, so a tuple of
            # other colors than the seed's needs no search
            if not all(w in candidates[v] for v, w in zip(seed, tup)):
                bad.append((tup, pattern, 0))
                continue
            pinned = candidates[:]
            for v, w in zip(seed, tup):
                pinned[v] = [w]
            maps = _extend_map(0, [-1] * g.n, [False] * g.n, pinned, stat, stat)
            perm = next(maps, None)
            maps.close()
            if perm is None:
                bad.append((tup, pattern, 0))
            else:
                generators.append(perm)
                orbit = _orbit(seed, generators)
    names = {1: "vertex-transitive", 2: "edge-transitive"}
    return PropertyReport(names.get(n, f"K{n}-transitive"), not bad, tuple(bad))


def check_antiautomorphic(g: SignedGraph) -> tuple[int, ...] | None:
    """A sign-reversing self-isomorphism (isomorphism onto the negation), or None."""
    return find_isomorphism(g, negate(g))
