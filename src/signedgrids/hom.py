"""Exact homomorphism search for 2-edge-colored and signed graphs.

Two notions of mapping are handled:

* an *ec* (edge-color-exact) homomorphism maps every edge to an edge of the
  same sign in the target;
* a *signed* homomorphism is an ec homomorphism achievable after switching
  some subset of the source vertices.  Equivalently the source admits an ec
  homomorphism to the antitwin doubling of the target, and that is exactly
  how :func:`find_signed_hom` computes one.

Both are witnessed by one :class:`Homomorphism` type, a mapping plus a switch
set; an ec witness has an empty switch set.

One verifier, :func:`verify_signed`, makes one pass over a source's edges,
its ``columns`` zipped: the tails, heads and signs that a
:class:`~signedgrids.core.SignedGraph` and a
:class:`~signedgrids.grids.SignedGrid` both keep, sorted.  It applies a
switch set by negating the sign of each edge with exactly one switched
end, and shares no code with the searches; :func:`verify_ec` is its check
with an empty switch set.  The searches read a source as it is too,
through its search plan (:func:`_search_plan`): the vertex order, the
component roots and each vertex's later neighbors with the signs of the
joining edges, built once from the same rows and kept on the source.
Each search only binds those signs to its target's sign masks.

The chromatic number of a signed graph is the order of its smallest target;
:func:`signed_chromatic_number` computes it exactly on small instances by
sweeping all complete signed targets of increasing order (restricting to
complete targets loses nothing because adding edges to a target never removes
homomorphisms), one per switching class (:func:`switching_classes`), since
every target of a class admits the same signed homomorphisms.  The class
targets of an order are built on its first sweep and kept for the life of
the process; every target keeps the tables the searches derive from it
(its antitwin doubling and its sign masks), and every source its search
plan, so repeated sweeps rebuild none of them.
:func:`canonical_complete_targets` lists one target per isomorphism class
instead.  Both mark whole orbits, all ``n!`` permutation images at once from
lane-packed ints, in a ``bytearray``: one byte per mask, ``2^(n(n-1)/2)``,
for the isomorphism classes, and one per normal form, ``2^((n-1)(n-2)/2)``,
for the switching classes.  A normal form has no negative pair at vertex
``n - 1`` and is the least mask of its switchings.  Both stop at order 7,
where the first array holds ``2^21`` bytes.  A class's least mask is the
least of its isomorphism classes too, so the sweep's witness is the first
admitting canonical target.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Sequence
from functools import cache
from itertools import permutations, repeat
from operator import setitem

from .core import NEG, POS, FrozenValue, SignedGraph, antitwin_double, sign_masks
from .core import switch  # unused here; perfbench/tracing.py patches signedgrids.hom.switch

__all__ = [
    "Homomorphism",
    "BudgetExceededError",
    "SearchBudget",
    "verify_ec",
    "verify_signed",
    "find_ec_hom",
    "find_signed_hom",
    "ec_to_signed",
    "signed_chromatic_number",
    "complete_signed_graph",
    "canonical_complete_targets",
    "switching_classes",
]


class BudgetExceededError(Exception):
    """A search ran out of its node budget; the answer is unknown, not 'none'."""


class SearchBudget:
    """Shared countdown of search nodes across one logical operation.

    :func:`find_ec_hom` counts its nodes in a local variable and writes
    ``remaining`` back once, when it returns or raises; once ``remaining``
    is below 0, the next node of any search raises.  A ``limit`` of a type
    other than ``int``, or below 0, raises ``ValueError``.
    """

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        if type(limit) is not int:  # exact type: True is a bool, and 2.5 would leave 0.5
            raise ValueError(f"budget {limit!r} is not an integer")
        if limit < 0:
            raise ValueError("budget must be non-negative")
        self.remaining = limit


class Homomorphism(FrozenValue):
    """A vertex mapping witness: switching the source at ``switch_set`` makes
    ``mapping`` send every source edge to a target edge of equal sign.

    An exact (ec) homomorphism is the case of an empty switch set.
    """

    __slots__ = _fields = ("mapping", "switch_set")

    def __init__(self, mapping: tuple[int, ...], switch_set: frozenset[int] = frozenset()):
        self._set(mapping, switch_set)


def verify_ec(g: SignedGraph | SignedGrid, h: SignedGraph, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` is an ec homomorphism from ``g`` to ``h``: the
    check of :func:`verify_signed` with an empty switch set.

    A mapping of the wrong length raises ``ValueError``; an entry outside
    ``range(h.n)`` gives False instead of aliasing a target vertex.
    """
    return verify_signed(g, h, Homomorphism(tuple(mapping)))


def verify_signed(g: SignedGraph | SignedGrid, h: SignedGraph, hom: Homomorphism) -> bool:
    """True iff ``hom`` is a signed homomorphism from ``g`` to ``h``.

    Each source edge's sign, flipped when exactly one endpoint is in the
    switch set, must be the sign of the image pair in ``h``; no switched copy
    of ``g`` is built.  A mapping of the wrong length raises ``ValueError``.
    A mapping entry outside ``range(h.n)`` or a switch entry outside
    ``range(g.n)`` gives False.
    """
    flipped = hom.switch_set
    if flipped and (min(flipped) < 0 or max(flipped) >= g.n):
        return False
    mapping = hom.mapping
    if len(mapping) != g.n:
        raise ValueError("mapping must be total on the source vertices")
    if mapping and (min(mapping) < 0 or max(mapping) >= h.n):
        return False
    rows = h.adjacency  # an isolated image has no row: a KeyError, a non-edge
    flip = [False] * g.n
    for v in flipped:
        flip[v] = True
    for u, v, s in zip(*g.columns):
        if flip[u] is not flip[v]:
            s = -s
        try:  # a subscript, not .get: cheaper per edge, and a miss is rare
            if rows[mapping[u]][mapping[v]] != s:
                return False
        except KeyError:  # the image pair is no edge of h
            return False
    return True


def _search_plan(g: SignedGraph | SignedGrid) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """The order in which the searches assign the vertices of ``g``, the
    root of each connected component, which opens its block of the order,
    and per vertex its later neighbors in the order, each with the sign of
    the joining edge.

    Breadth-first per component from a maximum-degree root, least id on
    ties, neighbors ascending.  Built on first use from the ``(u, v, s)``
    rows of ``g``, its zipped ``columns``, and kept on ``g``, which every
    target's search of a sweep shares.
    """
    if g._plan is not None:
        return g._plan
    n = g.n
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # the rows are sorted by (u, v), so each vertex's neighbors arrive ascending
    for u, v, s in zip(*g.columns):
        rows[u].append((v, s))
        rows[v].append((u, s))
    position = [-1] * n
    order: list[int] = []
    roots: list[int] = []
    for root in sorted(range(n), key=lambda v: -len(rows[v])):  # stable: least id on ties
        if position[root] >= 0:
            continue
        roots.append(root)
        k = position[root] = len(order)
        order.append(root)
        while k < len(order):  # the order's tail is the queue
            for w, _ in rows[order[k]]:
                if position[w] < 0:
                    position[w] = len(order)
                    order.append(w)
            k += 1
    later = tuple(tuple((w, s) for w, s in rows[v] if position[w] > position[v]) for v in range(n))
    return g._keep("_plan", (tuple(order), tuple(roots), later))


@cache  # built on the first search, not at import
def _lowest_bits() -> bytes:
    """The index of the lowest set bit of every 16-bit mask, by doubling:
    the upper half of a table over ``k + 1`` bits is its lower half with
    entry 0 replaced by ``k``."""
    table = b"\0"
    for k in range(16):
        table += bytes((k,)) + table[1:]
    return table


def find_ec_hom(
    g: SignedGraph | SignedGrid,
    h: SignedGraph,
    domains: Sequence[int] | None = None,
    budget: SearchBudget | None = None,
) -> Homomorphism | None:
    """Backtracking search for an ec homomorphism ``g -> h``.

    Vertices are assigned breadth-first from a maximum-degree root with
    ascending candidate order, and every assignment filters the candidate
    sets of the still-unassigned neighbors, so results are deterministic.
    Raises :class:`BudgetExceededError` if ``budget`` runs out; one node is
    one candidate tried, counted locally and written back to
    ``budget.remaining`` once, on return or raise.

    Candidate sets are int bitmasks over the target vertices, bit ``c`` set
    when target vertex ``c`` is a candidate, so filtering a neighbor's
    candidates is one ``&`` with an entry of the
    :func:`signedgrids.core.sign_masks` table of ``h``.  ``domains``
    optionally restricts the candidates of each source vertex, one such
    bitmask per vertex; a list of the wrong length, or an entry that is not
    an exact ``int`` in ``range(1 << h.n)``, raises ``ValueError``.
    Candidates are tried lowest bit first, which is the ascending order of a
    sorted candidate list, so witnesses and node counts are those of a
    search on sorted lists.  The lowest bit of a mask below ``2**16`` is
    read from a table of all 16-bit masks (:func:`_lowest_bits`), on any
    target; of a larger mask it is ``(rest & -rest).bit_length() - 1``.

    A candidate narrows the candidates of its later neighbors in a copy of
    the list of bitmasks, so backtracking has nothing to restore.  The copy
    is made once the first neighbor keeps a candidate, so a candidate
    refused at its first later neighbor costs no copy; at a vertex without
    later neighbors the list is handed on as it is, since no list is
    written after it is handed on, and a source without edges holds one
    list, not one per vertex.
    """
    n = g.n
    if domains is None:
        current = [(1 << h.n) - 1] * n
    else:
        if len(domains) != n:
            raise ValueError("domains must list candidates for every vertex")
        current = list(domains)
        if not set(map(type, current)) <= {int} or (current and (min(current) < 0 or max(current) >> h.n)):
            raise ValueError("domains must be int bitmasks over the target vertices")

    masks = sign_masks(h)
    lowest = _lowest_bits()
    order, _, signed = _search_plan(g)
    # per search vertex: its later neighbors, with the masks of the sign of
    # the joining edge
    later = [[(w, masks[s]) for w, s in row] for row in signed]

    assignment = [-1] * n
    if n == 0:
        return Homomorphism(())
    # without a budget, no search reaches the limit
    limit = budget.remaining if budget is not None else sys.maxsize
    spent = 0
    # depth-first with an explicit stack, so deep sources cannot exhaust the
    # interpreter's recursion limit; ``frames`` holds, per assigned search
    # position, its candidate masks and its untried candidates
    frames: list[tuple[list[int], int]] = []
    k, v = 0, order[0]
    nbrs, rest = later[v], current[v]
    try:
        while True:
            if not rest:
                if not frames:
                    return None
                current, rest = frames.pop()
                k -= 1
                v = order[k]
                nbrs = later[v]
                continue
            c = lowest[rest] if rest < 65536 else (rest & -rest).bit_length() - 1
            rest &= rest - 1
            spent += 1
            if spent > limit:
                raise BudgetExceededError("search node budget exhausted")
            narrowed = current
            for w, mask in nbrs:
                new = current[w] & mask[c]
                if not new:
                    break
                if narrowed is current:
                    narrowed = current[:]
                narrowed[w] = new
            else:
                assignment[v] = c
                k += 1
                if k == n:
                    return Homomorphism(tuple(assignment))
                frames.append((current, rest))
                current, v = narrowed, order[k]
                nbrs, rest = later[v], current[v]
    finally:
        if budget is not None:
            budget.remaining = limit - spent


def ec_to_signed(hom: Homomorphism, base_n: int) -> Homomorphism:
    """Project a witness into a doubled target down to one into its base.

    Vertices mapped into the minus copy (ids >= ``base_n``) join the switch
    set; images collapse to their identity in the base target.
    """
    minus = frozenset(v for v, m in enumerate(hom.mapping) if m >= base_n)
    return Homomorphism(tuple(m % base_n for m in hom.mapping), hom.switch_set ^ minus)


def find_signed_hom(
    g: SignedGraph | SignedGrid, h: SignedGraph, budget: SearchBudget | None = None
) -> Homomorphism | None:
    """Search for a signed homomorphism ``g -> h``.

    Runs the exact ec search into the antitwin doubling of ``h``; a source
    vertex mapped into the minus copy belongs to the switch witness, and its
    image projects to the corresponding vertex of ``h``.

    The root of each connected component of ``g`` (the first vertex of its
    block in the search order) may map only into the plus copy, ids below
    ``h.n``.  Swapping the plus and minus copies of all images on one
    component keeps every edge sign, so fixing roots loses no answer.  Each
    component's block is searched with plus copies tried first, so the first
    solution, the witness, already has plus roots and is unchanged; only the
    subtrees under minus roots, about half of a "no" answer, are skipped.
    Fixing any other vertex could change the witness.
    """
    rho = antitwin_double(h)
    domains = [(1 << rho.graph.n) - 1] * g.n
    for root in _search_plan(g)[1]:
        domains[root] = (1 << h.n) - 1
    found = find_ec_hom(g, rho.graph, domains=domains, budget=budget)
    if found is None:
        return None
    return ec_to_signed(found, h.n)


# ---------------------------------------------------------------------------
# Complete signed targets of a given order, and the exact chromatic number.
# ---------------------------------------------------------------------------


@cache  # one dict per order, shared by every caller: read it, never write it
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = k
            k += 1
    return idx


def complete_signed_graph(n: int, mask: int) -> SignedGraph:
    """Complete signed graph on ``n`` vertices from a signature bitmask.

    Pairs are ordered (0,1),(0,2),...,(0,n-1),(1,2),...; a set bit makes the
    pair negative.  Mask 0 is the all-positive complete graph.  A mask
    outside ``range(2^(n(n-1)/2))`` raises ``ValueError``.
    """
    idx = _pair_index(n)
    if not 0 <= mask < 1 << len(idx):
        raise ValueError(f"mask {mask} is outside range(2^{len(idx)}) for order {n}")
    edges = [(i, j, NEG if mask >> k & 1 else POS) for (i, j), k in idx.items()]
    return SignedGraph(n, edges)


def _orbit_minima(n: int, pairs: dict[tuple[int, int], int], image: dict[tuple[int, int], int]):
    """Yield the least mask over ``pairs`` of each orbit under the vertex
    permutations of order ``n``, in increasing order, each with the marking
    array once its orbit is marked.

    A permutation ``p`` sends the bit of pair ``(i, j)`` to the mask
    ``image[p[i], p[j]]`` and a mask to the XOR of its bits' images.  Lane
    ``p`` of ``lanes[k]``, 16 bits wide up to 16 pairs and 32 above, holds
    the image of pair ``k`` under the ``p``-th permutation, so the XOR of
    ``lanes[k]`` over a mask's set bits holds all its images.  One
    ``to_bytes`` and a C-level pass mark them, and ``bytearray.find`` jumps
    to the next unmarked mask.  ``n`` is 0 to 7.
    """
    if not 0 <= n <= 7:
        raise ValueError(f"complete targets are enumerated from order 0 up to order 7, not {n}")
    width, code = (2, "H") if len(pairs) <= 16 else (4, "I")
    entry = {key: mask.to_bytes(width, sys.byteorder) for key, mask in image.items()}
    perms = list(permutations(range(n)))
    lanes = [int.from_bytes(b"".join([entry[p[i], p[j]] for p in perms]), sys.byteorder) for i, j in pairs]
    size = len(perms) * width
    seen = bytearray(1 << len(pairs))
    sig = 0
    while sig >= 0:
        packed = 0
        for k in range(sig.bit_length()):
            if sig >> k & 1:
                packed ^= lanes[k]
        images = memoryview(packed.to_bytes(size, sys.byteorder)).cast(code)
        deque(map(setitem, repeat(seen), images, repeat(1)), 0)
        yield sig, seen
        sig = seen.find(0, sig + 1)


def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    """The bit of each pair of order ``n``, under both orientations."""
    return {key: 1 << k for (i, j), k in _pair_index(n).items() for key in ((i, j), (j, i))}


@cache
def canonical_complete_targets(n: int) -> tuple[int, ...]:
    """Signature masks of complete signed targets, one per isomorphism class.

    The representative of each class is the minimum mask over all vertex
    permutations (negation and switching are *not* factored out; differently
    switched targets are distinct): the first unmarked mask of a sweep in
    increasing order, whose orbit is then marked (:func:`_orbit_minima`).
    The marking array holds ``2^(n(n-1)/2)`` bytes, so ``n`` is at most 7;
    a negative ``n`` raises ``ValueError``.
    """
    return tuple(sig for sig, _ in _orbit_minima(n, _pair_index(n), _pair_bits(n)))


@cache  # computed on first use at each order, shared by every caller
def switching_classes(n: int) -> tuple[tuple[int, int], ...]:
    """``(least mask, class size)`` of each class of complete signed graphs
    of order ``n`` under switching and vertex permutation, in mask order.

    Switching at a vertex set flips the pairs with one end in it.  Switching
    a mask at the vertices of its negative pairs with ``n - 1`` gives its
    normal form, the least of its ``2^(n-1)`` switchings: every bit above
    pair ``(i, n - 1)`` joins two vertices above ``i``, so the least
    switching clears each ``(i, n - 1)`` in turn.  A normal form is a mask
    over the pairs of ``0..n-2``, and the normal form of its permutation
    images is linear in it: a pair sent to ``{a, n - 1}`` becomes the star
    of ``a`` among ``0..n-2``.  So a class is an orbit of normal forms,
    ``2^(n-1)`` masks each, and its least mask is the orbit's least normal
    form.  Every mask of a class admits the same signed homomorphisms, and a
    class's least mask is also the least of its isomorphism class, so each
    is one of :func:`canonical_complete_targets`.  ``n`` is 0 to 7.
    """
    pairs, image = _pair_index(n - 1), _pair_bits(n - 1)
    for a in range(n - 1):
        image[a, n - 1] = image[n - 1, a] = sum(bit for (i, _), bit in image.items() if i == a)
    classes = []
    unmarked = 1 << len(pairs)
    for sig, seen in _orbit_minima(n, pairs, image):
        left = seen.count(0)
        # pair (i, j) of 0..n-2 has bit k at order n - 1 and bit k + i at order n
        least = sum(1 << (k + i) for (i, _), k in pairs.items() if sig >> k & 1)
        classes.append((least, (unmarked - left) << max(n - 1, 0)))
        unmarked = left
    return tuple(classes)


@cache  # one tuple per order, shared by every sweep: each target keeps its tables
def _class_targets(order: int) -> tuple[SignedGraph, ...]:
    """The complete target of each :func:`switching_classes` least mask."""
    return tuple(complete_signed_graph(order, mask) for mask, _ in switching_classes(order))


def signed_chromatic_number(
    g: SignedGraph | SignedGrid, max_order: int, budget: SearchBudget | None = None
) -> tuple[int, SignedGraph, Homomorphism] | None:
    """Smallest target order admitting a signed homomorphism from ``g``.

    For each order ``1..max_order`` one target per switching class is tried,
    the least mask of each class (:func:`switching_classes`), in increasing
    mask order; the first hit is returned with its witness (order, target,
    homomorphism).  Every target of a class admits the same signed
    homomorphisms, and each class's least mask is a canonical target, so the
    first admitting class is also the first admitting canonical target.  The
    class targets of an order are built on its first sweep and then kept, with
    each target's doubling and sign masks, for every later sweep; the
    returned target is that kept graph.

    Returns None when no target of order up to ``max_order`` works, i.e. the
    chromatic number exceeds ``max_order``, and raises ``ValueError`` for a
    ``max_order`` below 1, which no graph's chromatic number can exceed, or
    of a type other than ``int``.
    Exact but exponential in the order; intended for ``max_order <= 6``.
    Targets are enumerated up to order 7, so a sweep that reaches order 8
    raises ``ValueError``.
    """
    if type(max_order) is not int:  # exact type: True would sweep order 1
        raise ValueError(f"max_order {max_order!r} is not an integer")
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    for order in range(1, max_order + 1):
        for h in _class_targets(order):
            found = find_signed_hom(g, h, budget=budget)
            if found is not None:
                return (order, h, found)
    return None
