"""Signed-graph data model and standard target constructions.

A signed graph (equivalently a 2-edge-colored graph) is a simple undirected
graph whose edges carry a sign, +1 or -1.  This module provides the immutable
:class:`SignedGraph` value type, the switching operation, the antitwin
doubling :class:`AntitwinnedGraph` (made only from its base graph on ``n``
vertices: plus copy ``v``, minus copy ``v + n``), and the fixed small target
graphs (T4, the signed Paley graphs SP9 and SP5, and their universal-vertex
extensions) that the coloring algorithms map into.  A signed grid has its own
type, :class:`signedgrids.grids.SignedGrid`, whose ``graph()`` is a plain
:class:`SignedGraph`.

Vertex ids are dense integers ``0..n-1``.  Labels are cosmetic; every
algorithm operates on ids, and the target builders pin a documented label
order so results are reproducible bit for bit.

The package's immutable value classes (:class:`AntitwinnedGraph`,
``GridSpec``, ``SignedGrid``, ``Homomorphism``, ``CandidateTrace``,
``PropertyReport``) are slotted classes on one base,
:class:`FrozenValue`, not frozen dataclasses: ``dataclasses`` loads
``inspect`` and builds methods with ``exec``, about 10 ms of every process
that imports the package.  ``dataclasses.fields``, ``replace`` and
``asdict`` do not apply to them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache

POS = 1
NEG = -1
_EMPTY_ROW: dict[int, int] = {}  # the row of every isolated vertex; never written

__all__ = [
    "POS",
    "NEG",
    "SignedGraph",
    "AntitwinnedGraph",
    "sign_masks",
    "switch",
    "negate",
    "antitwin_double",
    "plus_universal",
    "build_T4",
    "build_SP9",
    "build_SP5",
    "sp9_plus",
    "sp5_plus",
    "rho_t4",
    "rho_sp9_plus",
]


def _check_sign(s: int) -> int:
    if type(s) is not int or (s != POS and s != NEG):  # exact type: True == 1, but is no sign
        raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
    return s


class SignedGraph:
    """Simple undirected graph with a +1/-1 sign on every edge.

    No loops and no parallel edges, and every vertex id and sign of type
    exactly ``int``.  An absent pair is a non-edge and imposes no
    constraint.  Instances are immutable after construction and may be
    shared freely across threads.

    A graph keeps three tables derived from it, each built on its first use
    and then returned on every later one: its :func:`sign_masks` table, its
    :func:`antitwin_double`, and the searches' plan of it
    (``signedgrids.hom._search_plan``; a grid keeps one too).  The tables
    are tuples or frozen values, so no caller can write into them.  Two
    threads that fill the same table at once build equal values and one of
    them is kept, so a racing first fill is benign.

    Attributes:
        n: Number of vertices.
        labels: Optional tuple of vertex labels (cosmetic only).
        adjacency: The row (neighbor -> sign) of each vertex that an edge
            touches; an isolated vertex has no key.  Treat as read-only.
    """

    __slots__ = ("n", "labels", "_edges", "adjacency", "_masks", "_double", "_plan")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: dict[int, dict[int, int]] = {}
        canon = []
        for u, v, s in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has a vertex id that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint out of range [0,{n})")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            _check_sign(s)
            if v in adj.setdefault(u, {}):
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u][v] = s
            adj.setdefault(v, {})[u] = s
            canon.append((u, v, s) if u < v else (v, u, s))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.n = n
        self.labels = labels
        self._edges = tuple(sorted(canon))
        self.adjacency = adj
        self._masks = self._double = self._plan = None  # the kept tables, built on first use

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as ``(u, v, sign)`` with ``u < v``, sorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, _EMPTY_ROW)

    def sign(self, u: int, v: int) -> int:
        """Sign of edge ``uv``; raises ``KeyError`` if the pair is a non-edge."""
        return self.adjacency[u][v]

    def status(self, u: int, v: int) -> int:
        """+1/-1 for an edge, 0 for a non-edge (or ``u == v``)."""
        return self.adjacency.get(u, _EMPTY_ROW).get(v, 0)

    def neighbors(self, v: int) -> dict[int, int]:
        """Mapping neighbor -> sign.  Treat as read-only."""
        return self.adjacency.get(v, _EMPTY_ROW)

    def degree(self, v: int) -> int:
        return len(self.adjacency.get(v, _EMPTY_ROW))

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, edges={len(self._edges)})"


def sign_masks(h: SignedGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Bit ``b`` of ``sign_masks(h)[s][a]`` is set iff ``h.status(a, b) == s``,
    for ``s`` of ``POS`` and of ``NEG`` (the last entry).  Entry 0, for a
    non-edge, is all ones in every row: a non-edge constrains nothing.
    Built on first use and kept on ``h``.
    """
    if h._masks is None:
        pos, neg = [0] * h.n, [0] * h.n
        for a, row in h.adjacency.items():
            for b, s in row.items():
                (pos if s == POS else neg)[a] |= 1 << b
        h._masks = (((1 << h.n) - 1,) * h.n, tuple(pos), tuple(neg))
    return h._masks


def switch(g: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Switch ``g`` at a vertex set: flip every edge with exactly one endpoint in it.

    The underlying graph and labels are unchanged.  Switching at the same
    set twice returns the original signature.
    """
    sw = set(vertices)
    for v in sw:
        if not (0 <= v < g.n):
            raise ValueError(f"switch vertex {v} out of range [0,{g.n})")
    edges = [
        (u, v, -s if (u in sw) != (v in sw) else s) for u, v, s in g.edges
    ]
    return SignedGraph(g.n, edges, labels=g.labels)


def negate(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every edge."""
    return SignedGraph(g.n, [(u, v, -s) for u, v, s in g.edges], labels=g.labels)


class FrozenValue:
    """Base of the immutable value classes: a frozen dataclass's equality,
    hash and ``repr``, over the ``_fields`` of a subclass's ``__slots__``,
    which its constructor sets once through :meth:`_set`.  Assignment raises
    ``AttributeError``.  ``pickle`` and ``copy`` restore the slots through
    :meth:`__setstate__`, not the constructor, so a value in a reference
    cycle (a base graph keeps its :func:`antitwin_double`) round-trips too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the slots, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # a slotted object's state: its __dict__ (or None) and its slots
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class AntitwinnedGraph(FrozenValue):
    """The antitwin doubling of a signed graph ``base`` on ``n`` vertices.

    Vertex ``v`` of ``base`` yields a plus copy ``v`` and a minus copy
    ``v + n`` in :attr:`graph`.  For every edge ``uv`` of ``base`` all four
    copy pairs are edges, with sign ``(copy of u) * (copy of v) * sign(uv)``
    where a plus copy counts +1 and a minus copy -1.  So the two copies of a
    vertex are antitwins: never adjacent, and joined to every neighbor of one
    by an edge of the opposite sign to the other.  The doubling is made only
    from its base, so it holds by construction; equality and hash are the
    base's.
    """

    __slots__ = ("base", "graph")
    _fields = ("base",)

    def __init__(self, base: SignedGraph):
        n = base.n
        edges = []
        for u, v, s in base.edges:
            edges.append((u, v, s))
            edges.append((u + n, v + n, s))
            edges.append((u, v + n, -s))
            edges.append((v, u + n, -s))
        labels = [f"{base.label(v)}+" for v in range(n)] + [f"{base.label(v)}-" for v in range(n)]
        self._set(base, SignedGraph(2 * n, edges, labels=labels))

    @property
    def n(self) -> int:
        return self.graph.n

    def twin(self, v: int) -> int:
        n = self.base.n
        return v + n if v < n else v - n

    def identity(self, v: int) -> int:
        """Canonical id of the antitwin pair containing ``v``: its plus copy."""
        return v % self.base.n


def antitwin_double(g: SignedGraph) -> AntitwinnedGraph:
    """Double ``g`` into its antitwinned extension (:class:`AntitwinnedGraph`).

    Built on first use and kept on ``g``, so every call returns that object.
    """
    if g._double is None:
        g._double = AntitwinnedGraph(g)
    return g._double


def plus_universal(g: SignedGraph) -> SignedGraph:
    """Add one universal vertex, positively adjacent to every original vertex."""
    n = g.n
    edges = list(g.edges) + [(v, n, POS) for v in range(n)]
    labels = [g.label(v) for v in range(n)] + ["inf"]
    return SignedGraph(n + 1, edges, labels=labels)


def build_T4() -> SignedGraph:
    """Complete graph on labels 1..4 with the single negative edge 1-4."""
    edges = []
    for u in range(4):
        for v in range(u + 1, 4):
            s = NEG if (u, v) == (0, 3) else POS
            edges.append((u, v, s))
    return SignedGraph(4, edges, labels=["1", "2", "3", "4"])


def build_SP9() -> SignedGraph:
    """Complete signed Paley graph on the nine-element field F3[x]/(x^2 + 1).

    Vertex ``a + 3b`` is the element ``a + bx``, so ids follow the label
    order 0,1,2,x,x+1,x+2,2x,2x+1,2x+2.  A pair is positive exactly when its
    difference is a nonzero square: as ``(a + bx)^2 = a^2 + 2b^2 + 2abx``,
    one of 1, 2, x and 2x, so the rows and columns of the ids' 3x3 layout
    are the all-positive triangles.
    """
    squares = {(a * a + 2 * b * b) % 3 + 3 * (2 * a * b % 3) for a in range(3) for b in range(3)} - {0}
    edges = []
    for u in range(9):
        for v in range(u + 1, 9):
            s = POS if (u - v) % 3 + 3 * ((u // 3 - v // 3) % 3) in squares else NEG
            edges.append((u, v, s))
    return SignedGraph(9, edges, labels=["0", "1", "2", "x", "x+1", "x+2", "2x", "2x+1", "2x+2"])


def build_SP5() -> SignedGraph:
    """Complete signed Paley graph on 0..4: positive iff the difference is 1 or 4 mod 5."""
    edges = []
    for u in range(5):
        for v in range(u + 1, 5):
            s = POS if (u - v) % 5 in (1, 4) else NEG
            edges.append((u, v, s))
    return SignedGraph(5, edges, labels=[str(v) for v in range(5)])


@cache
def sp9_plus() -> SignedGraph:
    return plus_universal(build_SP9())


@cache
def sp5_plus() -> SignedGraph:
    return plus_universal(build_SP5())


@cache
def rho_t4() -> AntitwinnedGraph:
    return antitwin_double(build_T4())


@cache
def rho_sp9_plus() -> AntitwinnedGraph:
    return antitwin_double(sp9_plus())
