"""Signed-graph data model and standard target constructions.

A signed graph (equivalently a 2-edge-colored graph) is a simple undirected
graph whose edges carry a sign, +1 or -1.  This module provides the immutable
:class:`SignedGraph` value type, the switching operation, the antitwin
doubling construction, and the fixed small target graphs (T4, the signed
Paley graphs SP9 and SP5, and their universal-vertex extensions) that the
coloring algorithms map into.  A signed grid has its own type,
:class:`signedgrids.grids.SignedGrid`, whose ``graph()`` is a plain
:class:`SignedGraph`.

Vertex ids are dense integers ``0..n-1``.  Labels are cosmetic; every
algorithm operates on ids, and the target builders pin a documented label
order so results are reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cache

POS = 1
NEG = -1

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
    "F9Element",
    "f9_elements",
    "f9_squares",
    "build_T4",
    "build_SP9",
    "build_SP5",
    "sp9_plus",
    "sp5_plus",
    "rho_t4",
    "rho_sp9_plus",
]


def _check_sign(s: int) -> int:
    if s != POS and s != NEG:
        raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
    return s


class SignedGraph:
    """Simple undirected graph with a +1/-1 sign on every edge.

    No loops and no parallel edges.  An absent pair is a non-edge and imposes
    no constraint.  Instances are immutable after construction and may be
    shared freely across threads.

    Attributes:
        n: Number of vertices.
        labels: Optional tuple of vertex labels (cosmetic only).
    """

    __slots__ = ("n", "labels", "_edges", "_adj")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        canon = []
        for u, v, s in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint out of range [0,{n})")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            _check_sign(s)
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u][v] = s
            adj[v][u] = s
            canon.append((u, v, s) if u < v else (v, u, s))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.n = n
        self.labels = labels
        self._edges = tuple(sorted(canon))
        self._adj = tuple(adj)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as ``(u, v, sign)`` with ``u < v``, sorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def sign(self, u: int, v: int) -> int:
        """Sign of edge ``uv``; raises ``KeyError`` if the pair is a non-edge."""
        return self._adj[u][v]

    def status(self, u: int, v: int) -> int:
        """+1/-1 for an edge, 0 for a non-edge (or ``u == v``)."""
        return self._adj[u].get(v, 0)

    def neighbors(self, v: int) -> dict[int, int]:
        """Mapping neighbor -> sign.  Treat as read-only."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

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


def sign_masks(h: SignedGraph) -> dict[int, list[int]]:
    """Bit ``b`` of ``sign_masks(h)[s][a]`` is set iff ``ab`` is an edge of sign ``s``.

    Built per call; nothing is cached.
    """
    masks = {POS: [0] * h.n, NEG: [0] * h.n}
    for a in range(h.n):
        for b, s in h._adj[a].items():
            masks[s][a] |= 1 << b
    return masks


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


@dataclass(frozen=True)
class AntitwinnedGraph:
    """A signed graph together with a fixpoint-free antitwin involution.

    ``antitwin[v]`` is the unique partner of ``v``: never adjacent to it, and
    joined to every neighbor of ``v`` by an edge of the opposite sign.  The
    constructor checks all of that and raises ``ValueError`` on violation.
    """

    graph: SignedGraph
    antitwin: tuple[int, ...]

    def __post_init__(self):
        g, at = self.graph, self.antitwin
        if len(at) != g.n or sorted(at) != list(range(g.n)):
            raise ValueError("antitwin map must be a permutation of the vertices")
        for v in range(g.n):
            if at[v] == v:
                raise ValueError(f"antitwin map has fixpoint {v}")
            if at[at[v]] != v:
                raise ValueError(f"antitwin map is not an involution at {v}")
            if g.has_edge(v, at[v]):
                raise ValueError(f"antitwins {v},{at[v]} must not be adjacent")
        for u, v, s in g.edges:
            if g.status(u, at[v]) != -s:
                raise ValueError(
                    f"edge ({u},{v}) is not mirrored with opposite sign at ({u},{at[v]})"
                )

    @property
    def n(self) -> int:
        return self.graph.n

    def twin(self, v: int) -> int:
        return self.antitwin[v]

    def identity(self, v: int) -> int:
        """Canonical id of the antitwin pair containing ``v``."""
        return min(v, self.antitwin[v])


def antitwin_double(g: SignedGraph) -> AntitwinnedGraph:
    """Double ``g`` into its antitwinned extension.

    Vertex ``v`` yields a plus copy ``v`` and a minus copy ``v + n``.  For
    every edge ``uv`` of ``g`` all four copy pairs are edges, with sign
    ``(copy of u) * (copy of v) * sign(uv)`` where a plus copy counts +1 and a
    minus copy -1.
    """
    n = g.n
    edges = []
    for u, v, s in g.edges:
        edges.append((u, v, s))
        edges.append((u + n, v + n, s))
        edges.append((u, v + n, -s))
        edges.append((v, u + n, -s))
    labels = [f"{g.label(v)}+" for v in range(n)] + [f"{g.label(v)}-" for v in range(n)]
    doubled = SignedGraph(2 * n, edges, labels=labels)
    at = tuple((v + n) % (2 * n) for v in range(2 * n))
    return AntitwinnedGraph(doubled, at)


def plus_universal(g: SignedGraph) -> SignedGraph:
    """Add one universal vertex, positively adjacent to every original vertex."""
    n = g.n
    edges = list(g.edges) + [(v, n, POS) for v in range(n)]
    labels = [g.label(v) for v in range(n)] + ["inf"]
    return SignedGraph(n + 1, edges, labels=labels)


# ---------------------------------------------------------------------------
# The field with nine elements, modeled as F3[x]/(x^2 + 1), i.e. x*x = 2.
# This model makes the nonzero squares come out as {1, 2, x, 2x}, so the
# positive part of SP9 is the two families of triangles (rows and columns of
# the 3x3 element layout) used throughout.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class F9Element:
    """Element ``a + b*x`` of the nine-element field, with ``a, b`` mod 3."""

    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a < 3 and 0 <= self.b < 3):
            raise ValueError("coefficients must already be reduced mod 3")

    def __add__(self, other: "F9Element") -> "F9Element":
        return F9Element((self.a + other.a) % 3, (self.b + other.b) % 3)

    def __sub__(self, other: "F9Element") -> "F9Element":
        return F9Element((self.a - other.a) % 3, (self.b - other.b) % 3)

    def __neg__(self) -> "F9Element":
        return F9Element(-self.a % 3, -self.b % 3)

    def __mul__(self, other: "F9Element") -> "F9Element":
        # (a + bx)(c + dx) = ac + 2bd + (ad + bc)x   since x*x = 2
        a, b, c, d = self.a, self.b, other.a, other.b
        return F9Element((a * c + 2 * b * d) % 3, (a * d + b * c) % 3)

    @property
    def index(self) -> int:
        """Position in the fixed label order 0,1,2,x,x+1,x+2,2x,2x+1,2x+2."""
        return self.a + 3 * self.b

    @classmethod
    def from_index(cls, i: int) -> "F9Element":
        return cls(i % 3, i // 3)

    @property
    def label(self) -> str:
        if self.b == 0:
            return str(self.a)
        xs = "x" if self.b == 1 else "2x"
        return xs if self.a == 0 else f"{xs}+{self.a}"


def f9_elements() -> tuple[F9Element, ...]:
    """All nine field elements in the fixed label order."""
    return tuple(F9Element.from_index(i) for i in range(9))


@cache
def f9_squares() -> frozenset[F9Element]:
    """The set of nonzero squares, computed by squaring every nonzero element."""
    zero = F9Element(0, 0)
    return frozenset(e * e for e in f9_elements() if e != zero)


def build_T4() -> SignedGraph:
    """Complete graph on labels 1..4 with the single negative edge 1-4."""
    edges = []
    for u in range(4):
        for v in range(u + 1, 4):
            s = NEG if (u, v) == (0, 3) else POS
            edges.append((u, v, s))
    return SignedGraph(4, edges, labels=["1", "2", "3", "4"])


def build_SP9() -> SignedGraph:
    """Complete signed Paley graph on the nine-element field.

    A pair is positive exactly when its difference is a nonzero square.
    Vertex ids follow the fixed label order 0,1,2,x,x+1,x+2,2x,2x+1,2x+2.
    """
    elems = f9_elements()
    squares = f9_squares()
    edges = []
    for u in range(9):
        for v in range(u + 1, 9):
            s = POS if (elems[u] - elems[v]) in squares else NEG
            edges.append((u, v, s))
    return SignedGraph(9, edges, labels=[e.label for e in elems])


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
