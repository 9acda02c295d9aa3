"""Hexagonal and triangular grid generators and structural queries.

Grid cells are addressed by 1-based coordinates ``(i, j)`` with ``i`` the row
and ``j`` the column; cell ``(i, j)`` of an unmasked grid becomes vertex
``(i-1)*cols + (j-1)``.  A mask restricts the grid to the induced subgraph on
the retained cells (reindexed in row-major order).

Adjacency:

* hex (brick wall): vertical edges ``(i,j)-(i+1,j)`` everywhere; horizontal
  edges ``(i,j)-(i,j+1)`` exactly when ``i+j`` is even.  Interior degree 3.
* tri (parallelogram): row edges ``(i,j)-(i,j+1)``; cross edges
  ``(i,j)-(i+1,j)`` and ``(i,j)-(i+1,j-1)``, i.e. a vertex is adjacent to the
  cells directly below and below-left, so row ``i`` sees columns ``j`` and
  ``j+1`` of the row above.  Interior degree 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import NEG, POS, SignedGraph

Cell = tuple[int, int]
CellEdge = tuple[Cell, Cell]

__all__ = [
    "GridSpec",
    "make_grid",
    "random_signature",
    "enumerate_c4",
    "cycle_sign",
    "is_unbalanced",
    "all_c4_unbalanced_grid",
    "unbalanced_wheel7",
    "unbalanced_c6",
]


@dataclass(frozen=True)
class GridSpec:
    """Shape of a grid: kind (``"hex"`` or ``"tri"``), dimensions, optional mask."""

    kind: str
    rows: int
    cols: int
    mask: frozenset[Cell] | None = None

    def __post_init__(self):
        if self.kind not in ("hex", "tri"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.mask is not None:
            object.__setattr__(self, "mask", frozenset(self.mask))
            for i, j in self.mask:
                if not (1 <= i <= self.rows and 1 <= j <= self.cols):
                    raise ValueError(f"mask cell ({i},{j}) outside the grid")

    def cells(self) -> tuple[Cell, ...]:
        """Retained cells in row-major order."""
        if self.mask is None:
            return tuple(
                (i, j) for i in range(1, self.rows + 1) for j in range(1, self.cols + 1)
            )
        return tuple(sorted(self.mask))

    def contains(self, cell: Cell) -> bool:
        i, j = cell
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            return False
        return self.mask is None or cell in self.mask

    def joins(self, a: Cell, b: Cell) -> bool:
        """True iff ``(a, b)`` is a grid step in :meth:`edges` orientation.

        ``b`` must be the right, down-left (tri only) or down neighbor of
        ``a``; on a hex grid a right step leaves only a cell with ``i + j``
        even.  Whether the cells are retained is not checked.
        """
        (i, j), (k, l) = a, b
        if k == i:
            return l == j + 1 and (self.kind == "tri" or (i + j) % 2 == 0)
        return k == i + 1 and (l == j or (l == j - 1 and self.kind == "tri"))

    def edge_count(self) -> int:
        """``len(self.edges())``, in closed form for an unmasked grid."""
        rows, cols = self.rows, self.cols
        if self.mask is not None:
            return len(self.edges())
        if self.kind == "hex":  # verticals, then the row edges (i, j)-(i, j+1) with i + j even
            return (rows - 1) * cols + (rows + 1) // 2 * (cols // 2) + rows // 2 * ((cols - 1) // 2)
        return rows * (cols - 1) + (rows - 1) * (2 * cols - 1)

    def edges(self) -> tuple[CellEdge, ...]:
        """Grid edges between retained cells, in a fixed row-major order.

        Per cell the outgoing edges appear in a fixed direction order (hex:
        right, down; tri: right, down-left, down), which pins the edge order
        that :func:`random_signature` consumes.
        """
        out: list[CellEdge] = []
        for a in self.cells():
            i, j = a
            if self.kind == "hex":
                if (i + j) % 2 == 0 and self.contains((i, j + 1)):
                    out.append((a, (i, j + 1)))
                if self.contains((i + 1, j)):
                    out.append((a, (i + 1, j)))
            else:
                if self.contains((i, j + 1)):
                    out.append((a, (i, j + 1)))
                if self.contains((i + 1, j - 1)):
                    out.append((a, (i + 1, j - 1)))
                if self.contains((i + 1, j)):
                    out.append((a, (i + 1, j)))
        return tuple(out)


def make_grid(spec: GridSpec, signature: dict[CellEdge, int]) -> SignedGraph:
    """Build the signed grid graph for ``spec`` with the given edge signs.

    ``signature`` must assign a sign to exactly the edges of ``spec`` (keyed
    by cell pairs as produced by :meth:`GridSpec.edges`).  The returned graph
    carries ``spec`` as its ``grid`` metadata.

    One pass over ``signature`` checks and converts every key: both cells
    must be retained and :meth:`GridSpec.joins` must hold for the pair.
    Distinct valid keys are distinct grid edges, so a key count equal to
    :meth:`GridSpec.edge_count` means the keys are exactly the grid's edges.
    Otherwise ``ValueError`` names how many edges are missing and extra.
    The edges enter the graph in :meth:`GridSpec.edges` order whatever the
    order of the keys, so the adjacency does not depend on it.
    """
    cells = spec.cells()
    index = {c: k for k, c in enumerate(cells)}
    joins = spec.joins
    edges = []
    try:
        for (a, b), s in signature.items():
            if not joins(a, b):
                break
            edges.append((index[a], index[b], s))
    except (KeyError, TypeError, ValueError):  # a cell off the grid, or a key that is no cell pair
        pass
    if len(edges) != len(signature) or len(edges) != spec.edge_count():
        expected = set(spec.edges())
        raise ValueError(
            f"signature domain mismatch: {len(expected - set(signature))} missing, "
            f"{len(set(signature) - expected)} extra edges"
        )
    edges.sort()  # sorted (u, v) is edges() order; already sorted for random_signature
    return SignedGraph(len(cells), edges, grid=spec)


def random_signature(spec: GridSpec, seed: int, p_negative: float) -> dict[CellEdge, int]:
    """Independently negative signs with probability ``p_negative``.

    Draws one uniform variate per edge in the fixed edge order from
    ``random.Random(seed)``, so the result is reproducible.
    """
    if not 0.0 <= p_negative <= 1.0:
        raise ValueError("p_negative must lie in [0, 1]")
    rng = random.Random(seed)
    return {e: (NEG if rng.random() < p_negative else POS) for e in spec.edges()}


def enumerate_c4(g: SignedGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles of ``g``, one representative per cycle.

    Each cycle is reported as ``(u, a, v, b)`` meaning ``u-a-v-b-u``, where
    ``{u, v}`` is the diagonal containing the smallest vertex of the cycle and
    ``a < b``.  Chords are irrelevant: any closed walk on four distinct
    vertices counts.  Found by pairing common neighbors of every vertex pair.
    """
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


def cycle_sign(g: SignedGraph, cycle) -> int:
    """Product of the edge signs along a cycle (a switching invariant)."""
    _check_cycle(g, cycle)
    prod = 1
    k = len(cycle)
    for t in range(k):
        prod *= g.sign(cycle[t], cycle[(t + 1) % k])
    return prod


def is_unbalanced(g: SignedGraph, cycle) -> bool:
    """True iff the cycle carries an odd number of negative edges."""
    return cycle_sign(g, cycle) == NEG


# ---------------------------------------------------------------------------
# Fixture: a doubly periodic triangular-grid signature in which every 4-cycle
# is unbalanced, together with a 6-coloring of it.  The six-vertex motif
# repeats with period 3 in the row direction and period 2 in the column
# direction.  Rows cycle through the color pairs {0,1}, {3,4}, {2,5}; the
# induced 6-vertex target is isomorphic to SP5 plus a universal vertex.
# ---------------------------------------------------------------------------


def _motif_row_sign(r: int) -> int:
    # row edge (r,c)-(r,c+1)
    return NEG if r % 3 == 2 else POS


def _motif_down_sign(r: int, c: int) -> int:
    # cross edge (r,c)-(r-1,c); alternates along every third row gap
    if (r - 1) % 3 == 0:
        return POS if c % 2 == 0 else NEG
    return POS


def _motif_diag_sign(r: int, c: int) -> int:
    # cross edge (r,c)-(r-1,c+1)
    m = (r - 1) % 3
    if m == 1:
        return NEG
    if m == 2:
        return POS
    return POS if c % 2 == 1 else NEG


def _motif_color(r: int, c: int) -> int:
    m = r % 3
    odd = c % 2 == 1
    if m == 0:
        return 1 if odd else 0
    if m == 1:
        return 3 if odd else 4
    return 2 if odd else 5


def all_c4_unbalanced_grid(rows: int, cols: int) -> tuple[SignedGraph, dict[int, int]]:
    """Triangular grid with every 4-cycle unbalanced, plus its 6-coloring.

    Any window of the periodic motif keeps both properties, so any
    ``rows x cols`` size is available.  Returns the signed grid and a map
    vertex -> color in ``0..5``; the coloring is a valid edge-sign-preserving
    map onto a 6-vertex target isomorphic to SP5 with a universal vertex.
    """
    if rows < 2 or cols < 2:
        raise ValueError("need rows, cols >= 2")
    spec = GridSpec("tri", rows, cols)
    signature = {}
    for a, b in spec.edges():
        (i1, j1), (i2, j2) = a, b
        if i1 == i2:
            signature[(a, b)] = _motif_row_sign(i1)
        elif j2 == j1:
            signature[(a, b)] = _motif_down_sign(i2, j2)
        else:  # (i,j)-(i+1,j-1) is the diag edge (r,c)-(r-1,c+1) seen from below
            signature[(a, b)] = _motif_diag_sign(i2, j2)
    g = make_grid(spec, signature)
    cells = spec.cells()
    coloring = {k: _motif_color(i, j) for k, (i, j) in enumerate(cells)}
    return g, coloring


def unbalanced_wheel7() -> SignedGraph:
    """Wheel on 7 vertices in which every 4-cycle is unbalanced.

    Hub 0 is positively adjacent to the rim 1..6; the rim cycle alternates
    +,-,+,-,+,- so each pair of consecutive rim edges differs in sign.
    """
    edges = [(0, r, POS) for r in range(1, 7)]
    rim = [1, 2, 3, 4, 5, 6]
    for k in range(6):
        u, v = rim[k], rim[(k + 1) % 6]
        s = POS if k % 2 == 0 else NEG
        edges.append((min(u, v), max(u, v), s))
    return SignedGraph(7, edges)


def unbalanced_c6() -> SignedGraph:
    """Six-cycle with exactly one negative edge, realized as a 3x2 hex grid.

    A 3x2 brick-wall grid is a single hexagon, so the result carries hex grid
    metadata and can be fed straight to the hexagonal colorer.
    """
    spec = GridSpec("hex", 3, 2)
    signature = {e: POS for e in spec.edges()}
    signature[((1, 1), (1, 2))] = NEG
    return make_grid(spec, signature)
