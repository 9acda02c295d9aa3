"""Hexagonal and triangular grids: their layout, generators and fixtures.

Grid cells are addressed by 1-based coordinates ``(i, j)`` with ``i`` the row
and ``j`` the column; cell ``(i, j)`` has the *bounding id*
``(i-1)*cols + (j-1)``, which is its vertex id in an unmasked grid.  A mask
restricts the grid to the induced subgraph on the retained cells
(reindexed in row-major order).

Adjacency:

* hex (brick wall): vertical edges ``(i,j)-(i+1,j)`` everywhere; horizontal
  edges ``(i,j)-(i,j+1)`` exactly when ``i+j`` is even.  Interior degree 3.
* tri (parallelogram): row edges ``(i,j)-(i,j+1)``; cross edges
  ``(i,j)-(i+1,j)`` and ``(i,j)-(i+1,j-1)``, i.e. a vertex is adjacent to the
  cells directly below and below-left, so row ``i`` sees columns ``j`` and
  ``j+1`` of the row above.  Interior degree 6.

A signed grid has one type, :class:`SignedGrid`: its :class:`GridSpec` plus
one sign per edge, a ``tuple`` of +1 and -1 in :meth:`GridSpec.edges` order.
That order is the edges sorted by vertex pair ``(u, v)``, ``u < v``, and it
is the order of a grid file's ``"edges"`` list.  The tails and heads of the
edges depend on the spec alone: :meth:`GridSpec.edge_columns` computes them
once per spec and keeps them, and :attr:`SignedGrid.columns` is those two
columns plus the signs.  The writers, the verifiers, :attr:`SignedGrid.edges`
and :meth:`SignedGrid.graph` (a plain :class:`~signedgrids.core.SignedGraph`,
the adjacency view the searches walk) read a grid through its columns, and
no per-edge tuple is kept.

Placing an edge by direction uses a scratch *slot* layout, three slots per
vertex: slot ``3*v + d`` is the edge from vertex ``v`` in direction ``d``,
0 right ``(i, j+1)``, 1 down-left ``(i+1, j-1)``, 2 down ``(i+1, j)``.
:meth:`GridSpec.slot_pattern`, which the spec also computes once and keeps,
has 1 in the slots that hold an edge and 0 elsewhere (off the box, a hex
parity gap, a masked-out end, no down-left on hex).  A masked grid has slots
for its retained cells only, so its size follows the mask, not the box.  The
three neighbors lie at bounding ids ``b+1 < b+cols-1 < b+cols`` (on two
columns a cell has a right or a down-left edge, never both) and vertex ids
keep the order of bounding ids, so the slots with an edge, in order, are the
edges in :meth:`GridSpec.edges` order.  :func:`make_grid` from a cell-pair
mapping and the file loader's per-edge path fill a slot array by direction
and keep its non-zero slots as the sign column; the colorers scatter a
grid's signs into the slots of its bounding grid.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice

from .core import NEG, POS, SignedGraph

Cell = tuple[int, int]
CellEdge = tuple[Cell, Cell]

__all__ = [
    "GridSpec",
    "SignedGrid",
    "make_grid",
    "random_signature",
    "all_c4_unbalanced_grid",
    "unbalanced_wheel7",
    "unbalanced_c6",
]

# the step from a cell to its right, down-left and down neighbor -> direction
_DIRECTION = {(0, 1): 0, (1, -1): 1, (1, 0): 2}


def is_sign_column(signs: tuple) -> bool:
    """Every entry of type exactly ``int`` (not ``True``, not ``1.0``) and +1 or -1."""
    return set(map(type, signs)) <= {int} and signs.count(1) + signs.count(-1) == len(signs)


def _fill(buf: bytearray, start: int, stop: int, step: int, value: int = 1) -> None:
    """Set ``buf[start:stop:step]`` to ``value``."""
    buf[start:stop:step] = bytes([value]) * len(range(start, stop, step))


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

    def bounding_ids(self) -> range | list[int]:
        """Bounding id of each vertex, in vertex order."""
        if self.mask is None:
            return range(self.rows * self.cols)
        return [(i - 1) * self.cols + (j - 1) for i, j in sorted(self.mask)]

    def direction(self, x: int, y: int) -> int:
        """The direction of the step from bounding id ``x`` to bounding id ``y``.

        That is 0, 1 or 2 when ``y`` is the right, down-left or down
        neighbor of ``x`` in the bounding grid, else -1.  The column of ``x``
        tells a right step from a down-left one when both differ by 1 (two
        columns).  Whether the grid has the edge is :meth:`slot_pattern`'s
        to say.
        """
        cols, d = self.cols, y - x
        if d == cols:
            return 2
        if d == 1 and x % cols != cols - 1:
            return 0
        if d == cols - 1 and x % cols:
            return 1
        return -1

    def slot_pattern(self) -> bytes:
        """1 in every slot that holds an edge of the grid, 0 elsewhere;
        computed on the first call and kept by the spec."""
        return self._slot_pattern

    @cached_property
    def _slot_pattern(self) -> bytes:
        rows, cols, tri, mask = self.rows, self.cols, self.kind == "tri", self.mask
        if mask is not None:
            # a retained cell keeps the box's edges to retained cells; the
            # work is per retained cell, however large the box
            return bytes(
                x
                for i, j in sorted(mask)
                for x in (
                    (i, j + 1) in mask and (tri or (i + j) % 2 == 0),
                    tri and (i + 1, j - 1) in mask,
                    (i + 1, j) in mask,
                )
            )

        # slot 3*b + d for the 0-based row i and column j of bounding id b
        pattern = bytearray(3 * rows * cols)
        above_last = 3 * cols * (rows - 1)  # the slots of every row but the last
        _fill(pattern, 2, above_last, 3)  # down
        if tri:
            _fill(pattern, 0, len(pattern), 3)  # right
            _fill(pattern, 1, above_last, 3)  # down-left
            _fill(pattern, 1, above_last, 3 * cols, 0)  # ... but not from column 0
        else:
            for i in range(rows):  # right where i + j is even
                _fill(pattern, 3 * (i * cols + i % 2), 3 * (i + 1) * cols, 6)
        _fill(pattern, 3 * cols - 3, len(pattern), 3 * cols, 0)  # no right from the last column
        return bytes(pattern)

    def edge_count(self) -> int:
        """``len(self.edges())``, in closed form for an unmasked grid."""
        if self.mask is not None:
            return self.slot_pattern().count(1)
        r, c = self.rows, self.cols
        if self.kind == "tri":  # right; down-left and down
            return r * (c - 1) + (r - 1) * (2 * c - 1)
        # down; right from (i, j) with i + j even: odd j on odd rows, even j on even rows
        return (r - 1) * c + (r + 1) // 2 * (c // 2) + r // 2 * ((c - 1) // 2)

    def edges(self) -> tuple[CellEdge, ...]:
        """Grid edges between retained cells, in a fixed row-major order.

        Per cell the outgoing edges appear in a fixed direction order (hex:
        right, down; tri: right, down-left, down), the slot order, which
        pins the order of a grid's sign column.
        """
        tails, heads = self.edge_columns()
        cells = self.cells()
        return tuple(zip(map(cells.__getitem__, tails), map(cells.__getitem__, heads)))

    def edge_columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The vertex ids of :meth:`edges`: a column of tails and a column of
        heads, computed on the first call and kept by the spec."""
        return self._edge_columns

    @cached_property
    def _edge_columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        slots = self.slot_pattern()
        cols = self.cols
        if self.mask is not None:
            where = self.bounding_ids()
            vertex = {b: v for v, b in enumerate(where)}
            step = (1, cols - 1, cols)
            positions = list(compress(range(len(slots)), slots))
            return (
                tuple(p // 3 for p in positions),
                tuple(vertex[where[p // 3] + step[p % 3]] for p in positions),
            )
        # per slot, the vertex at its tail and at its head, each slot's three
        # heads read off the id list shifted by 1, cols - 1 and cols; compress
        # keeps the slots with an edge.  A list, not a range, so that every
        # edge of a vertex shares one int object.
        ids = list(range(self.rows * cols + cols))
        tails = chain.from_iterable(zip(ids, ids, ids))
        heads = chain.from_iterable(zip(islice(ids, 1, None), islice(ids, cols - 1, None), islice(ids, cols, None)))
        return tuple(compress(tails, slots)), tuple(compress(heads, slots))


@dataclass(frozen=True)
class SignedGrid:
    """A signed grid: its :class:`GridSpec` and one sign per edge.

    ``signs`` is a tuple of +1 and -1, one per edge in
    :meth:`GridSpec.edges` order.  Build one with :func:`make_grid` (or read
    one with :func:`signedgrids.graphio.graph_from_dict`), which checks the
    signs; this constructor does not.  The verifiers, the writers and the
    colorers read a grid as it is; the searches need adjacency dicts and
    convert it through :meth:`graph`.
    """

    grid: GridSpec
    signs: tuple[int, ...] = field(repr=False)
    labels: tuple[str, ...] | None = field(default=None, repr=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        spec = self.grid
        object.__setattr__(self, "n", spec.rows * spec.cols if spec.mask is None else len(spec.mask))

    @property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """All edges as three columns, tails, heads and signs: edge ``k`` is
        ``(tails[k], heads[k], signs[k])`` with ``tails[k] < heads[k]``, in
        :meth:`GridSpec.edges` order, which is sorted.  The tails and heads
        are the ones the spec keeps."""
        return (*self.grid.edge_columns(), self.signs)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as ``(u, v, sign)`` with ``u < v``, sorted, as
        :attr:`SignedGraph.edges` lists them; built from :attr:`columns` on
        each access."""
        return tuple(zip(*self.columns))

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def graph(self) -> SignedGraph:
        """The grid's adjacency view, a plain :class:`SignedGraph` with the
        same vertices, edges and labels, for the searches to walk."""
        return SignedGraph(self.n, zip(*self.columns), labels=self.labels)


def make_grid(spec: GridSpec, signature: Sequence[int] | Mapping[CellEdge, int]) -> SignedGrid:
    """Build the signed grid for ``spec`` with the given edge signs.

    ``signature`` is either a sign column, a sequence of one sign per edge
    in :meth:`GridSpec.edges` order (as :func:`random_signature` returns),
    or a mapping that assigns a sign to exactly the edges of ``spec``, keyed
    by cell pairs as produced by :meth:`GridSpec.edges`.  A column must have
    :meth:`GridSpec.edge_count` entries, each of type exactly ``int`` (not
    ``True``, not ``1.0``) and equal to +1 or -1.

    One pass over a mapping checks and places every key in its slot: the
    first cell must be a vertex and the pair must fill a slot of
    :meth:`GridSpec.slot_pattern`, so distinct valid keys fill distinct
    slots, and a key count equal to the edge count means the keys are
    exactly the grid's edges.  Otherwise ``ValueError`` names how many edges
    are missing and extra.  A sign that is not +1 or -1 is reported after
    that, the first in edge order.
    """
    if not isinstance(signature, Mapping):
        signs = tuple(signature)
        if len(signs) != spec.edge_count() or not is_sign_column(signs):
            raise ValueError(
                f"sign column does not fit the {spec.kind} {spec.rows}x{spec.cols} grid: "
                f"it needs {spec.edge_count()} entries, each the int +1 or -1"
            )
        return SignedGrid(spec, signs)
    pattern = spec.slot_pattern()
    rows, cols = spec.rows, spec.cols
    vertex = None if spec.mask is None else {c: v for v, c in enumerate(spec.cells())}
    slots = bytearray(len(pattern))
    bad: dict[int, object] = {}
    placed = 0
    try:
        for ((i, j), (k, l)), s in signature.items():
            d = _DIRECTION.get((k - i, l - j), -1)
            if d < 0 or not (0 < i <= rows and 0 < j <= cols):
                break
            x = (i - 1) * cols + (j - 1) if vertex is None else vertex.get((i, j), -1)
            # a tail in the grid and a slot with an edge put the head in it too
            if x < 0 or not pattern[3 * x + d]:
                break
            p = 3 * x + d
            if s == POS or s == NEG:
                slots[p] = 1 if s == POS else 255
            else:
                bad[p] = s
            placed += 1
    except (TypeError, ValueError):  # a key that is no pair of integer pairs
        pass
    if placed != len(signature) or placed != pattern.count(1):
        expected = set(spec.edges())
        raise ValueError(
            f"signature domain mismatch: {len(expected - set(signature))} missing, "
            f"{len(set(signature) - expected)} extra edges"
        )
    if bad:
        raise ValueError(f"edge sign must be +1 or -1, got {bad[min(bad)]!r}")
    return SignedGrid(spec, tuple(compress(memoryview(slots).cast("b"), slots)))


def random_signature(spec: GridSpec, seed: int, p_negative: float) -> tuple[int, ...]:
    """Independently negative signs with probability ``p_negative``, as a sign column.

    Draws one uniform variate per edge in :meth:`GridSpec.edges` order from
    ``random.Random(seed)``, so the result is reproducible.
    """
    if not 0.0 <= p_negative <= 1.0:
        raise ValueError("p_negative must lie in [0, 1]")
    draw = random.Random(seed).random
    return tuple([-1 if draw() < p_negative else 1 for _ in range(spec.edge_count())])


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


def all_c4_unbalanced_grid(rows: int, cols: int) -> tuple[SignedGrid, dict[int, int]]:
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


def unbalanced_c6() -> SignedGrid:
    """Six-cycle with exactly one negative edge, realized as a 3x2 hex grid.

    A 3x2 brick-wall grid is a single hexagon, so the result is a hex
    :class:`SignedGrid` and can be fed straight to the hexagonal colorer.
    """
    spec = GridSpec("hex", 3, 2)
    signature = {e: POS for e in spec.edges()}
    signature[((1, 1), (1, 2))] = NEG
    return make_grid(spec, signature)
