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
one sign per edge, a ``tuple`` of +1 and -1 in :meth:`GridSpec.edges` order,
which its constructor checks.  That order is the edges sorted by vertex
pair ``(u, v)``, ``u < v``, and it is the order of a grid file's
``"edges"`` list.  The tails and heads of the edges depend on the spec
alone: :meth:`GridSpec.edge_columns` computes them once per spec and keeps
them, and :attr:`SignedGrid.columns` is those two columns plus the signs.
These are the columns in which a :class:`~signedgrids.core.SignedGraph`
keeps its edges too, so the writers, the verifiers and the searches zip
the columns of either type.  :attr:`SignedGrid.edges` and
:meth:`SignedGrid.graph` (a plain :class:`~signedgrids.core.SignedGraph`
with adjacency dicts) are built from them, and no per-edge tuple is kept.
A spec's tables (its slot pattern, edge count and edge columns) are kept
in slots of their own through :meth:`~signedgrids.core.FrozenValue._keep`.

Placing an edge by direction uses a *slot* layout, three slots per vertex:
slot ``3*v + d`` is the edge from vertex ``v`` in direction ``d``, 0 right
``(i, j+1)``, 1 down-left ``(i+1, j-1)``, 2 down ``(i+1, j)``.  For an
unmasked grid, :meth:`GridSpec.has_slot` arithmetic alone says which slots
hold an edge (not off the box, in a hex parity gap, or down-left on hex),
and :meth:`GridSpec.slot_pattern`, 1 in those slots and 0 elsewhere, is
read off it.  A masked grid has slots for its retained cells only, so its
pattern's size follows the mask, not the box.  The three neighbors lie at
bounding ids ``b+1 < b+cols-1 < b+cols`` (on two columns a cell has a right
or a down-left edge, never both) and vertex ids keep the order of bounding
ids, so the slots with an edge, in order, are the edges in
:meth:`GridSpec.edges` order.  The file loader's per-edge path keys a dict
by slot, and the colorers scatter a grid's signs into the slots of its
bounding grid; :func:`make_grid` reads a cell-pair mapping in edge order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain, compress, islice, product

from .core import NEG, POS, FrozenValue, SignedGraph, sp5_plus

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


class GridSpec(FrozenValue):
    """Shape of a grid: kind (``"hex"`` or ``"tri"``), dimensions, optional mask.

    Dimensions are of type exactly ``int`` and at least 1, and mask cells
    pairs of such ints in the box.  The spec keeps three tables, each built
    on its first use: its slot pattern, edge count and edge columns.
    """

    __slots__ = ("kind", "rows", "cols", "mask", "_pattern", "_count", "_columns")
    _fields = ("kind", "rows", "cols", "mask")

    def __init__(self, kind: str, rows: int, cols: int, mask: frozenset[Cell] | None = None):
        if kind not in ("hex", "tri"):
            raise ValueError(f"unknown grid kind {kind!r}")
        if not (type(rows) is type(cols) is int and rows >= 1 and cols >= 1):
            raise ValueError(f"rows and cols must be ints of at least 1, got {rows!r} and {cols!r}")
        if mask is not None:
            mask = frozenset(mask)
            for cell in mask:
                i, j = cell if type(cell) is tuple and len(cell) == 2 else (None, None)
                if not (type(i) is type(j) is int and 1 <= i <= rows and 1 <= j <= cols):
                    raise ValueError(f"mask cell {cell!r} is not a pair of ints inside the {rows}x{cols} grid")
        self._set(kind, rows, cols, mask, None, None, None)  # the kept tables, built on first use

    def cells(self) -> tuple[Cell, ...]:
        """Retained cells in row-major order."""
        if self.mask is None:
            return tuple(product(range(1, self.rows + 1), range(1, self.cols + 1)))
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
        """1 in every slot that holds an edge of the grid, 0 elsewhere, read
        off :meth:`has_slot` for an unmasked grid; computed on the first call
        and kept by the spec."""
        if self._pattern is not None:
            return self._pattern
        rows, cols, tri, mask = self.rows, self.cols, self.kind == "tri", self.mask
        if mask is not None:
            # a retained cell keeps the box's edges to retained cells; the
            # work is per retained cell, however large the box
            pattern = bytes(
                x
                for i, j in sorted(mask)
                for x in (
                    (i, j + 1) in mask and (tri or (i + j) % 2 == 0),
                    tri and (i + 1, j - 1) in mask,
                    (i + 1, j) in mask,
                )
            )
        else:
            # has_slot reads a slot's row only through its parity and through
            # whether it is the last row, so a box has at most four kinds of
            # row: each is built once, and the rows are joined
            def row(i: int) -> bytes:
                return bytes(map(self.has_slot, range(3 * i * cols, 3 * (i + 1) * cols)))

            inner = [row(i) for i in range(min(2, rows - 1))]
            pattern = b"".join([inner[i % 2] for i in range(rows - 1)] + [row(rows - 1)])
        return self._keep("_pattern", pattern)

    def has_slot(self, p: int) -> bool:
        """Whether slot ``p`` holds an edge, ``slot_pattern()[p] == 1``; for
        an unmasked grid it is the one statement of the slot rule, read off
        the slot's row, column and direction without a pattern, and a masked
        grid reads its pattern."""
        if self.mask is not None:
            return self.slot_pattern()[p] == 1
        (i, j), d = divmod(p // 3, self.cols), p % 3
        if d == 0:  # right: not from the last column, on hex where i + j is even
            return j < self.cols - 1 and (self.kind == "tri" or (i + j) % 2 == 0)
        # down, and down-left on tri but not from column 0: not from the last row
        return i < self.rows - 1 and (d == 2 or (self.kind == "tri" and j > 0))

    def edge_count(self) -> int:
        """``len(self.edges())``, in closed form for an unmasked grid;
        computed on the first call and kept by the spec."""
        if self._count is not None:
            return self._count
        r, c = self.rows, self.cols
        if self.mask is not None:
            count = self.slot_pattern().count(1)
        elif self.kind == "tri":  # right; down-left and down
            count = r * (c - 1) + (r - 1) * (2 * c - 1)
        else:  # down; right from (i, j) with i + j even: odd j on odd rows, even j on even rows
            count = (r - 1) * c + (r + 1) // 2 * (c // 2) + r // 2 * ((c - 1) // 2)
        return self._keep("_count", count)

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
        if self._columns is not None:
            return self._columns
        slots = self.slot_pattern()
        cols = self.cols
        if self.mask is not None:
            where = self.bounding_ids()
            vertex = {b: v for v, b in enumerate(where)}
            step = (1, cols - 1, cols)
            positions = list(compress(range(len(slots)), slots))
            tails = tuple(p // 3 for p in positions)
            heads = tuple(vertex[where[p // 3] + step[p % 3]] for p in positions)
        else:
            # per slot, the vertex at its tail and at its head, each slot's
            # three heads read off the id list shifted by 1, cols - 1 and
            # cols; compress keeps the slots with an edge.  A list, not a
            # range, so that every edge of a vertex shares one int object.
            ids = list(range(self.rows * cols + cols))
            tails = chain.from_iterable(zip(ids, ids, ids))
            heads = chain.from_iterable(zip(islice(ids, 1, None), islice(ids, cols - 1, None), islice(ids, cols, None)))
            tails, heads = tuple(compress(tails, slots)), tuple(compress(heads, slots))
        return self._keep("_columns", (tails, heads))


class SignedGrid(FrozenValue):
    """A signed grid: its :class:`GridSpec` and one sign per edge.

    ``signs`` is a tuple of +1 and -1, one per edge in
    :meth:`GridSpec.edges` order.  The constructor checks it: a tuple of
    :meth:`GridSpec.edge_count` entries, each of type exactly ``int`` (not
    ``True``, not ``1.0``) and +1 or -1, else ``ValueError``.  So every grid
    is valid as built, and the verifiers, the writers, the colorers and the
    searches read it as it is.  ``n``, the spec's vertex count, is not
    compared, nor is the searches' plan of the grid, which it keeps once
    built (``signedgrids.hom._search_plan``).
    """

    __slots__ = ("grid", "signs", "labels", "n", "_plan")
    _fields = ("grid", "signs", "labels")

    def __init__(self, grid: GridSpec, signs: tuple[int, ...], labels: tuple[str, ...] | None = None):
        if not (
            type(signs) is tuple
            and len(signs) == grid.edge_count()
            and set(map(type, signs)) <= {int}
            and signs.count(1) + signs.count(-1) == len(signs)
        ):
            raise ValueError(
                f"sign column does not fit the {grid.kind} {grid.rows}x{grid.cols} grid: "
                f"it needs {grid.edge_count()} entries, each the int +1 or -1"
            )
        self._set(grid, signs, labels, grid.rows * grid.cols if grid.mask is None else len(grid.mask), None)

    def __repr__(self) -> str:
        return f"SignedGrid(grid={self.grid!r}, n={self.n!r})"

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
        """The grid as a plain :class:`SignedGraph` with the same vertices,
        edges and labels, and its adjacency dicts."""
        return SignedGraph(self.n, zip(*self.columns), labels=self.labels)


def make_grid(spec: GridSpec, signature: Sequence[int] | Mapping[CellEdge, int]) -> SignedGrid:
    """Build the signed grid for ``spec`` with the given edge signs.

    ``signature`` is either a sign column, a sequence of one sign per edge
    in :meth:`GridSpec.edges` order (as :func:`random_signature` returns),
    or a mapping from exactly those cell pairs to signs, read in edge order.
    A mapping without one key per edge raises ``ValueError`` naming how many
    edges are missing and extra; the signs are then the constructor's to
    check, as :class:`SignedGrid` states.
    """
    if not isinstance(signature, Mapping):
        return SignedGrid(spec, tuple(signature))
    edges = spec.edges()
    try:
        signs = tuple(map(signature.__getitem__, edges)) if len(signature) == len(edges) else None
    except KeyError:
        signs = None
    if signs is None:
        expected = set(edges)
        raise ValueError(
            f"signature domain mismatch: {len(expected - set(signature))} missing, "
            f"{len(set(signature) - expected)} extra edges"
        )
    return SignedGrid(spec, signs)


def random_signature(spec: GridSpec, seed: int, p_negative: float) -> tuple[int, ...]:
    """Independently negative signs with probability ``p_negative``, as a sign column.

    Draws one uniform variate per edge in :meth:`GridSpec.edges` order from
    ``random.Random(seed)``, so the result is reproducible.
    """
    if not 0.0 <= p_negative <= 1.0:
        raise ValueError("p_negative must lie in [0, 1]")
    from random import Random  # here, not at module load: only gen draws signs
    draw = Random(seed).random
    return tuple([-1 if draw() < p_negative else 1 for _ in range(spec.edge_count())])


# ---------------------------------------------------------------------------
# Fixture: a doubly periodic triangular-grid signature in which every 4-cycle
# is unbalanced, stated as its 6-coloring into SP5+ (SP5 on 0..4 plus the
# universal vertex 5).  Cell (i, j) gets _MOTIF_COLORS[i % 3][j % 2], so the
# motif repeats with period 3 in the row direction and period 2 in the column
# direction, and each edge takes the sign of the SP5+ edge between its ends'
# colors: the coloring is a homomorphism into SP5+ with no switching.
# ---------------------------------------------------------------------------

_MOTIF_COLORS = ((5, 0), (3, 2), (4, 1))


def all_c4_unbalanced_grid(rows: int, cols: int) -> tuple[SignedGrid, dict[int, int]]:
    """Triangular grid with every 4-cycle unbalanced, plus its 6-coloring.

    Any window of the periodic motif keeps both properties, so any
    ``rows x cols`` size is available.  Returns the signed grid and a map
    vertex -> color in ``0..5``, the vertex ids of :func:`~signedgrids.core.sp5_plus`;
    every edge's sign is that of the SP5+ edge between its ends' colors, so
    the coloring maps the grid into SP5+ with an empty switch set.
    """
    if rows < 2 or cols < 2:
        raise ValueError("need rows, cols >= 2")
    spec = GridSpec("tri", rows, cols)
    coloring = {v: _MOTIF_COLORS[i % 3][j % 2] for v, (i, j) in enumerate(spec.cells())}
    status = sp5_plus().status
    # make_grid rejects the 0 of two adjacent cells with one color
    g = make_grid(spec, [status(coloring[u], coloring[v]) for u, v in zip(*spec.edge_columns())])
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
