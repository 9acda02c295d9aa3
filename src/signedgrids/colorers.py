"""Constructive colorings of signed grids.

One linear-time row pass colors both grid kinds, each into its own target,
and returns a witness that an independent verifier can check:
:func:`color_hex` maps any signed hexagonal (brick-wall) grid into the
antitwin doubling of T4 (at most 4 identities), and :func:`color_tri` maps
any signed triangular grid into the antitwin doubling of SP9 plus a
universal vertex (at most 10).  Rows are processed top to bottom; within a
row, a forward pass propagates per-vertex candidate color sets (never
smaller than 1 on hex and 2 on tri; the smallest size of a tri pass is its
:class:`CandidateTrace`) and a backward pass commits choices.  No colorer
switches the grid; :func:`normalize_hex`, the paper's hex normal form, is
kept public but unused here.

The pass works on a scratch slot array of the bounding grid (the slot
layout of :mod:`signedgrids.grids`), viewed as signed bytes: the edge from
bounding id ``b`` to its right, down-left or down neighbor is slot ``3*b``,
``3*b + 1`` or ``3*b + 2``, and the slot's value (+1, -1, or 0 for no edge)
indexes the target's :func:`signedgrids.core.sign_masks` table, so no
adjacency dict is built.  A 0 slot (a hex parity gap or down-left slot)
constrains nothing: the table's entry 0 is all ones.  One scatter builds that
array: it starts from the box's slot pattern and writes each of the grid's
signs at its edge's slot.  The colorers take only a
:class:`~signedgrids.grids.SignedGrid`; any
:class:`~signedgrids.core.SignedGraph` raises ``ValueError``.  Candidate
color sets are int bitmasks over the target vertices, ``&``-ed from those
masks.  The pass is deterministic: ties break toward the smallest target
vertex id (the lowest set bit).  It colors the bounding grid in place, on
bounding ids ``(i-1)*cols + (j-1)``, where a cell the mask drops reads as
joined by ``+`` edges; the mapping is then restricted to the retained
cells, which is valid because restricting a homomorphism to an induced
subgraph keeps it a homomorphism.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import compress, repeat
from operator import setitem

from .core import NEG, FrozenValue, SignedGraph, rho_sp9_plus, rho_t4, sign_masks
from .core import switch  # unused here; perfbench/tracing.py patches signedgrids.colorers.switch
from .grids import GridSpec, SignedGrid
from .grids import make_grid  # unused here; perfbench/tracing.py patches signedgrids.colorers.make_grid
from .hom import Homomorphism
from .props import pstar21_excluded_pairs  # unused here; perfbench/tracing.py patches signedgrids.colorers.pstar21_excluded_pairs

__all__ = [
    "ColoringInvariantError",
    "CandidateTrace",
    "normalize_hex",
    "color_hex",
    "color_tri",
]


class ColoringInvariantError(RuntimeError):
    """An internal guarantee of a coloring algorithm failed.

    This is never expected on valid input; it signals an implementation bug,
    not a property of the instance.
    """


class CandidateTrace(FrozenValue):
    """The size of the triangular forward pass's smallest candidate set over
    the bounding grid, which its invariant keeps at least 2."""

    __slots__ = _fields = ("smallest",)

    def __init__(self, smallest: int):
        self._set(smallest)

    def min_size(self) -> int:
        return self.smallest


def _members(colors: int) -> list[int]:
    """The colors of a bitmask, ascending."""
    return [c for c in range(colors.bit_length()) if colors >> c & 1]


def _lowest(colors: int) -> int:
    return (colors & -colors).bit_length() - 1


def _require_grid(g: SignedGrid, kind: str) -> None:
    """``ValueError`` unless ``g`` is a :class:`SignedGrid` of the given kind."""
    if not isinstance(g, SignedGrid) or g.grid.kind != kind:
        raise ValueError(f"input must be a signed {kind} grid")


def _bounding_signs(g: SignedGrid) -> memoryview:
    """A fresh slot array of the bounding grid, viewed as signed bytes: the
    box's slot pattern, so that an edge to a cell the mask drops reads
    ``+``, with each of the grid's signs written at its edge's slot."""
    spec = g.grid
    pattern = spec.slot_pattern()
    at = compress(range(len(pattern)), pattern)  # the slots of the grid's edges, in order
    if spec.mask is not None:
        where = spec.bounding_ids()
        at = (3 * where[p // 3] + p % 3 for p in at)
        pattern = GridSpec(spec.kind, spec.rows, spec.cols).slot_pattern()
    slots = memoryview(bytearray(pattern)).cast("b")
    deque(map(setitem, repeat(slots), at, g.signs), 0)
    return slots


def _restrict(phi: list[int], spec: GridSpec) -> tuple[int, ...]:
    """A bounding-grid mapping restricted to the retained cells, in vertex order."""
    return tuple(phi) if spec.mask is None else tuple(map(phi.__getitem__, spec.bounding_ids()))


def _color_rows(g: SignedGrid, target: SignedGraph, floor: int) -> tuple[Homomorphism, int]:
    """Color a signed grid into ``target`` row by row.

    The forward pass builds, for each vertex of the current row, the full set
    of target vertices compatible with its two colored neighbors in the row
    above (up, and up-right through that vertex's down-left slot) and
    reachable from some candidate of its left neighbor across the row edge
    (the OR of that edge's sign masks over the left neighbor's set).  A slot
    of 0, an edge the grid kind lacks, constrains nothing.  Every such set
    has at least ``floor`` elements (checked, never expected to fail).  The
    backward pass then fixes the row right to left, each vertex taking the
    lowest candidate compatible with its right neighbor's choice.  Returns
    the homomorphism and the smallest candidate set's size.
    """
    spec = g.grid
    rows, cols = spec.rows, spec.cols
    signs = _bounding_signs(g)
    masks = sign_masks(target)
    everyone = (1 << target.n) - 1

    @cache
    def reachable(colors: int, s: int) -> int:
        """Colors joined by an ``s`` edge to some color of ``colors``."""
        out = 0
        for p in _members(colors):
            out |= masks[s][p]
        return out

    phi = [-1] * (rows * cols)
    smallest = everyone.bit_count()

    for r in range(1, rows + 1):
        base = (r - 1) * cols  # bounding id of (r, 1)
        sets: list[int] = []
        for c in range(1, cols + 1):
            cur = base + c - 1
            cands = everyone
            if r >= 2:
                up = cur - cols
                cands &= masks[signs[3 * up + 2]][phi[up]]
                if c < cols:
                    cands &= masks[signs[3 * up + 4]][phi[up + 1]]  # down-left slot of (r-1, c+1)
            if c >= 2:
                cands &= reachable(sets[-1], signs[3 * cur - 3])
            size = cands.bit_count()
            if size < floor:
                raise ColoringInvariantError(f"candidate set at ({r},{c}) has {size} < {floor} colors")
            if size < smallest:
                smallest = size
            sets.append(cands)

        # backward pass: commit the row right to left
        phi[base + cols - 1] = _lowest(sets[cols - 1])
        for c in range(cols - 1, 0, -1):
            left = base + c - 1
            feasible = sets[c - 1] & masks[signs[3 * left]][phi[left + 1]]
            if not feasible:
                raise ColoringInvariantError(
                    f"backward pass stuck at ({r},{c}); forward filter broken"
                )
            phi[left] = _lowest(feasible)

    return Homomorphism(_restrict(phi, spec)), smallest


# ---------------------------------------------------------------------------
# Hexagonal grids -> doubled T4.
# ---------------------------------------------------------------------------


def normalize_hex(g: SignedGrid) -> tuple[memoryview, frozenset[int]]:
    """Switch a hexagonal grid so the paper's coloring scaffold is all positive.

    Works on the bounding grid (see the module docstring).  Scans positions
    ``(i, j)`` with ``i + j`` odd in row-major order, for ``i`` from 2 to one
    row past the grid.  Each position looks at the sign pair (vertical edge
    up to ``(i-1, j)``, horizontal edge ``(i-1, j)`` to ``(i-1, j+1)``) and
    switches so both come out positive:

    * ``(-,-)``: switch ``(i-1, j)``
    * ``(+,-)``: switch ``(i, j)`` and ``(i-1, j)``
    * ``(-,+)``: switch ``(i, j)``

    An edge leaving the bounding grid counts as positive and a vertex outside
    it is never switched, which covers the right boundary (no horizontal edge) and the virtual row
    below the grid (no vertical edge; only the last row's horizontal edges
    remain to fix).  Later positions never disturb edges already processed.

    Returns the switched slot array of the bounding grid, a signed-byte
    ``memoryview`` laid out as in the module docstring (an edge to a dropped
    cell starts out ``+``), and the switch set (double switches cancel) as
    bounding-grid ids, which are the vertex ids of an unmasked grid.  A
    switch flips the slots of the vertex's four edges in place.

    This is the paper's normal form, under which it colors hex grids through
    property P*(2,1) of T4.  It is kept public, but no colorer calls it:
    :func:`color_hex` colors the grid as it is.
    """
    _require_grid(g, "hex")
    rows, cols = g.grid.rows, g.grid.cols
    # a switch negates the slots of its vertex's edges, so no-edge slots stay 0
    signs = _bounding_signs(g)
    flipped = bytearray(rows * cols)  # 1 at a vertex switched an odd number of times

    def switch_at(x: int) -> None:
        flipped[x] ^= 1
        p = 3 * x
        signs[p] = -signs[p]  # right
        signs[p + 2] = -signs[p + 2]  # down
        if x % cols:
            signs[p - 3] = -signs[p - 3]  # left
        if x >= cols:
            up = p - 3 * cols + 2
            signs[up] = -signs[up]

    for i in range(2, rows + 2):
        for j in range(1 + i % 2, cols + 1, 2):  # i + j odd
            up = (i - 2) * cols + (j - 1)
            v_neg = signs[3 * up + 2] == NEG  # no vertical edge below the last row
            h_neg = signs[3 * up] == NEG  # no horizontal edge at the right boundary
            if h_neg:
                if not v_neg and i <= rows:
                    switch_at(up + cols)
                switch_at(up)
            elif v_neg:
                switch_at(up + cols)
    return signs, frozenset(compress(range(rows * cols), flipped))


def color_hex(g: SignedGrid) -> Homomorphism:
    """Color a signed hexagonal grid into the doubled T4 target.

    Returns an exact sign-preserving homomorphism of the grid itself (empty
    switch set, target :func:`signedgrids.core.rho_t4`).  No candidate set
    of the row pass is empty: a forward-pass state is the candidate set, the
    up-neighbor's color and whether the next pair of the row is joined, and
    with the row above walking adversarially (any color across an unjoined
    pair, a neighbor by either sign across a joined one) the reachable
    states, 64 below row 1, are all non-empty.  Raises
    :class:`ColoringInvariantError` only on an internal bug.
    """
    _require_grid(g, "hex")
    return _color_rows(g, rho_t4().graph, 1)[0]


# ---------------------------------------------------------------------------
# Triangular grids -> doubled SP9 plus universal vertex.
# ---------------------------------------------------------------------------


def color_tri(g: SignedGrid) -> tuple[Homomorphism, CandidateTrace]:
    """Color a signed triangular grid into the doubled SP9-plus target.

    Returns the homomorphism (empty switch set, target
    :func:`signedgrids.core.rho_sp9_plus`) and the :class:`CandidateTrace`
    of the smallest candidate set's size, which is provably at least 2.
    """
    _require_grid(g, "tri")
    hom, smallest = _color_rows(g, rho_sp9_plus().graph, 2)
    return hom, CandidateTrace(smallest)
