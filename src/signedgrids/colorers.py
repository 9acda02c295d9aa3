"""Constructive colorings of signed grids.

Two linear-time algorithms, each returning a witness that an independent
verifier can check:

* :func:`color_hex` maps any signed hexagonal (brick-wall) grid into the
  antitwin doubling of T4, so hexagonal grids use at most 4 identities.  The
  grid is first switched into a normal form in which a fixed scaffold of
  edges (all horizontal edges, plus the vertical edge above every vertex of
  odd coordinate parity) is positive; the scaffold is then colored greedily,
  alternating between vertices with one earlier neighbor (at least three
  choices, never containing an antitwin pair) and vertices with two earlier
  neighbors (a common positive neighbor always exists thanks to a restriction
  imposed one step earlier).  Finally the normalization is undone by swapping
  switched vertices to their antitwin images, which yields an exact
  sign-preserving map of the original grid.

* :func:`color_tri` maps any signed triangular grid into the antitwin
  doubling of SP9 plus a universal vertex.  Rows are processed top to bottom;
  within a row, a forward pass propagates per-vertex candidate color sets
  (each provably of size at least 2; the smallest size is kept as the
  :class:`CandidateTrace`) and a backward pass commits choices.

Both colorers work on a scratch slot array of the bounding grid (the slot
layout of :mod:`signedgrids.grids`), viewed as signed bytes: the edge from
bounding id ``b`` to its right, down-left or down neighbor is slot ``3*b``,
``3*b + 1`` or ``3*b + 2``, and the slot's value (+1, -1, or 0 for no edge)
indexes a table of the target's :func:`signedgrids.core.sign_masks`, so no
adjacency dict is built.  One scatter builds that array: it starts from the
box's slot pattern and writes each of the grid's signs at its edge's slot.
:func:`color_hex` colors the very array that :func:`normalize_hex` switched.
The colorers take only a :class:`~signedgrids.grids.SignedGrid`; any
:class:`~signedgrids.core.SignedGraph` raises ``ValueError``.
Candidate color sets are int bitmasks over the target vertices, ``&``-ed
from those masks.  Both algorithms are deterministic: ties break toward the
smallest target vertex id (the lowest set bit) in the fixed target
ordering.  Both color the bounding grid in place, on bounding ids
``(i-1)*cols + (j-1)``, where a cell the mask drops reads as joined by
``+`` edges (a 0 slot reads as ``+``); the mapping is then restricted to the
retained cells, which is valid because restricting a homomorphism to an
induced subgraph keeps it a homomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import compress, repeat
from operator import setitem

from .core import NEG, POS, rho_sp9_plus, rho_t4, sign_masks
from .core import switch  # unused here; perfbench/tracing.py patches signedgrids.colorers.switch
from .grids import GridSpec, SignedGrid
from .grids import make_grid  # unused here; perfbench/tracing.py patches signedgrids.colorers.make_grid
from .hom import Homomorphism
from .props import pstar21_excluded_pairs

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


@dataclass(frozen=True)
class CandidateTrace:
    """The size of the triangular forward pass's smallest candidate set over
    the bounding grid, which its invariant keeps at least 2."""

    smallest: int

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


def _by_slot(masks: dict[int, list[int]]) -> tuple[list[int], ...]:
    """Sign masks indexed by a slot's value: 1 and -1 (the last entry), and
    0 (no edge), which reads as ``+``."""
    return masks[POS], masks[POS], masks[NEG]


def _restrict(phi: list[int], spec: GridSpec) -> tuple[int, ...]:
    """A bounding-grid mapping restricted to the retained cells, in vertex order."""
    return tuple(phi) if spec.mask is None else tuple(map(phi.__getitem__, spec.bounding_ids()))


# ---------------------------------------------------------------------------
# Hexagonal grids -> doubled T4.
# ---------------------------------------------------------------------------


def normalize_hex(g: SignedGrid) -> tuple[memoryview, frozenset[int]]:
    """Switch a hexagonal grid so the coloring scaffold is all positive.

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

    Returns an exact sign-preserving homomorphism of the *original* graph
    (empty switch set, target :func:`signedgrids.core.rho_t4`).  Raises
    :class:`ColoringInvariantError` only on an internal bug; every grid is
    colorable.
    """
    # normalize_hex checks g; it is called through the module global, which
    # perfbench/tracing.py wraps to count the switch set
    signs, switched = normalize_hex(g)
    spec = g.grid
    rows, cols = spec.rows, spec.cols
    rho = rho_t4()
    masks = _by_slot(sign_masks(rho.graph))
    everyone = (1 << rho.n) - 1
    half = rho.base.n  # the twin of c is c + half or c - half
    excluded = pstar21_excluded_pairs(rho)
    # an excluded pair joins the two identities of one group
    group_of = {rho.identity(c): {rho.identity(d) for d in pair} for pair in excluded for c in pair}
    # per color of the diagonal: the colors whose identity is outside its group
    outside_group = [
        sum(1 << c for c in range(rho.n) if rho.identity(c) not in group_of[rho.identity(d)])
        for d in range(rho.n)
    ]
    phi = [-1] * (rows * cols)

    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            cur = (i - 1) * cols + (j - 1)
            up = cur - cols
            if (i + j) % 2 == 0:
                # one earlier neighbor at most: the vertex straight above
                if i == 1:
                    cands = everyone
                else:
                    cands = masks[signs[3 * up + 2]][phi[up]]
                    twins = (cands >> half | cands << half) & everyone
                    if cands.bit_count() < 3 or cands & twins:
                        raise ColoringInvariantError(
                            f"single-constraint candidates degenerate at ({i},{j}): {_members(cands)}"
                        )
                if i >= 2 and j < cols:
                    # keep this color's identity group disjoint from the
                    # diagonal's, so the vertex below-right of the diagonal
                    # later sees a pair with a common positive neighbor
                    cands &= outside_group[phi[up + 1]]
            else:
                cands = everyone
                if i >= 2:
                    if signs[3 * up + 2] != POS:
                        raise ColoringInvariantError(
                            f"vertical scaffold edge above ({i},{j}) not positive"
                        )
                    cands &= masks[POS][phi[up]]
                if j >= 2:
                    if signs[3 * (cur - 1)] != POS:
                        raise ColoringInvariantError(
                            f"horizontal scaffold edge left of ({i},{j}) not positive"
                        )
                    cands &= masks[POS][phi[cur - 1]]
                if i >= 2 and j >= 2:
                    a, b = phi[up], phi[cur - 1]
                    if a == b or rho.twin(a) == b or frozenset({a, b}) in excluded:
                        raise ColoringInvariantError(
                            f"invalid color pair {a},{b} ahead of ({i},{j})"
                        )
            if not cands:
                raise ColoringInvariantError(f"no candidate at ({i},{j})")
            phi[cur] = _lowest(cands)

    # undo the normalization: switched vertices take their antitwin image
    for k in switched:
        phi[k] = rho.twin(phi[k])
    return Homomorphism(_restrict(phi, spec))


# ---------------------------------------------------------------------------
# Triangular grids -> doubled SP9 plus universal vertex.
# ---------------------------------------------------------------------------


def color_tri(g: SignedGrid) -> tuple[Homomorphism, CandidateTrace]:
    """Color a signed triangular grid into the doubled SP9-plus target.

    Row by row: the forward pass builds, for each vertex of the current row,
    the full set of target vertices compatible with its two colored neighbors
    in the row above and reachable from some candidate of its left neighbor
    across the row edge (the OR of that edge's sign masks over the left
    neighbor's set).  Every such set provably has at least 2 elements
    (checked, never expected to fail).  The backward pass then fixes the row
    right to left, each vertex taking the lowest candidate compatible with
    its right neighbor's choice.  Returns the homomorphism (empty switch set,
    target :func:`signedgrids.core.rho_sp9_plus`) and the
    :class:`CandidateTrace` of the smallest candidate set's size.
    """
    _require_grid(g, "tri")
    spec = g.grid
    rows, cols = spec.rows, spec.cols
    signs = _bounding_signs(g)
    target = rho_sp9_plus().graph
    masks = _by_slot(sign_masks(target))
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
            if size < 2:
                raise ColoringInvariantError(f"candidate set at ({r},{c}) has {size} < 2 colors")
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

    return Homomorphism(_restrict(phi, spec)), CandidateTrace(smallest)
