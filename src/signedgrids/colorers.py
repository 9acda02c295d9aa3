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
  (each provably of size at least 2) and a backward pass commits choices.

Candidate color sets are int bitmasks over the target vertices, ``&``-ed
from the target's :func:`signedgrids.core.sign_masks` table.  Both
algorithms are deterministic: ties break toward the smallest target vertex
id (the lowest set bit) in the fixed target ordering.  Both color the
bounding grid in place, on ids ``(i-1)*cols + (j-1)``, where a cell the mask
drops reads as joined by ``+`` edges; the mapping is then restricted to the
retained cells, which is valid because restricting a homomorphism to an
induced subgraph keeps it a homomorphism.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cache

from .core import NEG, POS, SignedGraph, rho_sp9_plus, rho_t4, sign_masks
from .core import switch  # unused here; perfbench/tracing.py patches signedgrids.colorers.switch
from .grids import GridSpec
from .grids import make_grid  # unused here; perfbench/tracing.py patches signedgrids.colorers.make_grid
from .hom import Homomorphism
from .props import pstar21_excluded_pairs

__all__ = [
    "ColoringInvariantError",
    "CandidateTrace",
    "compatible_colors",
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
    """Per-row candidate color sets produced by the triangular forward pass,
    one int bitmask over the target vertices per cell of the bounding grid."""

    rows: tuple[tuple[int, ...], ...]

    def min_size(self) -> int:
        return min(s.bit_count() for row in self.rows for s in row)


def _members(colors: int) -> list[int]:
    """The colors of a bitmask, ascending."""
    return [c for c in range(colors.bit_length()) if colors >> c & 1]


def _lowest(colors: int) -> int:
    return (colors & -colors).bit_length() - 1


def compatible_colors(
    h: SignedGraph, constraints: Iterable[tuple[int, int]]
) -> list[int]:
    """Target vertices adjacent to every ``(image, sign)`` constraint, ascending.

    With no constraints every vertex of ``h`` qualifies.
    """
    masks = sign_masks(h)
    cands = (1 << h.n) - 1
    for image, s in constraints:
        cands &= masks[s][image]
    return _members(cands)


def _require_grid(g: SignedGraph, kind: str) -> GridSpec:
    spec = g.grid
    if not isinstance(spec, GridSpec) or spec.kind != kind:
        raise ValueError(f"input must carry {kind} grid metadata")
    return spec


def _sign_reader(g: SignedGraph, spec: GridSpec) -> Callable[[int, int], int]:
    """Sign between two cells given by bounding-grid ids; ``+`` where the
    mask drops a cell or the graph lacks the edge."""
    vertex = [-1] * (spec.rows * spec.cols)
    adj: list[dict[int, int]] = [{}] * (spec.rows * spec.cols)  # a dropped cell has no edges
    for v, (i, j) in enumerate(spec.cells()):
        vertex[(i - 1) * spec.cols + (j - 1)] = v
        adj[(i - 1) * spec.cols + (j - 1)] = g.neighbors(v)
    return lambda a, b: adj[a].get(vertex[b], POS)


# ---------------------------------------------------------------------------
# Hexagonal grids -> doubled T4.
# ---------------------------------------------------------------------------


def normalize_hex(g: SignedGraph) -> tuple[Callable[[int, int], int], frozenset[int]]:
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

    Returns the switched grid's signs as a reader ``sign(a, b)`` over
    bounding-grid ids, not as a switched copy, and the switch set (double
    switches cancel) as bounding-grid ids, which are the vertex ids of an
    unmasked grid.
    """
    spec = _require_grid(g, "hex")
    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    sign = _sign_reader(g, spec)
    flip = [POS] * (rows * cols)  # NEG at a switched vertex

    def live_sign(a: int, b: int) -> int:
        return sign(a, b) * flip[a] * flip[b]

    for i in range(2, rows + 2):
        for j in range(1, cols + 1):
            if (i + j) % 2 == 0:
                continue
            cur = vid(i, j) if i <= rows else None
            up = vid(i - 1, j)
            upright = vid(i - 1, j + 1) if j < cols else None
            sv = live_sign(cur, up) if cur is not None else POS
            sh = live_sign(up, upright) if upright is not None else POS
            if sv == NEG and sh == NEG:
                flip[up] = -flip[up]
            elif sv == POS and sh == NEG:
                if cur is not None:
                    flip[cur] = -flip[cur]
                flip[up] = -flip[up]
            elif sv == NEG and sh == POS:
                flip[cur] = -flip[cur]
    switched = frozenset(k for k, f in enumerate(flip) if f == NEG)
    return live_sign, switched


def color_hex(g: SignedGraph) -> Homomorphism:
    """Color a signed hexagonal grid into the doubled T4 target.

    Returns an exact sign-preserving homomorphism of the *original* graph
    (empty switch set, target :func:`signedgrids.core.rho_t4`).  Raises
    :class:`ColoringInvariantError` only on an internal bug; every grid is
    colorable.
    """
    spec = _require_grid(g, "hex")
    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    sign, switched = normalize_hex(g)
    rho = rho_t4()
    masks = sign_masks(rho.graph)
    everyone = (1 << rho.n) - 1
    half = rho.n // 2  # the doubling puts the twin of c at (c + half) % rho.n
    excluded = pstar21_excluded_pairs(rho)
    group_of = {0: (0, 3), 3: (0, 3), 1: (1, 2), 2: (1, 2)}
    # per color of the diagonal: the colors whose identity is outside its group
    outside_group = [
        sum(1 << c for c in range(rho.n) if rho.identity(c) not in group_of[rho.identity(d)])
        for d in range(rho.n)
    ]
    phi = [-1] * (rows * cols)

    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            cur = vid(i, j)
            if (i + j) % 2 == 0:
                # one earlier neighbor at most: the vertex straight above
                if i == 1:
                    cands = everyone
                else:
                    up = vid(i - 1, j)
                    cands = masks[sign(up, cur)][phi[up]]
                    twins = (cands >> half | cands << half) & everyone
                    if cands.bit_count() < 3 or cands & twins:
                        raise ColoringInvariantError(
                            f"single-constraint candidates degenerate at ({i},{j}): {_members(cands)}"
                        )
                if i >= 2 and j < cols:
                    # keep this color's identity group disjoint from the
                    # diagonal's, so the vertex below-right of the diagonal
                    # later sees a pair with a common positive neighbor
                    cands &= outside_group[phi[vid(i - 1, j + 1)]]
            else:
                cands = everyone
                if i >= 2:
                    up = vid(i - 1, j)
                    if sign(up, cur) != POS:
                        raise ColoringInvariantError(
                            f"vertical scaffold edge above ({i},{j}) not positive"
                        )
                    cands &= masks[POS][phi[up]]
                if j >= 2:
                    left = vid(i, j - 1)
                    if sign(left, cur) != POS:
                        raise ColoringInvariantError(
                            f"horizontal scaffold edge left of ({i},{j}) not positive"
                        )
                    cands &= masks[POS][phi[left]]
                if i >= 2 and j >= 2:
                    a, b = phi[up], phi[left]
                    if a == b or rho.twin(a) == b or frozenset({a, b}) in excluded:
                        raise ColoringInvariantError(
                            f"invalid color pair {a},{b} ahead of ({i},{j})"
                        )
            if not cands:
                raise ColoringInvariantError(f"no candidate at ({i},{j})")
            phi[cur] = _lowest(cands)

    # undo the normalization: switched vertices take their antitwin image
    final = [rho.twin(c) if k in switched else c for k, c in enumerate(phi)]
    return Homomorphism(tuple(final[vid(i, j)] for i, j in spec.cells()))


# ---------------------------------------------------------------------------
# Triangular grids -> doubled SP9 plus universal vertex.
# ---------------------------------------------------------------------------


def color_tri(g: SignedGraph) -> tuple[Homomorphism, CandidateTrace]:
    """Color a signed triangular grid into the doubled SP9-plus target.

    Row by row: the forward pass builds, for each vertex of the current row,
    the full set of target vertices compatible with its two colored neighbors
    in the row above and reachable from some candidate of its left neighbor
    across the row edge (the OR of that edge's sign masks over the left
    neighbor's set).  Every such set provably has at least 2 elements
    (checked, never expected to fail).  The backward pass then fixes the row
    right to left, each vertex taking the lowest candidate compatible with
    its right neighbor's choice.  Returns the homomorphism (empty switch set,
    target :func:`signedgrids.core.rho_sp9_plus`) and the trace of candidate
    sets.
    """
    spec = _require_grid(g, "tri")
    rows, cols = spec.rows, spec.cols
    vid = lambda r, c: (r - 1) * cols + (c - 1)
    sign = _sign_reader(g, spec)
    target = rho_sp9_plus().graph
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
    trace_rows = []

    for r in range(1, rows + 1):
        sets: list[int] = []
        for c in range(1, cols + 1):
            cur = vid(r, c)
            cands = everyone
            if r >= 2:
                up = vid(r - 1, c)
                cands &= masks[sign(up, cur)][phi[up]]
                if c < cols:
                    upright = vid(r - 1, c + 1)
                    cands &= masks[sign(upright, cur)][phi[upright]]
            if c >= 2:
                cands &= reachable(sets[-1], sign(cur - 1, cur))
            if cands.bit_count() < 2:
                raise ColoringInvariantError(
                    f"candidate set at ({r},{c}) has {cands.bit_count()} < 2 colors"
                )
            sets.append(cands)
        trace_rows.append(tuple(sets))

        # backward pass: commit the row right to left
        choice = [-1] * cols
        choice[cols - 1] = _lowest(sets[cols - 1])
        for c in range(cols - 1, 0, -1):
            s_row = sign(vid(r, c), vid(r, c + 1))
            feasible = sets[c - 1] & masks[s_row][choice[c]]
            if not feasible:
                raise ColoringInvariantError(
                    f"backward pass stuck at ({r},{c}); forward filter broken"
                )
            choice[c - 1] = _lowest(feasible)
        for c in range(1, cols + 1):
            phi[vid(r, c)] = choice[c - 1]

    mapping = tuple(phi[vid(r, c)] for r, c in spec.cells())
    return Homomorphism(mapping), CandidateTrace(tuple(trace_rows))
