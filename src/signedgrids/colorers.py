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

Both algorithms are deterministic: ties break toward the smallest target
vertex id in the fixed target ordering.  On masked grids the full bounding
grid is colored (absent edges filled positive) and the mapping restricted,
which is valid because restricting a homomorphism to an induced subgraph
keeps it a homomorphism.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .core import NEG, POS, AntitwinnedGraph, SignedGraph, rho_sp9_plus, rho_t4, switch
from .grids import GridSpec, make_grid
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
    """Per-row candidate color sets produced by the triangular forward pass."""

    rows: tuple[tuple[frozenset[int], ...], ...]

    def min_size(self) -> int:
        return min(len(s) for row in self.rows for s in row)


def compatible_colors(
    h: SignedGraph, constraints: Iterable[tuple[int, int]]
) -> list[int]:
    """Target vertices adjacent to every ``(image, sign)`` constraint, ascending.

    With no constraints every vertex of ``h`` qualifies.
    """
    cands: frozenset[int] | None = None
    for image, s in constraints:
        nbrs = h.signed_neighbors(image, s)
        cands = nbrs if cands is None else cands & nbrs
    if cands is None:
        return list(range(h.n))
    return sorted(cands)


def _require_grid(g: SignedGraph, kind: str) -> GridSpec:
    spec = g.grid
    if not isinstance(spec, GridSpec) or spec.kind != kind:
        raise ValueError(f"input must carry {kind} grid metadata")
    return spec


def _fill_bounding(g: SignedGraph) -> tuple[SignedGraph, list[int]]:
    """Extend a masked grid to its full bounding grid, filling with +1.

    Returns the full grid and, per masked vertex, its id in the full grid.
    """
    spec: GridSpec = g.grid
    full = spec.unmasked()
    index = {c: k for k, c in enumerate(spec.cells())}
    signature = {}
    for a, b in full.edges():
        if a in index and b in index:
            signature[(a, b)] = g.sign(index[a], index[b])
        else:
            signature[(a, b)] = POS
    full_g = make_grid(full, signature)
    full_index = {c: k for k, c in enumerate(full.cells())}
    return full_g, [full_index[c] for c in spec.cells()]


# ---------------------------------------------------------------------------
# Hexagonal grids -> doubled T4.
# ---------------------------------------------------------------------------


def normalize_hex(g: SignedGraph) -> tuple[SignedGraph, frozenset[int]]:
    """Switch a full hexagonal grid so the coloring scaffold is all positive.

    Scans positions ``(i, j)`` with ``i + j`` odd in row-major order, for
    ``i`` from 2 to one row past the grid.  Each position looks at the sign
    pair (vertical edge up to ``(i-1, j)``, horizontal edge ``(i-1, j)`` to
    ``(i-1, j+1)``) and switches so both come out positive:

    * ``(-,-)``: switch ``(i-1, j)``
    * ``(+,-)``: switch ``(i, j)`` and ``(i-1, j)``
    * ``(-,+)``: switch ``(i, j)``

    A missing edge counts as positive and a missing vertex is never switched,
    which covers the right boundary (no horizontal edge) and the virtual row
    below the grid (no vertical edge; only the last row's horizontal edges
    remain to fix).  Later positions never disturb edges already processed.
    Returns the switched grid and the switch set (double switches cancel).
    """
    spec = _require_grid(g, "hex")
    if spec.mask is not None:
        raise ValueError("normalize_hex expects a full grid; extend masks first")
    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    flip = [False] * g.n

    def live_sign(a: int, b: int) -> int:
        s = g.sign(a, b)
        return -s if flip[a] != flip[b] else s

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
                flip[up] = not flip[up]
            elif sv == POS and sh == NEG:
                if cur is not None:
                    flip[cur] = not flip[cur]
                flip[up] = not flip[up]
            elif sv == NEG and sh == POS:
                flip[cur] = not flip[cur]
    switched = frozenset(v for v in range(g.n) if flip[v])
    return switch(g, switched), switched


def _antitwin_free(rho: AntitwinnedGraph, colors: list[int]) -> bool:
    return all(rho.twin(c) not in colors for c in colors)


def color_hex(g: SignedGraph) -> Homomorphism:
    """Color a signed hexagonal grid into the doubled T4 target.

    Returns an exact sign-preserving homomorphism of the *original* graph
    (empty switch set, target :func:`signedgrids.core.rho_t4`).  Raises
    :class:`ColoringInvariantError` only on an internal bug; every grid is
    colorable.
    """
    spec = _require_grid(g, "hex")
    if spec.mask is not None:
        full, restrict = _fill_bounding(g)
        inner = color_hex(full)
        return Homomorphism(tuple(inner.mapping[k] for k in restrict))

    rows, cols = spec.rows, spec.cols
    vid = lambda i, j: (i - 1) * cols + (j - 1)
    normalized, switched = normalize_hex(g)
    rho = rho_t4()
    target = rho.graph
    excluded = pstar21_excluded_pairs(rho)
    group_of = {0: (0, 3), 3: (0, 3), 1: (1, 2), 2: (1, 2)}
    phi = [-1] * g.n

    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            cur = vid(i, j)
            if (i + j) % 2 == 0:
                # one earlier neighbor at most: the vertex straight above
                if i == 1:
                    cands = list(range(target.n))
                else:
                    up = vid(i - 1, j)
                    cands = compatible_colors(
                        target, [(phi[up], normalized.sign(up, cur))]
                    )
                    if len(cands) < 3 or not _antitwin_free(rho, cands):
                        raise ColoringInvariantError(
                            f"single-constraint candidates degenerate at ({i},{j}): {cands}"
                        )
                if i >= 2 and j < cols:
                    # keep this color's identity group disjoint from the
                    # diagonal's, so the vertex below-right of the diagonal
                    # later sees a pair with a common positive neighbor
                    diag = phi[vid(i - 1, j + 1)]
                    banned = group_of[rho.identity(diag)]
                    cands = [c for c in cands if rho.identity(c) not in banned]
                if not cands:
                    raise ColoringInvariantError(f"no candidate at ({i},{j})")
                phi[cur] = cands[0]
            else:
                constraints = []
                if i >= 2:
                    up = vid(i - 1, j)
                    s = normalized.sign(up, cur)
                    if s != POS:
                        raise ColoringInvariantError(
                            f"vertical scaffold edge above ({i},{j}) not positive"
                        )
                    constraints.append((phi[up], s))
                if j >= 2:
                    left = vid(i, j - 1)
                    s = normalized.sign(left, cur)
                    if s != POS:
                        raise ColoringInvariantError(
                            f"horizontal scaffold edge left of ({i},{j}) not positive"
                        )
                    constraints.append((phi[left], s))
                if len(constraints) == 2:
                    a, b = constraints[0][0], constraints[1][0]
                    if a == b or rho.twin(a) == b or frozenset({a, b}) in excluded:
                        raise ColoringInvariantError(
                            f"invalid color pair {a},{b} ahead of ({i},{j})"
                        )
                cands = compatible_colors(target, constraints)
                if not cands:
                    raise ColoringInvariantError(f"no candidate at ({i},{j})")
                phi[cur] = cands[0]

    # undo the normalization: switched vertices take their antitwin image
    final = [rho.twin(c) if v in switched else c for v, c in enumerate(phi)]
    return Homomorphism(tuple(final))


# ---------------------------------------------------------------------------
# Triangular grids -> doubled SP9 plus universal vertex.
# ---------------------------------------------------------------------------


def color_tri(g: SignedGraph) -> tuple[Homomorphism, CandidateTrace]:
    """Color a signed triangular grid into the doubled SP9-plus target.

    Row by row: the forward pass builds, for each vertex of the current row,
    the full set of target vertices compatible with its two colored neighbors
    in the row above and reachable from some candidate of its left neighbor
    across the row edge.  Every such set provably has at least 2 elements
    (checked, never expected to fail).  The backward pass then fixes the row
    right to left.  Returns the homomorphism (empty switch set, target
    :func:`signedgrids.core.rho_sp9_plus`) and the trace of candidate sets.
    """
    spec = _require_grid(g, "tri")
    if spec.mask is not None:
        full, restrict = _fill_bounding(g)
        inner, trace = color_tri(full)
        mapping = tuple(inner.mapping[k] for k in restrict)
        return Homomorphism(mapping), trace

    rows, cols = spec.rows, spec.cols
    vid = lambda r, c: (r - 1) * cols + (c - 1)
    target = rho_sp9_plus().graph
    phi = [-1] * g.n
    trace_rows = []

    for r in range(1, rows + 1):
        sets: list[frozenset[int]] = []
        for c in range(1, cols + 1):
            cur = vid(r, c)
            constraints = []
            if r >= 2:
                up = vid(r - 1, c)
                constraints.append((phi[up], g.sign(up, cur)))
                if c < cols:
                    upright = vid(r - 1, c + 1)
                    constraints.append((phi[upright], g.sign(upright, cur)))
            cands = compatible_colors(target, constraints)
            if c >= 2:
                left = vid(r, c - 1)
                s_row = g.sign(left, cur)
                prev = sets[-1]
                cands = [
                    t for t in cands if any(target.status(p, t) == s_row for p in prev)
                ]
            if len(cands) < 2:
                raise ColoringInvariantError(
                    f"candidate set at ({r},{c}) has {len(cands)} < 2 colors"
                )
            sets.append(frozenset(cands))
        trace_rows.append(tuple(sets))

        # backward pass: commit the row right to left
        choice = [-1] * cols
        choice[cols - 1] = min(sets[cols - 1])
        for c in range(cols - 1, 0, -1):
            s_row = g.sign(vid(r, c), vid(r, c + 1))
            nxt = choice[c]
            feasible = [p for p in sorted(sets[c - 1]) if target.status(p, nxt) == s_row]
            if not feasible:
                raise ColoringInvariantError(
                    f"backward pass stuck at ({r},{c}); forward filter broken"
                )
            choice[c - 1] = feasible[0]
        for c in range(1, cols + 1):
            phi[vid(r, c)] = choice[c - 1]

    return Homomorphism(tuple(phi)), CandidateTrace(tuple(trace_rows))
