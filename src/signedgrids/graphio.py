"""JSON and DOT serialization.

The JSON graph object is ``{"n": int, "edges": [[u, v, s], ...]}`` with
optional ``"labels"`` (list of strings) and ``"grid"`` metadata
(``{"kind": "hex"|"tri", "rows": R, "cols": C}`` plus an optional ``"mask"``
list of ``[i, j]`` cells).  A :class:`~signedgrids.hom.Homomorphism` witness
``(mapping, switch_set)`` serializes as ``{"kind": "signed", "mapping": [...],
"switch": [...], "target": {graph}}``.  ``"kind"`` exists only in the file
format: ``"signed"`` (the default when absent) reads the switch list, ``"ec"``
means an empty switch set and ignores any ``"switch"`` list, and any other
kind is rejected with ``ValueError``.  So are a certificate that is not an
object, a ``"mapping"`` or ``"switch"`` that is not a list, and an entry in
them that is not an integer (``null``, ``1.5``, ``true``).

A graph object is rejected with ``ValueError`` too when it is not an object,
its ``"n"`` is not an integer, its ``"edges"`` is not a list of ``[u, v, s]``
integer triples, its ``"labels"`` is not a list of strings, or its
``"grid"`` is not an object with integer ``"rows"``/``"cols"`` and a
``"mask"`` list of ``[i, j]`` integer pairs.

A graph object with a ``"grid"`` reads as a
:class:`~signedgrids.grids.SignedGrid`, and no
:class:`~signedgrids.core.SignedGraph` is built.  If it lists the grid's
:meth:`~signedgrids.grids.GridSpec.edge_count` of edges, the loader first
checks in bulk, with C-level iterators and no per-edge Python code, that
they are exactly the grid's edges in their own order
(:meth:`~signedgrids.grids.GridSpec.edge_columns`): every entry a list of
three values of type exactly ``int``, the tails and heads the grid's
columns, every sign +1 or -1.  The grid then keeps the file's sign column,
the tuple that check read, as its signs.  Every other edge list goes
through a per-edge loop, the one path that accepts a permuted file and the
one that words every error: each edge is streamed into its slot
``3*u + d`` of a scratch slot array (see :mod:`signedgrids.grids`), for its
smaller end ``u`` and the direction ``d`` of the step, and the filled
slots, in order, become the sign column.  A masked grid's slot array has
slots for the retained cells only, so loading it costs time and memory in
proportion to the mask, however large the box.  An edge between cells that
are not grid neighbors (no direction, by
:meth:`~signedgrids.grids.GridSpec.direction`, or a slot without an edge),
or a missing grid edge (the first empty slot, named by bounding-id
arithmetic), is named in the error.  Every other graph object reads as a
:class:`~signedgrids.core.SignedGraph`.  Both writers,
:func:`graph_to_dict` and :func:`graph_to_dot`, read a grid's ``[u, v, s]``
rows from its columns and a graph's from its sorted edges; only a
:class:`~signedgrids.grids.SignedGrid` gets a ``"grid"``.

Artifacts are written as ``json.dumps(value, indent=2, sort_keys=True,
cls=ArtifactEncoder)``.  :class:`ArtifactEncoder` gives the same text as the
standard encoder, byte for byte, but builds it as a list of pieces joined
once, with one %-format per chunk of :data:`ROW_CHUNK` int rows, instead of
the standard encoder's pure-Python generators, which CPython falls back to
whenever an indent is set.

DOT output renders positive edges solid and negative edges dashed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from bisect import bisect_left
from itertools import chain, compress
from operator import itemgetter

from .core import SignedGraph
from .grids import GridSpec, SignedGrid, is_sign_column
from .hom import Homomorphism


def grid_to_dict(spec: GridSpec) -> dict:
    out = {"kind": spec.kind, "rows": spec.rows, "cols": spec.cols}
    if spec.mask is not None:
        out["mask"] = sorted([i, j] for i, j in spec.mask)
    return out


def _int_list(entries, what: str) -> list[int]:
    if not isinstance(entries, list):
        raise ValueError(f"{what} must be a list")
    for x in entries:
        if type(x) is not int:  # exact type: true is a bool, and int() would truncate 1.5
            raise ValueError(f"{what} entry {x!r} is not an integer")
    return entries


def grid_from_dict(d: Mapping) -> GridSpec:
    if not isinstance(d, Mapping):
        raise ValueError("grid metadata must be a JSON object")
    rows, cols = d.get("rows"), d.get("cols")
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"grid 'rows' {rows!r} and 'cols' {cols!r} must be integers")
    mask = None
    if "mask" in d:
        cells = d["mask"]
        if not isinstance(cells, list):
            raise ValueError("grid 'mask' must be a list")
        for cell in cells:
            if len(_int_list(cell, "grid 'mask' cell")) != 2:
                raise ValueError(f"grid 'mask' cell {cell!r} is not an [i, j] pair")
        mask = frozenset((i, j) for i, j in cells)
    return GridSpec(d.get("kind"), rows, cols, mask)


def graph_to_dict(g: SignedGraph | SignedGrid) -> dict:
    is_grid = isinstance(g, SignedGrid)
    out: dict = {"n": g.n, "edges": list(map(list, zip(*g.columns) if is_grid else g.edges))}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    if is_grid:
        out["grid"] = grid_to_dict(g.grid)
    return out


def _listed_signs(raw: list, tails: tuple[int, ...], heads: tuple[int, ...]) -> tuple[int, ...] | None:
    """The signs of ``raw`` if it is exactly ``[[tails[k], heads[k], s_k], ...]``
    with every entry of type ``int`` and every ``s_k`` +1 or -1, else None.

    Checked in bulk, a column at a time, by C-level iterators; no per-edge
    Python code runs, and no more than one column is copied at once.
    """
    if not set(map(type, raw)) <= {list} or not set(map(len, raw)) <= {3}:
        return None
    for k, expected in ((0, tails), (1, heads)):
        column = tuple(map(itemgetter(k), raw))
        if column != expected or not set(map(type, column)) <= {int}:
            return None
    signs = tuple(map(itemgetter(2), raw))
    return signs if is_sign_column(signs) else None


def graph_from_dict(d: Mapping) -> SignedGraph | SignedGrid:
    """Read a graph object; raise ``ValueError`` on any malformed or inconsistent field.

    With a ``"grid"`` the result is a :class:`SignedGrid`.  An edge list
    that is exactly the grid's, in order, is checked in bulk and its sign
    column kept as the grid's signs; only a list of the grid's edge count is
    tried that way.  Otherwise each edge is checked to join
    two neighboring retained cells by the direction of the step between
    their bounding ids and then fills its slot.  A bad sign or a slot filled
    twice (a duplicate edge, in either orientation) is reported only once
    every edge has passed the structural checks, with the message and
    precedence a :class:`SignedGraph` gives it.  Since duplicates are
    rejected, a count of filled slots below the grid's edge count means a
    missing edge, which is then named.
    """
    if not isinstance(d, Mapping):
        raise ValueError("graph must be a JSON object")
    n = d.get("n")
    if type(n) is not int:
        raise ValueError(f"graph 'n' {n!r} is not an integer")
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise ValueError("graph 'edges' must be a list")
    labels = d.get("labels")
    if "labels" in d and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError("graph 'labels' must be a list of strings")
    grid = grid_from_dict(d["grid"]) if "grid" in d else None
    if grid is not None:
        size = grid.rows * grid.cols if grid.mask is None else len(grid.mask)
        if n != size:
            raise ValueError(f"graph 'n' is {n}, but its grid has {size} cells")
        # the edge columns are built only for a list of the grid's length
        listed = _listed_signs(raw, *grid.edge_columns()) if len(raw) == grid.edge_count() else None
        if listed is not None:
            if labels is not None and len(labels) != n:
                raise ValueError("labels must cover every vertex")
            return SignedGrid(grid, listed, None if labels is None else tuple(labels))
        pattern = grid.slot_pattern()
        where, direction = grid.bounding_ids(), grid.direction
        slots = bytearray(len(pattern))
        later = None  # the first bad sign or duplicate
    for e in raw:
        if type(e) is not list or len(e) != 3:
            raise ValueError(f"edge {e!r} is not a [u, v, sign] triple")
        u, v, s = e
        if type(u) is not int or type(v) is not int or type(s) is not int:
            raise ValueError(f"edge {e!r} has an entry that is not an integer")
        if grid is not None:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} has an endpoint out of range [0,{n})")
            lo, hi = (u, v) if u < v else (v, u)
            d = direction(where[lo], where[hi])
            p = 3 * lo + d
            if d < 0 or not pattern[p]:
                raise ValueError(f"edge {e!r} does not join neighboring cells of the {grid.kind} grid")
            if later is not None:
                continue
            if s != 1 and s != -1:
                later = f"edge sign must be +1 or -1, got {s!r}"
            elif slots[p]:
                later = f"duplicate edge ({u},{v})"
            else:
                slots[p] = s & 0xFF
    if grid is None:
        return SignedGraph(n, raw, labels=labels)
    if later is not None:
        raise ValueError(later)
    if labels is not None and len(labels) != n:
        raise ValueError("labels must cover every vertex")
    if slots.count(0) != pattern.count(0):
        # the first empty slot of the pattern; vertex ids keep the order of bounding ids
        p = next(p for p in compress(range(len(pattern)), pattern) if not slots[p])
        x, cols = where[p // 3], grid.cols
        y = x + (1, cols - 1, cols)[p % 3]
        a, b = (x // cols + 1, x % cols + 1), (y // cols + 1, y % cols + 1)
        raise ValueError(f"grid edge {a}-{b} (vertices {p // 3}, {bisect_left(where, y)}) is missing")
    signs = tuple(compress(memoryview(slots).cast("b"), slots))
    return SignedGrid(grid, signs, None if labels is None else tuple(labels))


def hom_to_dict(hom: Homomorphism, target: SignedGraph) -> dict:
    return {
        "kind": "signed",
        "mapping": list(hom.mapping),
        "switch": sorted(hom.switch_set),
        "target": graph_to_dict(target),
    }


def hom_from_dict(d: Mapping) -> tuple[Homomorphism, SignedGraph]:
    if not isinstance(d, Mapping):
        raise ValueError("certificate must be a JSON object")
    target = graph_from_dict(d.get("target"))
    if isinstance(target, SignedGrid):  # a target is searched and verified against as a graph
        target = target.graph()
    mapping = tuple(_int_list(d.get("mapping"), "certificate 'mapping'"))
    kind = d.get("kind", "signed")
    if kind == "ec":
        return Homomorphism(mapping), target
    if kind != "signed":
        raise ValueError(f"unknown certificate kind {kind!r}")
    return Homomorphism(mapping, frozenset(_int_list(d.get("switch", []), "certificate 'switch'"))), target


class _Unsupported(Exception):
    """A value outside the subset that :class:`ArtifactEncoder` renders itself."""


# rows per %-format in an int-row block of ArtifactEncoder
ROW_CHUNK = 2048


class ArtifactEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` whose indented output is built with ``str.join``.

    CPython's C encoder serves only ``indent=None``; with an indent every
    value goes through the pure-Python generator encoder, one chunk per
    token.  This class renders the same text directly, as a list of pieces
    joined once: dicts with ``str`` keys, lists and tuples, with fast paths
    for a list of ints and a list of non-empty int lists (a mapping, an edge
    list), and scalars.  An int-row block is rendered :data:`ROW_CHUNK` rows
    at a time, one %-format per chunk.  It honours ``indent``,
    ``sort_keys``, ``separators``, ``ensure_ascii`` and ``allow_nan``.  Any
    other value (a non-``str`` key, a type needing ``default``, a float that
    is not finite) and a circular or deeply nested value go through the
    base class, so the output always equals ``json.dumps`` with the same
    arguments.
    """

    def encode(self, o) -> str:
        if self.indent is None:
            return super().encode(o)
        text = _Rendering(self)
        try:
            text.render(o, "\n")
        except (_Unsupported, RecursionError):
            return super().encode(o)
        return "".join(text.pieces)


class _Rendering:
    """One indented rendering by :class:`ArtifactEncoder`: its options and
    the pieces of text put so far.  Methods, not closures, so that a
    rendering leaves no reference cycle behind."""

    def __init__(self, encoder: ArtifactEncoder):
        indent = encoder.indent
        self.step = indent if isinstance(indent, str) else " " * indent
        self.string = json.encoder.encode_basestring_ascii if encoder.ensure_ascii else json.encoder.encode_basestring
        self.comma, self.colon, self.sort_keys = encoder.item_separator, encoder.key_separator, encoder.sort_keys
        self.pieces: list[str] = []
        self.put = self.pieces.append

    def render(self, o, nl: str) -> None:
        # ``nl`` is a newline plus the indent of the line that holds ``o``
        put, kind = self.put, type(o)
        if kind is str:
            put(self.string(o))
        elif kind is int:
            put(str(o))
        elif kind is dict:
            if not o:
                put("{}")
                return
            if set(map(type, o)) != {str}:
                raise _Unsupported
            inner = nl + self.step
            lead = "{" + inner
            for k, v in sorted(o.items()) if self.sort_keys else o.items():
                put(lead + self.string(k) + self.colon)
                self.render(v, inner)
                lead = self.comma + inner
            put(nl + "}")
        elif kind is list or kind is tuple:
            if not o:
                put("[]")
                return
            inner = nl + self.step
            put("[" + inner)
            kinds = set(map(type, o))
            if kinds == {int}:
                put((self.comma + inner).join(map(str, o)))
            elif not (kinds <= {list, tuple} and all(o) and self.int_rows(o, inner)):
                for k, x in enumerate(o):
                    if k:
                        put(self.comma + inner)
                    self.render(x, inner)
            put(nl + "]")
        elif o is None:
            put("null")
        elif kind is bool:
            put("true" if o else "false")
        elif kind is float and math.isfinite(o):
            put(float.__repr__(o))
        else:
            raise _Unsupported

    def int_rows(self, rows, inner: str) -> bool:
        # rows of ints, a chunk at a time: one %-format over the chunk's
        # ints, with a template per row length; False, with nothing put, if
        # an entry is not an int
        pieces, put, comma = self.pieces, self.put, self.comma
        start, row = len(pieces), inner + self.step
        head, sep, tail, joint = (
            t.replace("%", "%%") for t in ("[" + row, comma + row, inner + "]", comma + inner)
        )
        templates = {n: head + sep.join(["%d"] * n) + tail for n in set(map(len, rows))}
        for k in range(0, len(rows), ROW_CHUNK):
            chunk = rows[k : k + ROW_CHUNK]
            flat = tuple(chain.from_iterable(chunk))
            if set(map(type, flat)) != {int}:
                del pieces[start:]
                return False
            if k:
                put(comma + inner)
            put(joint.join(map(templates.__getitem__, map(len, chunk))) % flat)
        return True


def graph_to_dot(
    g: SignedGraph | SignedGrid,
    name: str = "G",
    annotations: Sequence[str] | None = None,
) -> str:
    """Render as graphviz source: solid edges positive, dashed negative.

    ``annotations``, when given, override the node labels (one per vertex).
    A ``\\`` or ``"`` in a label is escaped in the quoted DOT string.
    """
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        text = annotations[v] if annotations is not None else g.label(v)
        text = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{text}"];')
    for u, v, s in zip(*g.columns) if isinstance(g, SignedGrid) else g.edges:
        style = "solid" if s == 1 else "dashed"
        lines.append(f"  {u} -- {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
