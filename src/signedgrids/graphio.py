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
three values, the tails and heads of type exactly ``int`` and the grid's
columns.  The file's sign column goes to the
:class:`~signedgrids.grids.SignedGrid` constructor, whose check is the
load's one check of the signs, and the grid keeps it as its signs.  A bad
sign, and every other edge list, goes through a per-edge loop, the one
path that accepts a permuted file and the one that words every error: each edge is keyed by its slot ``3*u + d``
(see :mod:`signedgrids.grids`), for its smaller end ``u`` and the direction
``d`` of the step, in one dict from slot to sign, and each slot is tested
by :meth:`~signedgrids.grids.GridSpec.has_slot`.  If every slot with an
edge is filled, the dict's values in slot order become the sign column.
An unmasked grid's slots are tested by arithmetic and no slot pattern is
built, so a list that cannot load costs time and memory in proportion to
the file, however large the grid it claims.  A masked grid has slots for
the retained cells only, so it costs in proportion to the mask, however
large the box.  An edge between cells that are not grid neighbors (no
direction, by :meth:`~signedgrids.grids.GridSpec.direction`, or a slot
without an edge), or a missing grid edge (the first empty slot with an
edge, named by bounding-id arithmetic), is named in the error.  Every
other graph object reads as a :class:`~signedgrids.core.SignedGraph`.
Every writer, :func:`graph_to_dict`, :func:`graph_to_dot` and
:class:`ArtifactEncoder`, reads a grid's ``[u, v, s]`` rows from its
columns and a graph's from its sorted edges; only a
:class:`~signedgrids.grids.SignedGrid` gets a ``"grid"``.  Both graph types
check their entries when built, so a writer meets only valid graphs.

Artifacts are written from ``json.dumps(value, indent=2, sort_keys=True,
cls=ArtifactEncoder, joined=False)``, a :class:`Text` whose pieces are
written one after the other and never joined.  That is the one format
:class:`ArtifactEncoder` writes; built with any other options it raises
``ValueError``.  The value may hold a :class:`~signedgrids.grids.SignedGrid`
or a :class:`~signedgrids.core.SignedGraph` itself: the encoder renders its
small fields through the dict path and its edges straight from the grid's
columns or the graph's sorted edges, one %-format per chunk of
:data:`EDGE_CHUNK` edges, and builds no per-edge list.  The text is the
standard encoder's on the value with every graph replaced by its
:func:`graph_to_dict`, byte for byte.  A value it cannot render (a
non-``str`` key, another type, a float that is not finite) raises, as the
standard encoder would without a ``default``.

DOT output renders positive edges solid and negative edges dashed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, count, islice
from operator import itemgetter

from .core import SignedGraph
from .grids import GridSpec, SignedGrid


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


def _edge_rows(g: SignedGraph | SignedGrid) -> Iterable[tuple[int, int, int]]:
    """The ``(u, v, s)`` rows a graph object lists: a grid's from its
    columns, a graph's its sorted edges."""
    return zip(*g.columns) if isinstance(g, SignedGrid) else g.edges


def _graph_fields(g: SignedGraph | SignedGrid, edges) -> dict:
    """The graph object of ``g``, with ``edges`` as its edge list."""
    out: dict = {"n": g.n, "edges": edges}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    if isinstance(g, SignedGrid):
        out["grid"] = grid_to_dict(g.grid)
    return out


def graph_to_dict(g: SignedGraph | SignedGrid) -> dict:
    return _graph_fields(g, list(map(list, _edge_rows(g))))


def _listed_signs(raw: list, tails: tuple[int, ...], heads: tuple[int, ...]) -> tuple | None:
    """The third entries of ``raw`` if it is exactly ``[[tails[k], heads[k],
    s_k], ...]`` with every tail and head of type ``int``, else None; the
    signs are left to :class:`SignedGrid` to check.

    Checked in bulk, a column at a time, by C-level iterators; no per-edge
    Python code runs, and no more than one column is copied at once.
    """
    if not set(map(type, raw)) <= {list} or not set(map(len, raw)) <= {3}:
        return None
    for k, expected in ((0, tails), (1, heads)):
        column = tuple(map(itemgetter(k), raw))
        if column != expected or not set(map(type, column)) <= {int}:
            return None
    return tuple(map(itemgetter(2), raw))


def graph_from_dict(d: Mapping) -> SignedGraph | SignedGrid:
    """Read a graph object; raise ``ValueError`` on any malformed or inconsistent field.

    With a ``"grid"`` the result is a :class:`SignedGrid`.  An edge list
    that is exactly the grid's, in order, is checked in bulk and its sign
    column kept as the grid's signs; only a list of the grid's edge count is
    tried that way.  Otherwise each edge is checked to join
    two neighboring retained cells by the direction of the step between
    their bounding ids and :meth:`GridSpec.has_slot`, and then fills its
    slot in a dict from slot to sign.  A bad sign or a slot filled twice (a
    duplicate edge, in either orientation) is reported only once every edge
    has passed the structural checks, with the message and precedence a
    :class:`SignedGraph` gives it.  Since duplicates are rejected, a list
    that passes all that fills at most the grid's edge count of slots; if
    it fills fewer it is short, and its first missing edge is named.
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
        # the edge columns are built only for a list of the grid's length;
        # every other list fills a dict from slot to sign, and no pattern is
        # built for an unmasked grid
        listed = _listed_signs(raw, *grid.edge_columns()) if len(raw) == grid.edge_count() else None
        if listed is not None and (labels is None or len(labels) == n):
            try:
                return SignedGrid(grid, listed, None if labels is None else tuple(labels))
            except ValueError:
                pass  # a bad sign: the per-edge loop words the error
        where, direction, has_slot = grid.bounding_ids(), grid.direction, grid.has_slot
        slots: dict[int, int] = {}
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
            if d < 0 or not has_slot(p):
                raise ValueError(f"edge {e!r} does not join neighboring cells of the {grid.kind} grid")
            if later is not None:
                continue
            if s != 1 and s != -1:
                later = f"edge sign must be +1 or -1, got {s!r}"
            elif p in slots:
                later = f"duplicate edge ({u},{v})"
            else:
                slots[p] = s
    if grid is None:
        return SignedGraph(n, raw, labels=labels)
    if later is not None:
        raise ValueError(later)
    if labels is not None and len(labels) != n:
        raise ValueError("labels must cover every vertex")
    if len(slots) < grid.edge_count():
        # a short list (a long one repeats a slot): its first missing edge,
        # the first empty slot with an edge, lies among the first len(raw) + 1
        # edges; vertex ids keep the order of bounding ids
        p = next(p for p in count() if p not in slots and has_slot(p))
        x, cols = where[p // 3], grid.cols
        y = x + (1, cols - 1, cols)[p % 3]
        a, b = (x // cols + 1, x % cols + 1), (y // cols + 1, y % cols + 1)
        raise ValueError(f"grid edge {a}-{b} (vertices {p // 3}, {where.index(y)}) is missing")
    signs = tuple(map(slots.__getitem__, sorted(slots)))
    return SignedGrid(grid, signs, None if labels is None else tuple(labels))


def hom_to_dict(hom: Homomorphism, target: SignedGraph) -> dict:
    return {
        "kind": "signed",
        "mapping": list(hom.mapping),
        "switch": sorted(hom.switch_set),
        "target": graph_to_dict(target),
    }


def hom_from_dict(d: Mapping) -> tuple[Homomorphism, SignedGraph]:
    from .hom import Homomorphism

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


# edges per %-format in a graph's edge list, as ArtifactEncoder renders it
EDGE_CHUNK = 2048

# the options json.dumps(value, indent=2, sort_keys=True) builds its encoder
# with: the one format ArtifactEncoder writes
_ARTIFACT_FORMAT = dict(
    skipkeys=False, ensure_ascii=True, check_circular=True, allow_nan=True,
    indent=2, separators=None, default=None, sort_keys=True,
)


class _EdgeList:
    """A graph's edge list in a rendering: its rows, never built as lists."""

    __slots__ = ("rows", "count")

    def __init__(self, rows: Iterable[tuple[int, int, int]], count: int):
        self.rows, self.count = rows, count


class ArtifactEncoder:
    """The artifact writer: a ``cls`` for ``json.dumps(value, indent=2,
    sort_keys=True, cls=ArtifactEncoder)``, the one format it writes.

    CPython's C encoder serves only ``indent=None``; with an indent every
    value goes through the pure-Python generator encoder, one chunk per
    token.  This class renders the same text directly, as a list of
    pieces: dicts with ``str`` keys, lists and tuples, with a fast path for
    a list of ints (a mapping), ``None``, bools, ints, finite floats,
    strings, and graphs, each rendered as its :func:`graph_to_dict`.  Built
    with any other options it raises ``ValueError``.  A non-``str`` key or a
    value of any other type raises ``TypeError``, and a float that is not
    finite ``ValueError``.  So the text equals the standard encoder's with
    those options on the value with every graph replaced by its
    :func:`graph_to_dict`, or there is no text.

    With ``joined=False``, :meth:`encode`, and so ``json.dumps`` with this
    class, returns that text as a :class:`Text`, its pieces not joined.
    """

    def __init__(self, *, joined: bool = True, **options):
        other = {k: v for k, v in options.items() if k not in _ARTIFACT_FORMAT or _ARTIFACT_FORMAT[k] != v}
        if other:
            raise ValueError(f"ArtifactEncoder writes indent=2 and sorted keys only, not {other}")
        self.joined = joined

    def encode(self, o):
        pieces = self.iterencode(o)
        return "".join(pieces) if self.joined else Text(pieces)

    def iterencode(self, o) -> list[str]:
        text = _Rendering()
        text.render(o, "\n")
        return text.pieces


class Text:
    """An encoded text kept as its pieces, in order, never joined: what
    ``json.dumps(value, cls=ArtifactEncoder, joined=False)`` returns.
    ``len`` is the length of the text."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces

    def __len__(self) -> int:
        return sum(map(len, self.pieces))


_string = json.encoder.encode_basestring_ascii


class _Rendering:
    """One rendering by :class:`ArtifactEncoder`: the pieces of text put so
    far.  Methods, not closures, so that a rendering leaves no reference
    cycle behind."""

    def __init__(self):
        self.pieces: list[str] = []
        self.put = self.pieces.append

    def render(self, o, nl: str) -> None:
        # ``nl`` is a newline plus the indent of the line that holds ``o``
        put, kind = self.put, type(o)
        if kind is str:
            put(_string(o))
        elif kind is int:
            put(str(o))
        elif kind is dict:
            if not o:
                put("{}")
                return
            if set(map(type, o)) != {str}:
                raise TypeError(f"keys must be str, not {sorted({type(k).__name__ for k in o})}")
            inner = nl + "  "
            lead = "{" + inner
            for k, v in sorted(o.items()):
                put(lead + _string(k) + ": ")
                self.render(v, inner)
                lead = "," + inner
            put(nl + "}")
        elif kind is list or kind is tuple:
            if not o:
                put("[]")
                return
            inner = nl + "  "
            put("[" + inner)
            if set(map(type, o)) == {int}:
                put(("," + inner).join(map(str, o)))
            else:
                for k, x in enumerate(o):
                    if k:
                        put("," + inner)
                    self.render(x, inner)
            put(nl + "]")
        elif kind is SignedGrid or kind is SignedGraph:
            # valid as built: every entry an int, and a grid one sign per edge
            count = len(o.signs) if kind is SignedGrid else o.edge_count
            self.render(_graph_fields(o, _EdgeList(_edge_rows(o), count)), nl)
        elif kind is _EdgeList:
            self.edge_list(o, nl)
        elif o is None:
            put("null")
        elif kind is bool:
            put("true" if o else "false")
        elif kind is float:
            if not math.isfinite(o):
                raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
            put(float.__repr__(o))
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def edge_list(self, edges: _EdgeList, nl: str) -> None:
        # EDGE_CHUNK rows at a time: one %-format over the chunk's ints
        put, total = self.put, edges.count
        if not total:
            put("[]")
            return
        inner = nl + "  "
        row = inner + "  "
        one = f"[{row}%d,{row}%d,{row}%d{inner}]"
        joint = "," + inner
        size = min(total, EDGE_CHUNK)
        template = joint.join([one] * size)
        flat = chain.from_iterable(edges.rows)
        put("[" + inner)
        for k in range(0, total, EDGE_CHUNK):
            if k:
                put(joint)
            if total - k < size:  # the last, shorter chunk
                size = total - k
                template = joint.join([one] * size)
            put(template % tuple(islice(flat, 3 * size)))
        put(nl + "]")


def graph_to_dot(g: SignedGraph | SignedGrid, annotations: Sequence[str] | None = None) -> str:
    """Render as graphviz source, the graph ``G``: solid edges positive,
    dashed negative.

    ``annotations``, when given, override the node labels (one per vertex).
    A ``\\`` or ``"`` in a label is escaped in the quoted DOT string.
    """
    lines = ["graph G {"]
    for v in range(g.n):
        text = annotations[v] if annotations is not None else g.label(v)
        text = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{text}"];')
    for u, v, s in _edge_rows(g):
        style = "solid" if s == 1 else "dashed"
        lines.append(f"  {u} -- {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
