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

DOT output renders positive edges solid and negative edges dashed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .core import SignedGraph
from .grids import GridSpec
from .hom import Homomorphism


def grid_to_dict(spec: GridSpec) -> dict:
    out = {"kind": spec.kind, "rows": spec.rows, "cols": spec.cols}
    if spec.mask is not None:
        out["mask"] = sorted([i, j] for i, j in spec.mask)
    return out


def grid_from_dict(d: Mapping) -> GridSpec:
    mask = None
    if "mask" in d:
        mask = frozenset((int(i), int(j)) for i, j in d["mask"])
    return GridSpec(d["kind"], int(d["rows"]), int(d["cols"]), mask)


def graph_to_dict(g: SignedGraph) -> dict:
    out: dict = {"n": g.n, "edges": [[u, v, s] for u, v, s in g.edges]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    if isinstance(g.grid, GridSpec):
        out["grid"] = grid_to_dict(g.grid)
    return out


def graph_from_dict(d: Mapping) -> SignedGraph:
    edges = [(int(u), int(v), int(s)) for u, v, s in d["edges"]]
    labels = d.get("labels")
    grid = grid_from_dict(d["grid"]) if "grid" in d else None
    return SignedGraph(int(d["n"]), edges, labels=labels, grid=grid)


def hom_to_dict(hom: Homomorphism, target: SignedGraph) -> dict:
    return {
        "kind": "signed",
        "mapping": list(hom.mapping),
        "switch": sorted(hom.switch_set),
        "target": graph_to_dict(target),
    }


def _int_list(entries, field: str) -> list[int]:
    if not isinstance(entries, list):
        raise ValueError(f"certificate {field!r} must be a list")
    for x in entries:
        if type(x) is not int:  # exact type: true is a bool, and int() would truncate 1.5
            raise ValueError(f"certificate {field!r} entry {x!r} is not an integer")
    return entries


def hom_from_dict(d: Mapping) -> tuple[Homomorphism, SignedGraph]:
    if not isinstance(d, Mapping):
        raise ValueError("certificate must be a JSON object")
    target = graph_from_dict(d["target"])
    mapping = tuple(_int_list(d["mapping"], "mapping"))
    kind = d.get("kind", "signed")
    if kind == "ec":
        return Homomorphism(mapping), target
    if kind != "signed":
        raise ValueError(f"unknown certificate kind {kind!r}")
    return Homomorphism(mapping, frozenset(_int_list(d.get("switch", []), "switch"))), target


def graph_to_dot(
    g: SignedGraph,
    name: str = "G",
    annotations: Sequence[str] | None = None,
) -> str:
    """Render as graphviz source: solid edges positive, dashed negative.

    ``annotations``, when given, override the node labels (one per vertex).
    """
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        text = annotations[v] if annotations is not None else g.label(v)
        lines.append(f'  {v} [label="{text}"];')
    for u, v, s in g.edges:
        style = "solid" if s == 1 else "dashed"
        lines.append(f"  {u} -- {v} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
