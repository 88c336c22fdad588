"""JSON input/output for every instance format the CLI accepts.

Graph: {"n": 3, "edges": [[0, 1], [1, 2]]}
Set: {"size": 2} or {"elements": ["a", "b"]}
Function: {"map": [0, 1]} or {"map": {"a": "x"}} (label form)
Diagram: {"shape": g, "vertex_sets": [...], "edge_sets": [...],
          "legs": [{"edge": 0, "endpoint": 0, "map": ...}, ...]}
Category: {"objects": 2, "morphisms": [{"id": 0, "src": 0, "tgt": 0}, ...],
           "identities": [0, 1], "comp": [[0, -1, ...], ...]}
C-set diagram: the diagram format with per-C-object sets nested per
vertex/edge, plus action tables.
Decomposition: {"X": g, "shape": g, "bags": [[...], ...],
                "adhesions": [[...], ...]} (adhesions optional)
"""

from __future__ import annotations

import json

from .cset import CSet, CSetCoDecomposition, FinCat, validate_fincat
from .diagram import CoDecomposition
from .finset import FinFn, FinSetObj
from .graphs import SimpleGraph
from .hom import BagDecomposition


class ParseError(ValueError):
    pass


# Largest set a diagram may hold.  Fibres and section-test state are sized
# by the sets, so one {"size": 10**9} would exhaust memory before a sweep.
MAX_SET_SIZE = 2 ** 20


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing key '{key}'")
    return obj[key]


def _int(value, where: str) -> int:
    # JSON true/false load as bool, a subclass of int; neither is an id
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_graph(obj, where: str = "graph") -> SimpleGraph:
    n = _require(obj, "n", where)
    edges = _require(obj, "edges", where)
    try:
        return SimpleGraph(n, [(e[0], e[1]) for e in edges])
    except (ValueError, TypeError, IndexError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def parse_finset(obj, where: str = "set") -> FinSetObj:
    if isinstance(obj, dict) and "elements" in obj:
        labels = obj["elements"]
        size = len(labels)
    elif isinstance(obj, dict) and "size" in obj:
        labels = None
        size = _int(obj["size"], "size")
    else:
        raise ParseError(f"{where}: expected 'size' or 'elements'")
    if size > MAX_SET_SIZE:
        raise ParseError(f"{where}: size {size} exceeds the limit of "
                         f"{MAX_SET_SIZE} elements")
    try:
        return FinSetObj(size, None if labels is None
                         else tuple(str(s) for s in labels))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def finset_to_json(o: FinSetObj) -> dict:
    if o.labels is not None:
        return {"elements": list(o.labels)}
    return {"size": o.size}


def parse_fn(obj, source: FinSetObj, target: FinSetObj, where: str = "map") -> FinFn:
    table = _require(obj, "map", where)
    if isinstance(table, dict):
        if source.labels is None or target.labels is None:
            raise ParseError(
                f"{where}: label-form map needs labeled source and target sets")
        tix = {lab: i for i, lab in enumerate(target.labels)}
        entries = []
        for lab in source.labels:
            if lab not in table:
                raise ParseError(f"{where}: no image for element '{lab}'")
            val = table[lab]
            if val not in tix:
                raise ParseError(f"{where}: unknown target element '{val}'")
            entries.append(tix[val])
        table = entries
    try:
        return FinFn(source.size, target.size, table)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def fn_to_json(f: FinFn, source: FinSetObj, target: FinSetObj) -> dict:
    if source.labels is not None and target.labels is not None:
        return {"map": {source.labels[i]: target.labels[t]
                        for i, t in enumerate(f.table)}}
    return {"map": list(f.table)}


def _parse_legs(raw, shape: SimpleGraph, parse_leg) -> list[tuple]:
    """The (leg at u, leg at v) pair of every shape edge uv.

    Each entry of raw names its edge and endpoint; parse_leg(entry, e, x,
    where) reads that leg's map(s).  Exactly one leg per edge endpoint."""
    legs: list[dict] = [{} for _ in range(shape.m)]
    for i, leg in enumerate(raw):
        e = _require(leg, "edge", f"leg {i}")
        x = _require(leg, "endpoint", f"leg {i}")
        if type(e) is not int or not 0 <= e < shape.m:
            raise ParseError(f"leg {i}: no edge with id {e!r}")
        if type(x) is not int or x not in shape.edges[e]:
            raise ParseError(f"leg {i}: vertex {x!r} is not an endpoint of edge {e}")
        if x in legs[e]:
            raise ParseError(f"leg {i}: duplicate leg for edge {e} at vertex {x}")
        legs[e][x] = parse_leg(leg, e, x, f"leg {i}")
    pairs = []
    for e, (u, v) in enumerate(shape.edges):
        if u not in legs[e] or v not in legs[e]:
            raise ParseError(f"edge {e}: exactly two legs required")
        pairs.append((legs[e][u], legs[e][v]))
    return pairs


def parse_diagram(obj) -> CoDecomposition:
    shape = parse_graph(_require(obj, "shape", "diagram"), "diagram shape")
    vsets = [parse_finset(o, f"vertex set {i}")
             for i, o in enumerate(_require(obj, "vertex_sets", "diagram"))]
    esets = [parse_finset(o, f"edge set {i}")
             for i, o in enumerate(_require(obj, "edge_sets", "diagram"))]
    if len(vsets) != shape.n:
        raise ParseError("diagram: one vertex set per shape vertex required")
    if len(esets) != shape.m:
        raise ParseError("diagram: one edge set per shape edge required")
    pairs = _parse_legs(
        _require(obj, "legs", "diagram"), shape,
        lambda leg, e, x, where: parse_fn(leg, vsets[x], esets[e], where))
    return CoDecomposition(shape, vsets, esets, pairs)


def diagram_to_json(d: CoDecomposition, meta: dict | None = None) -> dict:
    legs = []
    for e, (u, v) in enumerate(d.shape.edges):
        for x, fn in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            entry = {"edge": e, "endpoint": x}
            entry.update(fn_to_json(fn, d.vertex_obj[x], d.edge_obj[e]))
            legs.append(entry)
    out = {
        "shape": graph_to_json(d.shape),
        "vertex_sets": [finset_to_json(o) for o in d.vertex_obj],
        "edge_sets": [finset_to_json(o) for o in d.edge_obj],
        "legs": legs,
    }
    if meta:
        out["meta"] = meta
    return out


def parse_fincat(obj) -> FinCat:
    n = _int(_require(obj, "objects", "category"), "category objects")
    morphisms = _require(obj, "morphisms", "category")
    src = [0] * len(morphisms)
    tgt = [0] * len(morphisms)
    seen = set()
    for m in morphisms:
        i = _int(_require(m, "id", "morphism"), "morphism id")
        if not 0 <= i < len(morphisms) or i in seen:
            raise ParseError(f"category: bad or duplicate morphism id {i}")
        seen.add(i)
        src[i] = _int(_require(m, "src", "morphism"), "morphism src")
        tgt[i] = _int(_require(m, "tgt", "morphism"), "morphism tgt")
    identities = _require(obj, "identities", "category")
    comp = _require(obj, "comp", "category")
    cat = FinCat(n, tuple(src), tuple(tgt),
                 tuple(_int(i, "identity") for i in identities),
                 tuple(tuple(_int(gf, "comp entry") for gf in row)
                       for row in comp))
    problems = validate_fincat(cat)
    if problems:
        raise ParseError("invalid category: " + "; ".join(problems))
    return cat


def fincat_to_json(c: FinCat) -> dict:
    return {
        "objects": c.object_count,
        "morphisms": [{"id": i, "src": c.src[i], "tgt": c.tgt[i]}
                      for i in range(c.morphism_count)],
        "identities": list(c.identity),
        "comp": [list(row) for row in c.comp],
    }


def _parse_cset(obj, cat: FinCat, where: str) -> CSet:
    sets = [parse_finset(o, f"{where} object {c}")
            for c, o in enumerate(_require(obj, "objects", where))]
    if len(sets) != cat.object_count:
        raise ParseError(f"{where}: one set per C-object required")
    actions = []
    raw = _require(obj, "actions", where)
    if len(raw) != cat.morphism_count:
        raise ParseError(f"{where}: one action per C-morphism required")
    for f, a in enumerate(raw):
        actions.append(parse_fn(a, sets[cat.src[f]], sets[cat.tgt[f]],
                                f"{where} action {f}"))
    return CSet(tuple(sets), tuple(actions))


def _cset_to_json(x: CSet, cat: FinCat) -> dict:
    return {
        "objects": [finset_to_json(o) for o in x.objects],
        "actions": [fn_to_json(x.actions[f], x.objects[cat.src[f]],
                               x.objects[cat.tgt[f]])
                    for f in range(cat.morphism_count)],
    }


def parse_cset_diagram(obj, cat: FinCat) -> CSetCoDecomposition:
    shape = parse_graph(_require(obj, "shape", "cset diagram"), "shape")
    vcs = [_parse_cset(o, cat, f"vertex C-set {i}")
           for i, o in enumerate(_require(obj, "vertex_csets", "cset diagram"))]
    ecs = [_parse_cset(o, cat, f"edge C-set {i}")
           for i, o in enumerate(_require(obj, "edge_csets", "cset diagram"))]
    if len(vcs) != shape.n:
        raise ParseError("cset diagram: one vertex C-set per shape vertex required")
    if len(ecs) != shape.m:
        raise ParseError("cset diagram: one edge C-set per shape edge required")

    def parse_leg(leg, e, x, where):
        maps = _require(leg, "maps", where)
        if len(maps) != cat.object_count:
            raise ParseError(f"{where}: one map per C-object required")
        return tuple(
            parse_fn(m, vcs[x].objects[c], ecs[e].objects[c],
                     f"{where} component {c}")
            for c, m in enumerate(maps))

    pairs = _parse_legs(_require(obj, "legs", "cset diagram"), shape, parse_leg)
    return CSetCoDecomposition(cat, shape, vcs, ecs, pairs)


def cset_diagram_to_json(d: CSetCoDecomposition) -> dict:
    legs = []
    for e, (u, v) in enumerate(d.shape.edges):
        for x, leg in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            legs.append({
                "edge": e,
                "endpoint": x,
                "maps": [
                    fn_to_json(leg[c], d.vertex_cs[x].objects[c],
                               d.edge_cs[e].objects[c])
                    for c in range(d.cat.object_count)
                ],
            })
    return {
        "shape": graph_to_json(d.shape),
        "vertex_csets": [_cset_to_json(x, d.cat) for x in d.vertex_cs],
        "edge_csets": [_cset_to_json(x, d.cat) for x in d.edge_cs],
        "legs": legs,
    }


def parse_decomposition(obj) -> BagDecomposition:
    x = parse_graph(_require(obj, "X", "decomposition"), "decomposition X")
    shape = parse_graph(_require(obj, "shape", "decomposition"),
                        "decomposition shape")
    bags = tuple(tuple(bag) for bag in _require(obj, "bags", "decomposition"))
    adhesions = tuple(tuple(a) for a in obj.get("adhesions", ()))
    try:
        return BagDecomposition(x, shape, bags, adhesions)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"decomposition: {exc}") from exc


def decomposition_to_json(b: BagDecomposition) -> dict:
    return {
        "X": graph_to_json(b.x),
        "shape": graph_to_json(b.shape),
        "bags": [list(bag) for bag in b.bags],
        "adhesions": [list(a) for a in b.adhesions],
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
