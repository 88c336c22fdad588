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
from itertools import chain

from .cset import CSet, CSetCoDecomposition, FinCat, validate_fincat
from .diagram import CoDecomposition
from .finset import MAX_SET_SIZE, FinFn, FinSetObj
from .graphs import SimpleGraph
from .hom import BagDecomposition


class ParseError(ValueError):
    pass


def _require(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing key '{key}'")
    return obj[key]


def _require_list(obj, key, where):
    value = _require(obj, key, where)
    return value if isinstance(value, list) else _list(value, where, key)


def _list(value, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: {what} must be a list")
    return value


def _int(value, where: str) -> int:
    # JSON true/false load as bool, a subclass of int; neither is an id
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_graph(obj, where: str = "graph") -> SimpleGraph:
    n = _require(obj, "n", where)
    edges = _require_list(obj, "edges", where)
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"{where}: edge {i} is not a pair of vertex ids")
    try:
        return SimpleGraph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def parse_finset(obj, where: str = "set") -> FinSetObj:
    if isinstance(obj, dict) and "elements" in obj:
        labels = obj["elements"]
        if not (isinstance(labels, list)
                and all(type(s) is str for s in labels)):
            raise ParseError(f"{where}: elements must be a list of strings")
        size = len(labels)
    elif isinstance(obj, dict) and "size" in obj:
        labels = None
        size = _int(obj["size"], f"{where} size")
    else:
        raise ParseError(f"{where}: expected 'size' or 'elements'")
    if size > MAX_SET_SIZE:
        raise ParseError(f"{where}: size {size} exceeds the limit of "
                         f"{MAX_SET_SIZE} elements")
    try:
        return FinSetObj(size, None if labels is None else tuple(labels))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def finset_to_json(o: FinSetObj) -> dict:
    return _set_to_json(o.size, o.labels)


def _set_to_json(size: int, labels) -> dict:
    if labels is not None:
        return {"elements": list(labels)}
    return {"size": size}


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
    return {"map": _table_to_json(f.table, source.labels, target.labels)}


def _table_to_json(table, source_labels, target_labels):
    """Label form when both sets are labelled, index form otherwise."""
    if source_labels is not None and target_labels is not None:
        return {source_labels[i]: target_labels[t]
                for i, t in enumerate(table)}
    return list(table)


def _parse_legs(raw, shape: SimpleGraph, parse_leg) -> list[tuple]:
    """The (leg at u, leg at v) pair of every shape edge uv.

    Each entry of raw names its edge and endpoint; parse_leg(entry, e, x,
    where) reads that leg's map(s).  Exactly one leg per edge endpoint."""
    m = shape.m
    edges = shape.edges
    at_u = [None] * m
    at_v = [None] * m
    for i, leg in enumerate(raw):
        where = f"leg {i}"
        e = _require(leg, "edge", where)
        x = _require(leg, "endpoint", where)
        if type(e) is not int or not 0 <= e < m:
            raise ParseError(f"{where}: no edge with id {e!r}")
        u, v = edges[e]
        if type(x) is not int or x != u and x != v:
            raise ParseError(f"{where}: vertex {x!r} is not an endpoint of edge {e}")
        side = at_u if x == u else at_v
        if side[e] is not None:
            raise ParseError(f"{where}: duplicate leg for edge {e} at vertex {x}")
        side[e] = parse_leg(leg, e, x, where)
    for e in range(m):
        if at_u[e] is None or at_v[e] is None:
            raise ParseError(f"edge {e}: exactly two legs required")
    return list(zip(at_u, at_v))


def _parse_sizes(raw, where: str) -> tuple[list[int], dict]:
    """The sizes of a list of sets, and the labels of the labelled ones.
    A {"size": s} with 0 <= s <= MAX_SET_SIZE is read directly; any other
    entry goes through parse_finset, which names what is wrong with it."""
    sizes = []
    labels = {}
    for i, o in enumerate(raw):
        size = o.get("size") if type(o) is dict and "elements" not in o else None
        if type(size) is not int or not 0 <= size <= MAX_SET_SIZE:
            obj = parse_finset(o, f"{where} {i}")
            size = obj.size
            if obj.labels is not None:
                labels[i] = obj.labels
        sizes.append(size)
    return sizes, labels


def parse_diagram(obj) -> CoDecomposition:
    """Read a diagram straight into the columns of a CoDecomposition.

    An index-form table of the right length whose entries are integers in
    range is read directly, into a tuple; any other map (label form
    included) goes through parse_fn, so every error is found, and named,
    as parse_fn names it."""
    shape = parse_graph(_require(obj, "shape", "diagram"), "diagram shape")
    vsizes, vlabels = _parse_sizes(
        _require_list(obj, "vertex_sets", "diagram"), "vertex set")
    esizes, elabels = _parse_sizes(
        _require_list(obj, "edge_sets", "diagram"), "edge set")
    if len(vsizes) != shape.n:
        raise ParseError("diagram: one vertex set per shape vertex required")
    if len(esizes) != shape.m:
        raise ParseError("diagram: one edge set per shape edge required")

    def parse_leg(leg, e, x, where):
        table = leg.get("map")
        # min and max need a nonempty table; an empty one takes parse_fn
        if (type(table) is list and len(table) == vsizes[x] and table
                and set(map(type, table)) == {int}
                and min(table) >= 0 and max(table) < esizes[e]):
            return tuple(table)
        source = FinSetObj(vsizes[x], vlabels.get(x))
        target = FinSetObj(esizes[e], elabels.get(e))
        return parse_fn(leg, source, target, where).table

    tables = _parse_legs(_require_list(obj, "legs", "diagram"), shape,
                         parse_leg)
    return CoDecomposition(shape, vsizes, esizes, tables, vlabels, elabels)


def diagram_to_json(d: CoDecomposition, meta: dict | None = None) -> dict:
    """The diagram's JSON document, written from its columns."""
    vlabels = d.vertex_labels
    elabels = d.edge_labels
    legs = []
    for e, ((u, v), pair) in enumerate(zip(d.shape.edges, d.tables)):
        for x, table in zip((u, v), pair):
            legs.append({"edge": e, "endpoint": x, "map": _table_to_json(
                table, vlabels.get(x), elabels.get(e))})
    out = {
        "shape": graph_to_json(d.shape),
        "vertex_sets": [_set_to_json(s, vlabels.get(x))
                        for x, s in enumerate(d.vertex_size)],
        "edge_sets": [_set_to_json(s, elabels.get(e))
                      for e, s in enumerate(d.edge_size)],
        "legs": legs,
    }
    if meta:
        out["meta"] = meta
    return out


def parse_fincat(obj) -> FinCat:
    n = _int(_require(obj, "objects", "category"), "category objects")
    morphisms = _require_list(obj, "morphisms", "category")
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
    identities = _require_list(obj, "identities", "category")
    comp = _require_list(obj, "comp", "category")
    cat = FinCat(n, tuple(src), tuple(tgt),
                 tuple(_int(i, "identity") for i in identities),
                 tuple(tuple(_int(gf, "comp entry")
                             for gf in _list(row, "category", f"comp row {g}"))
                       for g, row in enumerate(comp)))
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
            for c, o in enumerate(_require_list(obj, "objects", where))]
    if len(sets) != cat.object_count:
        raise ParseError(f"{where}: one set per C-object required")
    actions = []
    raw = _require_list(obj, "actions", where)
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
    vcs = [_parse_cset(o, cat, f"vertex C-set {i}") for i, o in
           enumerate(_require_list(obj, "vertex_csets", "cset diagram"))]
    ecs = [_parse_cset(o, cat, f"edge C-set {i}") for i, o in
           enumerate(_require_list(obj, "edge_csets", "cset diagram"))]
    if len(vcs) != shape.n:
        raise ParseError("cset diagram: one vertex C-set per shape vertex required")
    if len(ecs) != shape.m:
        raise ParseError("cset diagram: one edge C-set per shape edge required")

    def parse_leg(leg, e, x, where):
        maps = _require_list(leg, "maps", where)
        if len(maps) != cat.object_count:
            raise ParseError(f"{where}: one map per C-object required")
        return tuple(
            parse_fn(m, vcs[x].objects[c], ecs[e].objects[c],
                     f"{where} component {c}")
            for c, m in enumerate(maps))

    pairs = _parse_legs(_require_list(obj, "legs", "cset diagram"), shape,
                        parse_leg)
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


def _id_lists(obj, key: str) -> list:
    """A decomposition's bags or adhesions, lists of integer vertex ids, as
    given; on a failed type check the lists are walked to name the entry."""
    raw = _require_list(obj, key, "decomposition")
    if not (set(map(type, raw)) <= {list}
            and set(map(type, chain.from_iterable(raw))) <= {int}):
        for i, ids in enumerate(raw):
            for v in _list(ids, "decomposition", f"{key[:-1]} {i}"):
                _int(v, f"decomposition {key[:-1]} {i}")
    return raw


def parse_decomposition(obj) -> BagDecomposition:
    x = parse_graph(_require(obj, "X", "decomposition"), "decomposition X")
    shape = parse_graph(_require(obj, "shape", "decomposition"),
                        "decomposition shape")
    bags = _id_lists(obj, "bags")
    if len(bags) != shape.n:
        raise ParseError("decomposition: one bag per shape vertex required")
    adhesions = _id_lists(obj, "adhesions") if "adhesions" in obj else None
    return BagDecomposition(x, shape, bags, adhesions)


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
