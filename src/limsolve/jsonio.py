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
from itertools import chain, repeat
from operator import contains, itemgetter

from .cset import CSetCoDecomposition, FinCat, validate_fincat
from .diagram import CoDecomposition, _recorded, leg_sizes, tables_fit
from .graphs import MAX_SET_SIZE, SimpleGraph
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
    try:
        return SimpleGraph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


# Every loader below reads a valid document in a few passes over all of
# its entries at once (itemgetter, set, min, max, dict); when a pass
# fails, a walk goes entry by entry in document order only to raise the
# ParseError that names the first problem.  A label-form set or map is
# valid, so it is resolved to sizes and index tables before the shared
# checks and never reaches a walk.

def _or_named(read, walk, *args):
    """read, the one-pass result of a section of a document, unless it is
    None: then walk(*args) raises the ParseError that names the section's
    first problem."""
    if read is not None:
        return read
    walk(*args)
    raise AssertionError(f"{walk.__name__}: the named-error walk accepts "
                         f"what the one-pass check refused")


def _read_sets(raw: list) -> tuple[list, dict] | None:
    """The sizes of a list of set documents and the labels of the
    labelled ones; None when some set is malformed."""
    try:
        sizes = list(map(itemgetter("size"), raw))
        labelled = any(map(contains, raw, repeat("elements")))
    except (KeyError, TypeError):
        labelled = True
    labels = {}
    if labelled:
        sizes = []
        for i, o in enumerate(raw):
            if type(o) is dict and "elements" in o:
                lab = o["elements"]
                if not (type(lab) is list and set(map(type, lab)) <= {str}
                        and len(set(lab)) == len(lab)):
                    return None
                labels[i] = tuple(lab)
                sizes.append(len(lab))
            else:
                sizes.append(o.get("size") if type(o) is dict else None)
    if not (set(map(type, sizes)) <= {int} and min(sizes, default=0) >= 0
            and max(sizes, default=0) <= MAX_SET_SIZE):
        return None
    return sizes, labels


def _set_errors(raw: list, where: str) -> None:
    """Raise the ParseError that names the first malformed set of raw."""
    for i, o in enumerate(raw):
        at = f"{where} {i}"
        if isinstance(o, dict) and "elements" in o:
            labels = o["elements"]
            if not (isinstance(labels, list)
                    and all(type(s) is str for s in labels)):
                raise ParseError(f"{at}: elements must be a list of strings")
            size = len(labels)
        elif isinstance(o, dict) and "size" in o:
            labels = ()
            size = _int(o["size"], f"{at} size")
        else:
            raise ParseError(f"{at}: expected 'size' or 'elements'")
        if size > MAX_SET_SIZE:
            raise ParseError(f"{at}: size {size} exceeds the limit of "
                             f"{MAX_SET_SIZE} elements")
        if size < 0:
            raise ParseError(f"{at}: size must be >= 0")
        if len(set(labels)) != len(labels):
            raise ParseError(f"{at}: labels must be pairwise distinct")


def _set_to_json(size: int, labels) -> dict:
    if labels is not None:
        return {"elements": list(labels)}
    return {"size": size}


def _resolved(table: dict, source_labels, target_labels) -> list | None:
    """The index table of a label-form map; None unless both sets are
    labelled and every source label has a target label as its image."""
    if source_labels is None or target_labels is None:
        return None
    index = {lab: t for t, lab in enumerate(target_labels)}
    try:
        return [index[table[lab]] for lab in source_labels]
    except (KeyError, TypeError):
        return None


def _index_tables(maps: list, sources: list, targets: list,
                  labels_of) -> list[tuple] | None:
    """maps as tuples when every maps[i] is a table of length sources[i]
    with int entries in [0, targets[i]); a label-form map (a dict) is
    first resolved through labels_of(i), the (source labels, target
    labels) of map i.  None when some map is malformed."""
    if dict in set(map(type, maps)):
        maps = [_resolved(t, *labels_of(i)) if type(t) is dict else t
                for i, t in enumerate(maps)]
    if not tables_fit(maps, sources, targets):
        return None
    return list(map(tuple, maps))


def _table_error(obj, source: int, target: int, source_labels,
                 target_labels, where: str) -> None:
    """Raise the ParseError that names what is wrong with the map document
    obj from a set of size source to one of size target, if anything."""
    table = _require(obj, "map", where)
    if isinstance(table, dict):
        if source_labels is None or target_labels is None:
            raise ParseError(
                f"{where}: label-form map needs labeled source and target sets")
        for lab in source_labels:
            if lab not in table:
                raise ParseError(f"{where}: no image for element '{lab}'")
            val = table[lab]
            if type(val) is not str or val not in target_labels:
                raise ParseError(f"{where}: unknown target element '{val}'")
        return
    try:
        entries = tuple(table)
    except TypeError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if len(entries) != source:
        raise ParseError(f"{where}: table length differs from source size")
    for i, t in enumerate(entries):
        # bool is an int subclass but no element index
        if type(t) is not int or not 0 <= t < target:
            raise ParseError(f"{where}: table entry {t!r} at {i} is not an "
                             f"integer below target size {target}")
    if type(table) not in (list, tuple):  # "" into an empty set
        raise ParseError(f"{where}: map must be a list or an object")


def _table_to_json(table, source_labels, target_labels):
    """Label form when both sets are labelled, index form otherwise."""
    if source_labels is not None and target_labels is not None:
        return {source_labels[i]: target_labels[t]
                for i, t in enumerate(table)}
    return list(table)


def _leg_entries(raw: list, shape: SimpleGraph, key: str) -> list | None:
    """The key entry of every leg in (edge, endpoint) order, the leg at u
    then the leg at v of each edge uv; None unless every leg has an
    integer edge and endpoint and the legs are exactly one per edge
    endpoint.  One dict lookup per endpoint finds the valid, the missing
    and the duplicated legs at once."""
    try:
        eids = list(map(itemgetter("edge"), raw))
        xs = list(map(itemgetter("endpoint"), raw))
        entries = list(map(itemgetter(key), raw))
    except (KeyError, TypeError):
        return None
    # True == 1 as a dict key, so the ids are type-checked before keying
    if not set(map(type, eids)) | set(map(type, xs)) <= {int}:
        return None
    m = shape.m
    order = list(chain.from_iterable(zip(range(m), range(m))))
    ends = list(chain.from_iterable(shape.edges))
    # legs already in that order, as diagram_to_json writes them, need
    # no placing
    if xs == ends and eids == order:
        return entries
    placed = dict(zip(zip(eids, xs), entries))
    if not len(placed) == len(raw) == 2 * m:
        return None
    try:
        return list(map(placed.__getitem__, zip(order, ends)))
    except KeyError:
        return None


def _leg_errors(raw: list, shape: SimpleGraph, leg_error) -> None:
    """Raise the ParseError that names the first bad leg of raw, in leg
    order, then the first edge without its two legs; leg_error(leg, e, x,
    where) names what is wrong with the map(s) of the leg at x of edge e."""
    m = shape.m
    edges = shape.edges
    seen = set()
    for i, leg in enumerate(raw):
        where = f"leg {i}"
        e = _require(leg, "edge", where)
        x = _require(leg, "endpoint", where)
        if type(e) is not int or not 0 <= e < m:
            raise ParseError(f"{where}: no edge with id {e!r}")
        u, v = edges[e]
        if type(x) is not int or x != u and x != v:
            raise ParseError(f"{where}: vertex {x!r} is not an endpoint of edge {e}")
        if (e, x) in seen:
            raise ParseError(f"{where}: duplicate leg for edge {e} at vertex {x}")
        seen.add((e, x))
        leg_error(leg, e, x, where)
    for e, (u, v) in enumerate(edges):
        if (e, u) not in seen or (e, v) not in seen:
            raise ParseError(f"edge {e}: exactly two legs required")


def _leg_tables(maps: list, shape: SimpleGraph, vsizes: list, esizes: list,
                vlabels: dict, elabels: dict) -> list[tuple] | None:
    """The (table at u, table at v) pair of every edge uv of one plain
    diagram, from its leg maps in (edge, endpoint) order; None when some
    map is malformed."""
    edges = shape.edges

    def labels_of(i):
        e, side = divmod(i, 2)
        return vlabels.get(edges[e][side]), elabels.get(e)

    tables = _index_tables(maps, *leg_sizes(edges, vsizes, esizes), labels_of)
    return None if tables is None else list(zip(tables[0::2], tables[1::2]))


def parse_diagram(obj) -> CoDecomposition:
    """Read a diagram straight into the columns of a CoDecomposition,
    recorded valid: the loader checks all that validate checks."""
    shape = parse_graph(_require(obj, "shape", "diagram"), "diagram shape")
    raw = _require_list(obj, "vertex_sets", "diagram")
    vsizes, vlabels = _or_named(_read_sets(raw), _set_errors, raw,
                                "vertex set")
    raw = _require_list(obj, "edge_sets", "diagram")
    esizes, elabels = _or_named(_read_sets(raw), _set_errors, raw, "edge set")
    if len(vsizes) != shape.n:
        raise ParseError("diagram: one vertex set per shape vertex required")
    if len(esizes) != shape.m:
        raise ParseError("diagram: one edge set per shape edge required")
    raw = _require_list(obj, "legs", "diagram")
    maps = _leg_entries(raw, shape, "map")

    def leg_error(leg, e, x, where):
        _table_error(leg, vsizes[x], esizes[e], vlabels.get(x),
                     elabels.get(e), where)

    tables = _or_named(None if maps is None else _leg_tables(
        maps, shape, vsizes, esizes, vlabels, elabels),
        _leg_errors, raw, shape, leg_error)
    return _recorded(CoDecomposition(shape, vsizes, esizes, tables, vlabels,
                                    elabels))


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


def _read_csets(raw: list, cat: FinCat) -> tuple[list, list, list] | None:
    """The columns of a list of C-set documents: per C-object, the set
    sizes and the labels of the labelled sets; per C-set, its action
    tables.  Checked a C-morphism at a time over all the C-sets at once;
    None when some C-set is malformed."""
    nc = cat.object_count
    nm = cat.morphism_count
    try:
        objects = list(map(itemgetter("objects"), raw))
        actions = list(map(itemgetter("actions"), raw))
    except (KeyError, TypeError):
        return None
    if not (set(map(type, objects)) | set(map(type, actions)) <= {list}
            and set(map(len, objects)) <= {nc}
            and set(map(len, actions)) <= {nm}):
        return None
    read = _read_sets(list(chain.from_iterable(objects)))
    if read is None:
        return None
    # the set of C-set i at object c is entry i * nc + c
    sizes = [read[0][c::nc] for c in range(nc)]
    labels = [{} for _ in range(nc)]
    for j, lab in read[1].items():
        labels[j % nc][j // nc] = lab
    try:
        maps = list(map(itemgetter("map"), chain.from_iterable(actions)))
    except (KeyError, TypeError):
        return None
    columns = []
    for f, (c0, c1) in enumerate(zip(cat.src, cat.tgt)):
        col = _index_tables(maps[f::nm], sizes[c0], sizes[c1],
                            lambda i: (labels[c0].get(i), labels[c1].get(i)))
        if col is None:
            return None
        columns.append(col)
    tables = list(map(list, zip(*columns))) if nm else [[] for _ in raw]
    return sizes, labels, tables


def _cset_errors(raw: list, cat: FinCat, where: str) -> None:
    """Raise the ParseError that names the first malformed C-set of raw."""
    for i, o in enumerate(raw):
        at = f"{where} {i}"
        objects = _require_list(o, "objects", at)
        s, lab = _or_named(_read_sets(objects), _set_errors, objects,
                           f"{at} object")
        if len(s) != cat.object_count:
            raise ParseError(f"{at}: one set per C-object required")
        maps = _require_list(o, "actions", at)
        if len(maps) != cat.morphism_count:
            raise ParseError(f"{at}: one action per C-morphism required")
        for f, (a, c0, c1) in enumerate(zip(maps, cat.src, cat.tgt)):
            _table_error(a, s[c0], s[c1], lab.get(c0), lab.get(c1),
                         f"{at} action {f}")


def _cset_slices(raw: list, shape: SimpleGraph, nc: int, vsizes, esizes,
                 vlabels, elabels) -> list[CoDecomposition] | None:
    """The plain diagram at every C-object, from the legs of a C-set
    diagram and the columns _read_csets read; checked a C-object at a time
    over all the legs at once, each recorded valid.  None when some leg is
    malformed."""
    legs = _leg_entries(raw, shape, "maps")
    if legs is None or not (set(map(type, legs)) <= {list}
                            and set(map(len, legs)) <= {nc}):
        return None
    try:
        # component c of the leg at position k is entry k * nc + c
        maps = list(map(itemgetter("map"), chain.from_iterable(legs)))
    except (KeyError, TypeError):
        return None
    slices = []
    for c in range(nc):
        tables = _leg_tables(maps[c::nc], shape, vsizes[c], esizes[c],
                             vlabels[c], elabels[c])
        if tables is None:
            return None
        slices.append(_recorded(CoDecomposition(
            shape, vsizes[c], esizes[c], tables, vlabels[c], elabels[c])))
    return slices


def parse_cset_diagram(obj, cat: FinCat) -> CSetCoDecomposition:
    """Read a C-set diagram straight into one plain diagram per C-object
    plus the action tables."""
    shape = parse_graph(_require(obj, "shape", "cset diagram"), "shape")
    raw = _require_list(obj, "vertex_csets", "cset diagram")
    vsizes, vlabels, vactions = _or_named(_read_csets(raw, cat), _cset_errors,
                                          raw, cat, "vertex C-set")
    raw = _require_list(obj, "edge_csets", "cset diagram")
    esizes, elabels, eactions = _or_named(_read_csets(raw, cat), _cset_errors,
                                          raw, cat, "edge C-set")
    if len(vactions) != shape.n:
        raise ParseError("cset diagram: one vertex C-set per shape vertex required")
    if len(eactions) != shape.m:
        raise ParseError("cset diagram: one edge C-set per shape edge required")
    nc = cat.object_count
    raw = _require_list(obj, "legs", "cset diagram")

    def leg_error(leg, e, x, where):
        maps = _require_list(leg, "maps", where)
        if len(maps) != nc:
            raise ParseError(f"{where}: one map per C-object required")
        for c, m in enumerate(maps):
            _table_error(m, vsizes[c][x], esizes[c][e], vlabels[c].get(x),
                         elabels[c].get(e), f"{where} component {c}")

    slices = _or_named(
        _cset_slices(raw, shape, nc, vsizes, esizes, vlabels, elabels),
        _leg_errors, raw, shape, leg_error)
    return CSetCoDecomposition(cat, shape, slices, vactions, eactions)


def _csets_to_json(cat: FinCat, sizes, labels, actions) -> list[dict]:
    """The C-set documents of _read_csets' columns."""
    out = []
    for i, tables in enumerate(actions):
        lab = [col.get(i) for col in labels]
        out.append({
            "objects": [_set_to_json(col[i], lb)
                        for col, lb in zip(sizes, lab)],
            "actions": [{"map": _table_to_json(t, lab[c0], lab[c1])}
                        for t, c0, c1 in zip(tables, cat.src, cat.tgt)],
        })
    return out


def cset_diagram_to_json(d: CSetCoDecomposition) -> dict:
    """The C-set diagram's JSON document, written from its columns."""
    slices = d.slices
    legs = []
    for e, (u, v) in enumerate(d.shape.edges):
        for side, x in enumerate((u, v)):
            legs.append({"edge": e, "endpoint": x, "maps": [
                {"map": _table_to_json(s.tables[e][side],
                                       s.vertex_labels.get(x),
                                       s.edge_labels.get(e))}
                for s in slices]})
    return {
        "shape": graph_to_json(d.shape),
        "vertex_csets": _csets_to_json(
            d.cat, [s.vertex_size for s in slices],
            [s.vertex_labels for s in slices], d.vertex_actions),
        "edge_csets": _csets_to_json(
            d.cat, [s.edge_size for s in slices],
            [s.edge_labels for s in slices], d.edge_actions),
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
