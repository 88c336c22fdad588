import copy
import hashlib

import pytest

from conftest import (c4_example, corpus_bases, cospan_example,
                      diagrams_equal, loader_corpus, path_example)
from conftest import size_form_doc as _size_form_doc
from limsolve import (CoDecomposition, CSetCoDecomposition, FinCat,
                      SimpleGraph, cset_inlim, validate,
                      validate_cset_codecomp)
from limsolve.generate import (
    elimination_decomposition,
    lift_to_terminal_cset,
    random_walking_arrow_diagram,
    random_graph,
)
from limsolve import jsonio
import random


def test_graph_round_trip():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert jsonio.parse_graph(jsonio.graph_to_json(g)) == g


def test_graph_rejects_loop_and_duplicate():
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_graph({"n": 2, "edges": [[0, 0]]})
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_graph({"n": 2, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_graph({"edges": []})
    with pytest.raises(jsonio.ParseError, match="edges must be a list"):
        jsonio.parse_graph({"n": 2, "edges": 5})


@pytest.mark.parametrize("edge", [[0, 1, 2], [0], {"a": 0}, 1])
def test_graph_edges_must_be_pairs(edge):
    with pytest.raises(jsonio.ParseError,
                       match="graph: edge 1 is not a pair of vertex ids"):
        jsonio.parse_graph({"n": 3, "edges": [[0, 1], edge]})


def _parse_error(doc) -> str:
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    return str(err.value)


def test_finset_forms():
    # a set is {"size": s} or {"elements": [...]}, its labels distinct
    doc = _size_form_doc()
    doc["vertex_sets"][2] = {"elements": ["p"]}
    d = jsonio.parse_diagram(doc)
    assert d.vertex_size == [2, 3, 1] and d.vertex_labels == {2: ("p",)}
    doc["vertex_sets"][2] = {"elements": ["p", "p"]}
    assert _parse_error(doc) == \
        "vertex set 2: labels must be pairwise distinct"
    doc["vertex_sets"][2] = {}
    assert _parse_error(doc) == "vertex set 2: expected 'size' or 'elements'"


def test_set_label_invariants():
    doc = _size_form_doc()
    doc["edge_sets"][0] = {"elements": ["x", "y", "x"]}
    assert _parse_error(doc) == "edge set 0: labels must be pairwise distinct"
    doc = _size_form_doc()
    doc["vertex_sets"][0] = {"size": -1}
    assert _parse_error(doc) == "vertex set 0: size must be >= 0"


def test_fn_label_form():
    doc = jsonio.diagram_to_json(path_example())
    doc["legs"][0]["map"] = {"a": "y", "b": "x", "c": "x"}
    assert jsonio.parse_diagram(doc).tables[0][0] == (1, 0, 0)
    doc["legs"][0]["map"] = {"a": "z", "b": "x", "c": "x"}
    assert _parse_error(doc) == "leg 0: unknown target element 'z'"
    doc["legs"][0]["map"] = {"a": "x"}
    assert _parse_error(doc) == "leg 0: no image for element 'b'"
    # label form needs labels on both sides
    doc["legs"][0]["map"] = {"a": "x", "b": "x", "c": "y"}
    doc["vertex_sets"][0] = {"size": 3}
    assert _parse_error(doc) == \
        "leg 0: label-form map needs labeled source and target sets"


def test_fn_index_form_range_checked():
    doc = _size_form_doc()
    doc["legs"][2]["map"] = [3]
    assert _parse_error(doc) == \
        "leg 2: table entry 3 at 0 is not an integer below target size 3"


def test_map_totality():
    doc = _size_form_doc()
    doc["legs"][0]["map"] = [0, 2]
    assert _parse_error(doc) == \
        "leg 0: table entry 2 at 1 is not an integer below target size 2"
    doc["legs"][0]["map"] = [0]
    assert _parse_error(doc) == "leg 0: table length differs from source size"
    # into the empty set only from the empty set
    doc = {"shape": {"n": 2, "edges": [[0, 1]]},
           "vertex_sets": [{"size": 0}, {"size": 1}], "edge_sets": [{"size": 0}],
           "legs": [{"edge": 0, "endpoint": 0, "map": []},
                    {"edge": 0, "endpoint": 1, "map": [0]}]}
    assert _parse_error(doc) == \
        "leg 1: table entry 0 at 0 is not an integer below target size 0"
    doc["vertex_sets"][1] = {"size": 0}
    doc["legs"][1]["map"] = []
    assert jsonio.parse_diagram(doc).tables == [((), ())]


def test_diagram_round_trip_examples():
    for d in (path_example(), c4_example(), cospan_example()):
        again = jsonio.parse_diagram(jsonio.diagram_to_json(d))
        assert diagrams_equal(again, d)
        assert again.vertex_labels == d.vertex_labels
        assert again.edge_labels == d.edge_labels


def test_diagram_rejects_missing_leg():
    doc = jsonio.diagram_to_json(cospan_example())
    doc["legs"] = doc["legs"][:1]
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_diagram(doc)


def test_diagram_rejects_duplicate_leg():
    doc = jsonio.diagram_to_json(cospan_example())
    doc["legs"].append(dict(doc["legs"][0]))
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_diagram(doc)


def test_diagram_rejects_bad_endpoint():
    doc = jsonio.diagram_to_json(cospan_example())
    doc["legs"][0]["endpoint"] = 5
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_diagram(doc)


def test_diagram_rejects_out_of_range_table():
    doc = jsonio.diagram_to_json(cospan_example())
    doc["legs"][0]["map"] = [9]
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert "leg" in str(err.value)


def test_fincat_round_trip():
    for cat in (FinCat.terminal(), FinCat.walking_arrow()):
        assert jsonio.parse_fincat(jsonio.fincat_to_json(cat)) == cat


def test_fincat_rejects_broken_table():
    doc = jsonio.fincat_to_json(FinCat.walking_arrow())
    doc["comp"][0][0] = 1
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fincat(doc)


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.__setitem__("objects", 2.0),
    lambda doc: doc["morphisms"][2].__setitem__("tgt", True),
    lambda doc: doc["comp"][2].__setitem__(0, "2"),
], ids=["objects-float", "tgt-bool", "comp-str"])
def test_fincat_rejects_non_integer_ids(mutate):
    doc = jsonio.fincat_to_json(FinCat.walking_arrow())
    mutate(doc)
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fincat(doc)


def test_set_size_must_be_an_integer():
    for size in (True, 2.0, "2"):
        doc = _size_form_doc()
        doc["vertex_sets"][0] = {"size": size}
        assert _parse_error(doc) == \
            f"vertex set 0 size: expected an integer, got {size!r}"


def test_set_size_is_capped():
    cap = jsonio.MAX_SET_SIZE
    assert cap == 2 ** 20
    doc = {"shape": {"n": 1, "edges": []}, "vertex_sets": [{"size": cap}],
           "edge_sets": [], "legs": []}
    assert jsonio.parse_diagram(doc).vertex_size == [cap]
    doc["vertex_sets"] = [{"size": 10 ** 7}]
    assert _parse_error(doc) == \
        "vertex set 0: size 10000000 exceeds the limit of 1048576 elements"
    doc = jsonio.diagram_to_json(cospan_example())
    doc["edge_sets"] = [{"size": cap + 1}]
    doc["legs"][1]["map"] = [0]
    with pytest.raises(jsonio.ParseError, match="edge set 0.*limit"):
        jsonio.parse_diagram(doc)


def test_cset_diagram_round_trip():
    rng = random.Random(3)
    d = random_walking_arrow_diagram(rng, SimpleGraph(3, [(0, 1), (1, 2)]), 3)
    doc = jsonio.cset_diagram_to_json(d)
    again = jsonio.parse_cset_diagram(doc, d.cat)
    assert jsonio.cset_diagram_to_json(again) == doc


def test_cset_diagram_rejects_duplicate_leg():
    # a second leg at the same endpoint must not silently replace the first
    d = lift_to_terminal_cset(path_example())
    doc = jsonio.cset_diagram_to_json(d)
    doc["legs"].append(dict(doc["legs"][0]))
    with pytest.raises(jsonio.ParseError, match="duplicate leg"):
        jsonio.parse_cset_diagram(doc, d.cat)


def test_cset_diagram_rejects_missing_csets():
    # one C-set too few must be named, not fail by indexing past the list
    d = lift_to_terminal_cset(path_example())
    doc = jsonio.cset_diagram_to_json(d)
    doc["vertex_csets"].pop()
    with pytest.raises(jsonio.ParseError, match="one vertex C-set per shape vertex"):
        jsonio.parse_cset_diagram(doc, d.cat)
    doc = jsonio.cset_diagram_to_json(d)
    doc["edge_csets"].pop()
    with pytest.raises(jsonio.ParseError, match="one edge C-set per shape edge"):
        jsonio.parse_cset_diagram(doc, d.cat)


def test_terminal_cset_round_trip():
    d = lift_to_terminal_cset(path_example())
    doc = jsonio.cset_diagram_to_json(d)
    again = jsonio.parse_cset_diagram(doc, d.cat)
    assert jsonio.cset_diagram_to_json(again) == doc


def test_decomposition_round_trip_and_default_adhesions():
    rng = random.Random(5)
    b = elimination_decomposition(rng, random_graph(rng, 7, 0.4))
    doc = jsonio.decomposition_to_json(b)
    again = jsonio.parse_decomposition(doc)
    assert again.bags == b.bags and again.adhesions == b.adhesions
    # omitted adhesions default to bag intersections
    del doc["adhesions"]
    defaulted = jsonio.parse_decomposition(doc)
    assert defaulted.adhesions == tuple(
        tuple(sorted(set(b.bags[u]) & set(b.bags[v])))
        for u, v in b.shape.edges)


def test_dumps_deterministic():
    doc = jsonio.diagram_to_json(path_example())
    assert jsonio.dumps(doc) == jsonio.dumps(
        jsonio.diagram_to_json(path_example()))


def _set_map(i, value):
    def mutate(doc):
        doc["legs"][i]["map"] = value
    return mutate


# Each malformed input with the exact ParseError text the loader gave
# before diagrams were read into columns; the columnar fast path must fall
# back to the same checks in the same order.
_PARSE_ERRORS = {
    "entry-true": (_set_map(1, [0, True, 1]),
                   "leg 1: table entry True at 1 is not an integer below "
                   "target size 2"),
    "entry-negative": (_set_map(1, [0, -1, 1]),
                       "leg 1: table entry -1 at 1 is not an integer below "
                       "target size 2"),
    "entry-float": (_set_map(1, [0, 1.0, 1]),
                    "leg 1: table entry 1.0 at 1 is not an integer below "
                    "target size 2"),
    "entry-edge-size": (_set_map(1, [0, 2, 1]),
                        "leg 1: table entry 2 at 1 is not an integer below "
                        "target size 2"),
    "table-short": (_set_map(1, [0, 1]),
                    "leg 1: table length differs from source size"),
    "table-long": (_set_map(1, [0, 1, 1, 0]),
                   "leg 1: table length differs from source size"),
    "map-string": (_set_map(2, "2"),
                   "leg 2: table entry '2' at 0 is not an integer below "
                   "target size 3"),
    "map-missing": (lambda doc: doc["legs"][3].pop("map"),
                    "leg 3: missing key 'map'"),
    "label-map-unlabelled": (_set_map(2, {"0": "2"}),
                             "leg 2: label-form map needs labeled source and "
                             "target sets"),
    "duplicate-leg": (lambda doc: doc["legs"].append(dict(doc["legs"][2])),
                      "leg 4: duplicate leg for edge 1 at vertex 2"),
    "bad-endpoint": (lambda doc: doc["legs"][2].__setitem__("endpoint", 0),
                     "leg 2: vertex 0 is not an endpoint of edge 1"),
    "missing-leg": (lambda doc: doc["legs"].pop(3),
                    "edge 1: exactly two legs required"),
    "vertex-set-count": (lambda doc: doc["vertex_sets"].pop(),
                         "diagram: one vertex set per shape vertex required"),
}


@pytest.mark.parametrize("case", list(_PARSE_ERRORS))
def test_diagram_parse_error_texts(case):
    mutate, text = _PARSE_ERRORS[case]
    doc = _size_form_doc()
    mutate(doc)
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert str(err.value) == text


@pytest.mark.parametrize("doc", [
    _size_form_doc(), jsonio.diagram_to_json(path_example()),
], ids=["size-form", "label-form"])
def test_diagram_json_round_trip_is_exact(doc):
    assert jsonio.diagram_to_json(jsonio.parse_diagram(doc)) == doc


@pytest.mark.parametrize("elements", ["ab", {"a": 1, "b": 2}, [["x"], "y"], 5],
                         ids=["string", "object", "nested-list", "integer"])
def test_set_elements_must_be_a_list_of_strings(elements):
    text = "vertex set 0: elements must be a list of strings"
    doc = _size_form_doc()
    doc["vertex_sets"][0] = {"elements": elements}
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert str(err.value) == text


@pytest.mark.parametrize("key", ["vertex_sets", "edge_sets", "legs"])
def test_diagram_lists_must_be_lists(key):
    doc = _size_form_doc()
    doc[key] = 3
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert str(err.value) == f"diagram: {key} must be a list"


@pytest.mark.parametrize("size", ["3", 3.0, True])
def test_diagram_non_integer_size_names_its_set(size):
    doc = _size_form_doc()
    doc["vertex_sets"][1] = {"size": size}
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert str(err.value) == \
        f"vertex set 1 size: expected an integer, got {size!r}"


def _decomposition_doc(**changes):
    doc = {"X": {"n": 2, "edges": [[0, 1]]}, "shape": {"n": 1, "edges": []},
           "bags": [[0, 1]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, text", [
    (_decomposition_doc(bags=[[0, 1, True]]),
     "decomposition bag 0: expected an integer, got True"),
    (_decomposition_doc(bags=5), "decomposition: bags must be a list"),
    (_decomposition_doc(bags=["ab"]), "decomposition: bag 0 must be a list"),
    (_decomposition_doc(bags=[[0, 1], [1]]),
     "decomposition: one bag per shape vertex required"),
    (_decomposition_doc(adhesions=3),
     "decomposition: adhesions must be a list"),
    (_decomposition_doc(shape={"n": 2, "edges": [[0, 1]]},
                        bags=[[0, 1], [1]], adhesions=[[1.0]]),
     "decomposition adhesion 0: expected an integer, got 1.0"),
], ids=["bag-true", "bags-int", "bag-string", "bag-count", "adhesions-int",
        "adhesion-float"])
def test_decomposition_parse_error_texts(doc, text):
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_decomposition(doc)
    assert str(err.value) == text


def _fincat_doc(key, value):
    doc = jsonio.fincat_to_json(FinCat.walking_arrow())
    doc[key] = value
    return doc


@pytest.mark.parametrize("doc, text", [
    (_fincat_doc("morphisms", 5), "category: morphisms must be a list"),
    (_fincat_doc("identities", 5), "category: identities must be a list"),
    (_fincat_doc("comp", 5), "category: comp must be a list"),
    (_fincat_doc("comp", [[0, -1, -1], 5, [2, -1, -1]]),
     "category: comp row 1 must be a list"),
    (_fincat_doc("morphisms", [{"id": 0, "src": 0, "tgt": 0},
                               {"id": 0, "src": 1, "tgt": 1},
                               {"id": 2, "src": 0, "tgt": 1}]),
     "category: bad or duplicate morphism id 0"),
], ids=["morphisms-int", "identities-int", "comp-int", "comp-row-int",
        "duplicate-id"])
def test_fincat_parse_error_texts(doc, text):
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_fincat(doc)
    assert str(err.value) == text


def _cset_doc(mutate):
    doc = jsonio.cset_diagram_to_json(lift_to_terminal_cset(path_example()))
    mutate(doc)
    return doc


@pytest.mark.parametrize("mutate, text", [
    (lambda doc: doc.__setitem__("vertex_csets", 3),
     "cset diagram: vertex_csets must be a list"),
    (lambda doc: doc.__setitem__("edge_csets", 3),
     "cset diagram: edge_csets must be a list"),
    (lambda doc: doc["vertex_csets"][1].__setitem__("objects", 3),
     "vertex C-set 1: objects must be a list"),
    (lambda doc: doc["edge_csets"][0].__setitem__("actions", 5),
     "edge C-set 0: actions must be a list"),
    (lambda doc: doc["legs"][2].__setitem__("maps", 5),
     "leg 2: maps must be a list"),
    (lambda doc: doc["vertex_csets"][1]["objects"].append({"size": 1}),
     "vertex C-set 1: one set per C-object required"),
    (lambda doc: doc["edge_csets"][0]["actions"].append({"map": [0, 1]}),
     "edge C-set 0: one action per C-morphism required"),
    (lambda doc: doc["legs"][2]["maps"].append({"map": [0, 1]}),
     "leg 2: one map per C-object required"),
    (lambda doc: doc["edge_csets"][0]["actions"].__setitem__(
        0, {"map": [0, 5]}),
     "edge C-set 0 action 0: table entry 5 at 1 is not an integer below "
     "target size 2"),
    (lambda doc: doc["vertex_csets"][0].__setitem__("objects", [{"size": 3}]),
     "vertex C-set 0 action 0: label-form map needs labeled source and "
     "target sets"),
    (lambda doc: doc["edge_csets"][0].__setitem__(
        "objects", [{"size": 2 ** 20 + 1}]),
     "edge C-set 0 object 0: size 1048577 exceeds the limit of 1048576 "
     "elements"),
    (lambda doc: doc["legs"][0].pop("maps"), "leg 0: missing key 'maps'"),
    (lambda doc: doc["vertex_csets"][1].pop("actions"),
     "vertex C-set 1: missing key 'actions'"),
    (lambda doc: doc["edge_csets"][1]["actions"].__setitem__(0, 5),
     "edge C-set 1 action 0: missing key 'map'"),
    (lambda doc: doc["legs"][1]["maps"][0]["map"].__setitem__("α", "z"),
     "leg 1 component 0: unknown target element 'z'"),
    (lambda doc: doc["legs"][3]["maps"].__setitem__(0, {"map": [0]}),
     "leg 3 component 0: table length differs from source size"),
], ids=["vertex-csets-int", "edge-csets-int", "objects-int", "actions-int",
        "maps-int", "object-count", "action-count", "map-count",
        "action-entry-range", "action-labels-unlabelled", "set-over-cap",
        "maps-missing", "actions-missing", "action-not-object",
        "leg-label-unknown", "leg-short"])
def test_cset_diagram_parse_error_texts(mutate, text):
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_cset_diagram(_cset_doc(mutate), FinCat.terminal())
    assert str(err.value) == text


@pytest.mark.parametrize("mutate, text", [
    (lambda doc: doc["vertex_csets"][0]["actions"][2]["map"].__setitem__(
        0, 99),
     "vertex C-set 0 action 2: table entry 99 at 0 is not an integer below "
     "target size 3"),
    (lambda doc: doc["edge_csets"][1]["actions"][2]["map"].__setitem__(
        0, True),
     "edge C-set 1 action 2: table entry True at 0 is not an integer below "
     "target size 2"),
    (lambda doc: doc["legs"][1]["maps"][1]["map"].__setitem__(0, -1),
     "leg 1 component 1: table entry -1 at 0 is not an integer below "
     "target size 3"),
    (lambda doc: doc["vertex_csets"][2]["actions"][0]["map"].append(0),
     "vertex C-set 2 action 0: table length differs from source size"),
    (lambda doc: doc["legs"][0]["maps"].pop(),
     "leg 0: one map per C-object required"),
    (lambda doc: doc["vertex_csets"][1]["objects"].__setitem__(
        0, {"elements": "ab"}),
     "vertex C-set 1 object 0: elements must be a list of strings"),
], ids=["action-entry-range", "action-entry-bool", "leg-entry-negative",
        "action-long", "map-count", "object-elements-str"])
def test_walking_arrow_cset_parse_error_texts(mutate, text):
    # the arrow acts between different C-objects, so the sizes an action
    # is read against differ
    doc = jsonio.cset_diagram_to_json(random_walking_arrow_diagram(
        random.Random(3), SimpleGraph(3, [(0, 1), (1, 2)]), 3))
    mutate(doc)
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_cset_diagram(doc, FinCat.walking_arrow())
    assert str(err.value) == text


def _columns(d) -> str:
    """The loaded columns of a plain diagram, container types included."""
    return repr((d.shape.n, d.shape.edges, d.vertex_size, d.edge_size,
                 d.tables, sorted(d.vertex_labels.items()),
                 sorted(d.edge_labels.items())))


def _load_outcome(doc, cat) -> str:
    """What loading doc gives: its ParseError text, or its columns."""
    try:
        if cat is None:
            return "ok " + _columns(jsonio.parse_diagram(doc))
        d = jsonio.parse_cset_diagram(doc, jsonio.parse_fincat(cat))
        return "ok " + repr(([_columns(s) for s in d.slices],
                             d.vertex_actions, d.edge_actions))
    except jsonio.ParseError as exc:
        return "error " + str(exc)


def test_loader_golden_digest():
    # a seeded corpus of single mutations of valid plain and C-set
    # documents: every loader either refuses with a ParseError (no other
    # exception escapes) or loads columns, and the texts and columns hash
    # to the digest the per-object loaders gave
    outcomes = [_load_outcome(doc, cat)
                for _, _, doc, cat in loader_corpus()]
    assert len(outcomes) == 400
    refused = sum(o.startswith("error ") for o in outcomes)
    assert 250 < refused < 400
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == (
        "68f59d985ed3729dacb7236be959a8fb792b04640ee7c708386549982c786d48")


def test_loaders_record_only_what_validate_accepts():
    # a loader records every plain diagram it makes as valid, so validate
    # and the solvers skip it; the record is sound only while the loader
    # checks all that validate checks, which a fresh copy of the columns
    # pins on every document of the corpus that loads.  A C-set diagram
    # is recorded only when validate_cset_codecomp would accept it, which
    # an unrecorded copy over the same columns pins; the one that loads
    # unrecorded breaks naturality, and cset_inlim refuses it by name
    loaded = {"plain": 0, "cset": 0}
    recorded = 0
    for _, _, doc, cat in loader_corpus():
        try:
            if cat is None:
                slices = [jsonio.parse_diagram(doc)]
            else:
                c = jsonio.parse_cset_diagram(doc, jsonio.parse_fincat(cat))
                slices = c.slices
        except jsonio.ParseError:
            continue
        loaded["plain" if cat is None else "cset"] += 1
        for d in slices:
            assert d._valid
            assert validate(d) == []
            fresh = CoDecomposition(d.shape, d.vertex_size, d.edge_size,
                                    d.tables, d.vertex_labels, d.edge_labels)
            assert not fresh._valid
            assert validate(fresh) == []
        if cat is None:
            continue
        fresh = CSetCoDecomposition(c.cat, c.shape, c.slices,
                                    c.vertex_actions, c.edge_actions)
        assert not fresh._valid
        assert c._valid == (validate_cset_codecomp(fresh) == [])
        recorded += c._valid
        if not c._valid:
            with pytest.raises(ValueError) as err:
                cset_inlim(c)
            assert str(err.value) == (
                "invalid C-set diagram: leg of edge 1 at vertex 2: "
                "naturality square fails at morphism 2")
    assert loaded == {"plain": 11, "cset": 13}
    assert recorded == 12


@pytest.mark.parametrize("seed", range(3))
def test_legs_load_in_any_order(seed):
    # legs are placed by their (edge, endpoint) ids, not by their position
    rng = random.Random(seed)
    for _, doc, cat in corpus_bases():
        expected = _load_outcome(doc, cat)
        assert expected.startswith("ok ")
        rng.shuffle(doc["legs"])
        assert _load_outcome(doc, cat) == expected


# Small valid documents with an empty set in them, in size form and in
# label form; the C-set ones over the walking arrow, whose arrow acts on
# the empty set.
def _typed_substitution_bases():
    plain_sized = {
        "shape": {"n": 2, "edges": [[0, 1]]},
        "vertex_sets": [{"size": 0}, {"size": 1}],
        "edge_sets": [{"size": 2}],
        "legs": [{"edge": 0, "endpoint": 0, "map": []},
                 {"edge": 0, "endpoint": 1, "map": [1]}]}
    plain_labelled = {
        "shape": {"n": 2, "edges": [[0, 1]]},
        "vertex_sets": [{"elements": []}, {"elements": ["a"]}],
        "edge_sets": [{"elements": ["x", "y"]}],
        "legs": [{"edge": 0, "endpoint": 0, "map": {}},
                 {"edge": 0, "endpoint": 1, "map": {"a": "y"}}]}
    cat = jsonio.fincat_to_json(FinCat.walking_arrow())

    def cset(sizes, tables):
        return {"objects": [{"size": s} for s in sizes],
                "actions": [{"map": t} for t in tables]}

    one = cset([1, 1], [[0], [0], [0]])
    cset_sized = {
        "shape": {"n": 2, "edges": [[0, 1]]},
        "vertex_csets": [cset([0, 1], [[], [0], []]), one],
        "edge_csets": [one],
        "legs": [{"edge": 0, "endpoint": 0, "maps": [{"map": []},
                                                     {"map": [0]}]},
                 {"edge": 0, "endpoint": 1, "maps": [{"map": [0]},
                                                     {"map": [0]}]}]}

    def lcset(names, tables):
        return {"objects": [{"elements": n} for n in names],
                "actions": [{"map": t} for t in tables]}

    lone = lcset([["p"], ["q"]], [{"p": "p"}, {"q": "q"}, {"p": "q"}])
    cset_labelled = {
        "shape": {"n": 2, "edges": [[0, 1]]},
        "vertex_csets": [lcset([[], ["q"]], [{}, {"q": "q"}, {}]), lone],
        "edge_csets": [lone],
        "legs": [{"edge": 0, "endpoint": 0, "maps": [{"map": {}},
                                                     {"map": {"q": "q"}}]},
                 {"edge": 0, "endpoint": 1,
                  "maps": [{"map": {"p": "p"}}, {"map": {"q": "q"}}]}]}
    return [(plain_sized, None), (plain_labelled, None), (cset_sized, cat),
            (cset_labelled, cat)]


def _substitutions(doc, value):
    """doc with one node replaced by value, for every node of doc (the
    whole document included)."""
    yield value
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc)
             if isinstance(doc, list) else ())
    for key, child in items:
        for sub in _substitutions(child, value):
            out = copy.copy(doc)
            out[key] = sub
            yield out


_TYPED_VALUES = [None, "", "ab", 0, -1, True, 1.5, [], {}, [0], {"a": "x"},
                 [[0]], "0"]


def test_typed_substitutions_load_or_raise_parse_error():
    # a malformed node of any JSON type is refused with a ParseError, never
    # a TypeError or the loaders' internal AssertionError
    loaded = refused = 0
    for doc, cat in _typed_substitution_bases():
        assert _load_outcome(doc, cat).startswith("ok ")
        for value in _TYPED_VALUES:
            variants = [(d, cat) for d in _substitutions(doc, value)]
            if cat is not None:
                variants += [(doc, c) for c in _substitutions(cat, value)]
            for d, c in variants:
                try:
                    if c is None:
                        jsonio.parse_diagram(d)
                    else:
                        jsonio.parse_cset_diagram(d, jsonio.parse_fincat(c))
                    loaded += 1
                except jsonio.ParseError:
                    refused += 1
    assert loaded and refused
    for edges in ([(0, 1, 2)], [(0,)], [5], [None]):
        with pytest.raises(ValueError) as err:
            SimpleGraph(3, edges)
        assert type(err.value) is ValueError
        assert str(err.value) == "edge 0 is not a pair of vertex ids"


def test_string_map_into_an_empty_set_is_named():
    # "" passes the length and entry checks of an empty table, but it is
    # no table: the walk names it as the one-pass check refuses it
    (doc, _), _, (cdoc, cat), _ = _typed_substitution_bases()
    doc["legs"][0]["map"] = ""
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_diagram(doc)
    assert str(err.value) == "leg 0: map must be a list or an object"
    cdoc["vertex_csets"][0]["actions"][2]["map"] = ""
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_cset_diagram(cdoc, jsonio.parse_fincat(cat))
    assert str(err.value) == \
        "vertex C-set 0 action 2: map must be a list or an object"
    cdoc["vertex_csets"][0]["actions"][2]["map"] = []
    cdoc["legs"][0]["maps"][0]["map"] = ""
    with pytest.raises(jsonio.ParseError) as err:
        jsonio.parse_cset_diagram(cdoc, jsonio.parse_fincat(cat))
    assert str(err.value) == \
        "leg 0 component 0: map must be a list or an object"
