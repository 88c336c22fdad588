import pytest

from conftest import c4_example, cospan_example, diagrams_equal, path_example
from limsolve import FinCat, FinSetObj, SimpleGraph
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


def test_finset_forms():
    assert jsonio.parse_finset({"size": 3}) == FinSetObj(3)
    labeled = jsonio.parse_finset({"elements": ["a", "b"]})
    assert labeled == FinSetObj(2, ("a", "b"))
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_finset({"elements": ["a", "a"]})
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_finset({})


def test_fn_label_form():
    src = FinSetObj(2, ("a", "b"))
    tgt = FinSetObj(2, ("x", "y"))
    fn = jsonio.parse_fn({"map": {"a": "y", "b": "x"}}, src, tgt)
    assert fn.table == (1, 0)
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fn({"map": {"a": "z", "b": "x"}}, src, tgt)
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fn({"map": {"a": "x"}}, src, tgt)
    # label form needs labels on both sides
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fn({"map": {"a": "x"}}, FinSetObj(2), tgt)


def test_fn_index_form_range_checked():
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_fn({"map": [2]}, FinSetObj(1), FinSetObj(2))


def test_diagram_round_trip_examples():
    for d in (path_example(), c4_example(), cospan_example()):
        again = jsonio.parse_diagram(jsonio.diagram_to_json(d))
        assert diagrams_equal(again, d)
        assert [o.labels for o in again.vertex_obj] == \
            [o.labels for o in d.vertex_obj]


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
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_finset({"size": size})


def test_set_size_is_capped():
    cap = jsonio.MAX_SET_SIZE
    assert cap == 2 ** 20
    assert jsonio.parse_finset({"size": cap}) == FinSetObj(cap)
    with pytest.raises(jsonio.ParseError, match="edge set 0: size 10000000"):
        jsonio.parse_finset({"size": 10 ** 7}, "edge set 0")
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
