import hashlib
import random

import pytest

from conftest import (
    c4_example,
    c4_untwisted_example,
    corrupt_table,
    cospan_example,
    diagrams_equal,
    edgeless_diagram,
    path_example,
    random_closed_mask,
    random_tree_diagram,
    shifted_spider,
)
from limsolve import (
    CoDecomposition,
    SimpleGraph,
    SubMask,
    VertexSet,
    as_subdiagram,
    check_leg_closure,
    filter_edge,
    restrict_to_subgraph,
    validate,
)
from limsolve.diagram import _table_problems, bits, mask_of, table_image


def test_validate_worked_examples_ok():
    assert validate(path_example()) == []
    assert validate(c4_example()) == []


def test_validate_reports_out_of_range_leg():
    # a leg table that needs a larger edge set than it has
    d = CoDecomposition(SimpleGraph(2, [(0, 1)]), [1, 1], [2], [((6,), (0,))])
    problems = validate(d)
    assert len(problems) == 1 and "target size 7" in problems[0]


def test_validate_reads_the_columns():
    # the constructor checks only the column lengths; validate checks the
    # tables and the labels
    edge = SimpleGraph(2, [(0, 1)])
    d = CoDecomposition(edge, [2, 1], [2], [((0,), (2,))])
    assert validate(d) == [
        "leg of edge 0 at vertex 0: source size 1 != vertex set size 2",
        "leg of edge 0 at vertex 1: table needs target size 3 > edge set size 2",
    ]
    # a negative entry and a bool are no element indices
    d = CoDecomposition(edge, [2, 1], [2], [((0, -1), (1,))])
    assert validate(d) == [
        "leg of edge 0 at vertex 0: entry -1 at position 1 is not a "
        "non-negative integer",
    ]
    d = CoDecomposition(edge, [1, 1], [2], [((0,), (True,))])
    assert validate(d) == [
        "leg of edge 0 at vertex 1: entry True at position 0 is not a "
        "non-negative integer",
    ]
    d = CoDecomposition(edge, [1, 1], [2], [((0,), (1,))],
                        vertex_labels={0: ("a", "b")},
                        edge_labels={0: ("x", "x")})
    assert validate(d) == [
        "vertex set 0: labels ('a', 'b') are not 1 distinct names",
        "edge set 0: labels ('x', 'x') are not 2 distinct names",
    ]
    # a label key that is no set index: out of range, negative, or a bool
    d = CoDecomposition(edge, [1, 1], [1], [((0,), (0,))],
                        vertex_labels={5: ("a",), 0: ("b",)},
                        edge_labels={-1: ("x",), True: ("y",)})
    assert validate(d) == [
        "vertex labels: key 5 names no vertex set",
        "edge labels: key -1 names no edge set",
        "edge labels: key True names no edge set",
    ]
    with pytest.raises(ValueError, match="one set per shape vertex"):
        CoDecomposition(edge, [1], [2], [((0,), (1,))])


def test_validate_fast_check_agrees_with_the_walk():
    # validate names table problems only when its all-at-once check fails,
    # so that check must fail exactly when the per-table walk finds one
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        d = random_tree_diagram(rng.randrange(10 ** 6), n_max=6)
        if not d.shape.m:
            continue
        e = rng.randrange(d.shape.m)
        side = rng.randrange(2)
        pair = list(d.tables[e])
        pair[side] = corrupt_table(rng, pair[side], d.edge_size[e])
        tables = list(d.tables)
        tables[e] = tuple(pair)
        bad = CoDecomposition(d.shape, d.vertex_size, d.edge_size, tables)
        walked = _table_problems(bad)
        assert validate(bad) == walked
        seen.add(not walked)
    assert seen == {True, False}
    # a table that is no list or tuple is named by both, not a TypeError
    edge = SimpleGraph(2, [(0, 1)])
    for table in (5, None, "a", {0: 0}, range(1)):
        bad = CoDecomposition(edge, [1, 1], [1], [(table, (0,))])
        assert validate(bad) == _table_problems(bad) == [
            "leg of edge 0 at vertex 0: table is not a list or tuple"]
    # and so is an edge whose legs are not a pair of tables
    for pair in (5, None, ((0,),), ((0,), (0,), (0,))):
        bad = CoDecomposition(edge, [1, 1], [1], [pair])
        assert validate(bad) == _table_problems(bad) == [
            "edge 0: legs are not a pair of tables"]


def test_constructor_checks_arity():
    edge = SimpleGraph(2, [(0, 1)])
    with pytest.raises(ValueError, match="one set per shape edge"):
        CoDecomposition(edge, [1, 1], [], [((0,), (0,))])
    with pytest.raises(ValueError, match="exactly two legs per shape edge"):
        CoDecomposition(edge, [1, 1], [1], [])


def test_fixtures_keep_their_columns():
    # sha256 of the fixtures' columns, recorded when they were still built
    # from set and function objects; a rewrite of a builder must not move it
    def columns(d):
        return (tuple(d.shape.edges), tuple(d.vertex_size),
                tuple(d.edge_size),
                tuple((tuple(tu), tuple(tv)) for tu, tv in d.tables),
                sorted((i, tuple(lab)) for i, lab in d.vertex_labels.items()),
                sorted((i, tuple(lab)) for i, lab in d.edge_labels.items()))

    fixtures = [path_example(), c4_example(), c4_untwisted_example(),
                cospan_example(), edgeless_diagram([3, 0, 2]),
                shifted_spider(3, 31)[0]]
    digest = hashlib.sha256(
        repr([columns(d) for d in fixtures]).encode()).hexdigest()
    assert digest == ("5a14791a9b1bc99dcab25d830b1d1977"
                      "507e848f8e0e453134eeb8202c008b98")


def test_filter_c4_full_mask_unchanged():
    d = c4_example()
    for e in range(4):
        m = d.full_mask()
        before = m.copy()
        filter_edge(d, m, e)
        assert m == before


def test_filter_pinned_c4_matches_worked_example():
    # pin vertex 0 to "a", filter its two incident edges
    d = c4_example()
    m = d.full_mask()
    m.vertex[0] = 0b01
    filter_edge(d, m, 0)
    filter_edge(d, m, 3)
    assert m.vertex == [0b01, 0b10, 0b11, 0b01]  # {a}, {d}, {c,d}, {a}
    assert m.edge == [0b01, 0b11, 0b11, 0b01]    # {"3"}, full, full, {a}


def test_filter_cospan_empties():
    d = cospan_example()
    m = filter_edge(d, d.full_mask(), 0)
    assert m.vertex == [0, 0] and m.edge == [0]


def test_filter_monotone_and_idempotent():
    for seed in range(60):
        rng = random.Random(seed)
        d = random_tree_diagram(seed)
        if d.shape.m == 0:
            continue
        m = random_closed_mask(rng, d)
        e = rng.randrange(d.shape.m)
        before = m.copy()
        once = filter_edge(d, m.copy(), e)
        for x in range(d.shape.n):
            assert once.vertex[x] & ~before.vertex[x] == 0
        for i in range(d.shape.m):
            assert once.edge[i] & ~before.edge[i] == 0
        twice = filter_edge(d, once.copy(), e)
        assert twice == once


def test_filter_preserves_leg_closure():
    for seed in range(60):
        rng = random.Random(seed)
        d = random_tree_diagram(seed)
        if d.shape.m == 0:
            continue
        m = random_closed_mask(rng, d)
        assert check_leg_closure(d, m) == []
        for _ in range(3):
            filter_edge(d, m, rng.randrange(d.shape.m))
            assert check_leg_closure(d, m) == []


def test_filter_invalid_edge():
    with pytest.raises(ValueError):
        filter_edge(path_example(), path_example().full_mask(), 5)


def masked_families(d, m):
    """Matching families of the masked diagram, straight off the tables."""
    import itertools

    pools = [list(bits(m.vertex[x])) for x in range(d.shape.n)]
    out = []
    for combo in itertools.product(*pools):
        if all(d.tables[e][0][combo[u]] == d.tables[e][1][combo[v]]
               for e, (u, v) in enumerate(d.shape.edges)):
            out.append(combo)
    return out


def test_filter_preserves_masked_limit():
    for seed in range(40):
        rng = random.Random(seed)
        d = random_tree_diagram(seed, n_max=6, w=3)
        if d.shape.m == 0:
            continue
        m = random_closed_mask(rng, d)
        before = masked_families(d, m)
        filter_edge(d, m, rng.randrange(d.shape.m))
        assert masked_families(d, m) == before


def test_filter_commutes_on_disjoint_edges():
    for seed in range(200):
        rng = random.Random(seed)
        d = random_tree_diagram(seed, n_max=8, w=3)
        disjoint = [
            (e1, e2)
            for e1 in range(d.shape.m) for e2 in range(e1 + 1, d.shape.m)
            if not set(d.shape.edges[e1]) & set(d.shape.edges[e2])
        ]
        if not disjoint:
            continue
        e1, e2 = disjoint[rng.randrange(len(disjoint))]
        m = random_closed_mask(rng, d)
        first = filter_edge(d, filter_edge(d, m.copy(), e1), e2)
        second = filter_edge(d, filter_edge(d, m.copy(), e2), e1)
        assert first == second


def test_restrict_keep_all_is_identity():
    d = path_example()
    r = restrict_to_subgraph(d, d.full_mask(), VertexSet.of(3, range(3)))
    assert diagrams_equal(r.diagram, d)
    assert r.vertex_map == [0, 1, 2] and r.edge_map == [0, 1]


def test_restrict_c4_to_forest():
    d = c4_example()
    r = restrict_to_subgraph(d, d.full_mask(), VertexSet.of(4, [1, 2, 3]))
    assert r.diagram.shape == SimpleGraph(3, [(0, 1), (1, 2)])
    assert r.diagram.vertex_size == [2, 2, 2]
    assert r.edge_map == [None, 0, 1, None]
    # labels follow their sets to the new indices
    assert r.diagram.vertex_labels == {i: d.vertex_labels[i + 1]
                                       for i in range(3)}
    assert r.diagram.edge_labels == {i: d.edge_labels[i + 1]
                                     for i in range(2)}


def test_restrict_preserves_legs():
    for seed in range(25):
        rng = random.Random(seed)
        d = random_tree_diagram(seed)
        keep = VertexSet.of(d.shape.n,
                            [v for v in range(d.shape.n) if rng.random() < 0.6])
        r = restrict_to_subgraph(d, d.full_mask(), keep)
        for old_e, new_e in enumerate(r.edge_map):
            if new_e is None:
                continue
            assert r.diagram.edge_size[new_e] == d.edge_size[old_e]
            assert r.diagram.tables[new_e] is d.tables[old_e]


def test_as_subdiagram_full_mask_copy():
    d = path_example()
    assert diagrams_equal(as_subdiagram(d, d.full_mask()), d)


def test_as_subdiagram_image_of_path_example():
    from limsolve import image_tree

    d = path_example()
    sub = as_subdiagram(d, image_tree(d, d.full_mask()))
    assert sub.vertex_labels == {0: ("c",), 1: ("β",), 2: ("r", "s")}
    assert sub.edge_labels == {0: ("y",), 1: ("v",)}
    assert validate(sub) == []


def test_as_subdiagram_random_masks_validate():
    for seed in range(25):
        rng = random.Random(seed)
        d = random_tree_diagram(seed)
        m = random_closed_mask(rng, d)
        assert validate(as_subdiagram(d, m)) == []


def test_as_subdiagram_rejects_closure_violation():
    d = path_example()
    m = d.full_mask()
    m.edge[0] = 0b01  # drops y, but c still maps there
    with pytest.raises(ValueError):
        as_subdiagram(d, m)


def test_submask_helpers():
    m = SubMask([0b101], [])
    assert list(bits(m.vertex[0])) == [0, 2]
    m2 = m.copy()
    m2.zero()
    assert m.vertex == [0b101] and m2.vertex == [0]


def test_image_surjection_all_true():
    assert table_image((0, 1, 2, 3), (1 << 4) - 1) == (1 << 4) - 1


def test_image_empty_source():
    assert table_image((), 0) == 0
    # a masked-out source element marks nothing
    assert table_image((0, 2), 0b10) == 0b100


def test_image_path_example_leg():
    # a -> x, b -> x, c -> y marks both x and y
    assert table_image((0, 0, 1), (1 << 3) - 1) == 0b11


def test_image_of_composite_inside_image():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = [rng.randrange(b) for _ in range(a)]
        g = [rng.randrange(c) for _ in range(b)]
        gf = [g[t] for t in f]
        assert (table_image(gf, (1 << a) - 1)
                & ~table_image(g, (1 << b) - 1) == 0)


def test_bit_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert (1 << 0) - 1 == 0
