import random

import pytest

from conftest import (
    c4_example,
    cospan_example,
    diagrams_equal,
    path_example,
    random_closed_mask,
    random_tree_diagram,
)
from limsolve import (
    CoDecomposition,
    FinFn,
    FinSetObj,
    SimpleGraph,
    SubMask,
    VertexSet,
    as_subdiagram,
    check_leg_closure,
    filter_edge,
    glue,
    restrict_to_subgraph,
    validate,
)
from limsolve.generate import random_diagram, random_tree


def test_validate_worked_examples_ok():
    assert validate(path_example()) == []
    assert validate(c4_example()) == []


def test_validate_reports_out_of_range_leg():
    # leg internally total, but sized against the wrong edge set
    d = CoDecomposition(
        SimpleGraph(2, [(0, 1)]),
        [FinSetObj(1), FinSetObj(1)],
        [FinSetObj(2)],
        [(FinFn(1, 7, (6,)), FinFn(1, 2, (0,)))],
    )
    problems = validate(d)
    assert len(problems) == 1 and "target size 7" in problems[0]


def test_validate_reads_the_columns():
    # from_columns checks only the column lengths; validate checks the tables
    d = CoDecomposition.from_columns(SimpleGraph(2, [(0, 1)]), [2, 1], [2],
                                     [((0,), (2,))])
    assert validate(d) == [
        "leg of edge 0 at vertex 0: source size 1 != vertex set size 2",
        "leg of edge 0 at vertex 1: table needs target size 3 > edge set size 2",
    ]
    with pytest.raises(ValueError, match="one set per shape vertex"):
        CoDecomposition.from_columns(SimpleGraph(2, [(0, 1)]), [1], [2],
                                     [((0,), (1,))])


def test_constructor_checks_arity():
    with pytest.raises(ValueError):
        CoDecomposition(SimpleGraph(2, [(0, 1)]), [FinSetObj(1)],
                        [FinSetObj(1)], [(FinFn(1, 1, (0,)),) * 2])


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

    pools = [m.vertex_elements(x) for x in range(d.shape.n)]
    out = []
    for combo in itertools.product(*pools):
        if all(d.legs[e][0](combo[u]) == d.legs[e][1](combo[v])
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


def single_vertex_diagram(size):
    return CoDecomposition(SimpleGraph(1, []), [FinSetObj(size)], [], [])


def test_glue_two_points_makes_cospan():
    d1 = single_vertex_diagram(1)
    d2 = single_vertex_diagram(1)
    e_obj = FinSetObj(2, ("a", "b"))
    glued, mask = glue(
        d1, d1.full_mask(), 0, FinFn(1, 2, (0,)),
        d2, d2.full_mask(), 0, FinFn(1, 2, (1,)),
        e_obj,
    )
    assert diagrams_equal(glued, cospan_example())
    assert mask.vertex == [1, 1] and mask.edge == [0b11]


def test_glue_rejects_size_mismatch():
    d1 = single_vertex_diagram(2)
    d2 = single_vertex_diagram(1)
    with pytest.raises(ValueError):
        glue(d1, d1.full_mask(), 0, FinFn(1, 2, (0,)),
             d2, d2.full_mask(), 0, FinFn(1, 2, (1,)), FinSetObj(2))


def test_glue_reassembles_path_example():
    d = path_example()
    m = d.full_mask()
    r1 = restrict_to_subgraph(d, m, VertexSet.of(3, [0, 1]))
    r2 = restrict_to_subgraph(d, m, VertexSet.of(3, [2]))
    glued, _ = glue(
        r1.diagram, r1.mask, 1, d.legs[1][0],
        r2.diagram, r2.mask, 0, d.legs[1][1],
        d.edge_obj[1],
    )
    assert diagrams_equal(glued, d)


def test_glue_round_trip_random_trees():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        d = random_diagram(rng, random_tree(rng, n), 4)
        e = rng.randrange(d.shape.m)
        u, v = d.shape.edges[e]
        # vertices on u's side of the cut edge
        inc = d.shape.incidence
        side = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for ee, w in inc[x]:
                if ee != e and w not in side:
                    side.add(w)
                    stack.append(w)
        keep1 = VertexSet.of(n, side)
        r1 = restrict_to_subgraph(d, d.full_mask(), keep1)
        r2 = restrict_to_subgraph(d, d.full_mask(), keep1.complement())
        glued, _ = glue(
            r1.diagram, r1.mask, r1.vertex_map[u], d.legs[e][0],
            r2.diagram, r2.mask, r2.vertex_map[v], d.legs[e][1],
            d.edge_obj[e],
        )
        assert validate(glued) == []
        # same vertex sets through the index maps
        n1 = r1.diagram.shape.n
        for old in range(n):
            new = (r1.vertex_map[old] if old in side
                   else r2.vertex_map[old] + n1)
            assert glued.vertex_obj[new].size == d.vertex_obj[old].size
        # every original edge appears exactly once with its legs intact
        m1 = r1.diagram.shape.m
        for old_e in range(d.shape.m):
            if old_e == e:
                new_e = glued.shape.m - 1
            elif r1.edge_map[old_e] is not None:
                new_e = r1.edge_map[old_e]
            else:
                new_e = r2.edge_map[old_e] + m1
            assert glued.edge_obj[new_e].size == d.edge_obj[old_e].size
            tables = {f.table for f in glued.legs[new_e]}
            assert tables == {f.table for f in d.legs[old_e]}


def test_restrict_keep_all_is_identity():
    d = path_example()
    r = restrict_to_subgraph(d, d.full_mask(), VertexSet.of(3, range(3)))
    assert diagrams_equal(r.diagram, d)
    assert r.vertex_map == [0, 1, 2] and r.edge_map == [0, 1]


def test_restrict_c4_to_forest():
    d = c4_example()
    r = restrict_to_subgraph(d, d.full_mask(), VertexSet.of(4, [1, 2, 3]))
    assert r.diagram.shape == SimpleGraph(3, [(0, 1), (1, 2)])
    assert [o.size for o in r.diagram.vertex_obj] == [2, 2, 2]
    assert r.edge_map == [None, 0, 1, None]


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
            assert r.diagram.legs[new_e] == d.legs[old_e]
            assert r.diagram.edge_obj[new_e] is d.edge_obj[old_e]


def test_as_subdiagram_full_mask_copy():
    d = path_example()
    assert diagrams_equal(as_subdiagram(d, d.full_mask()), d)


def test_as_subdiagram_image_of_path_example():
    from limsolve import image_tree

    d = path_example()
    sub = as_subdiagram(d, image_tree(d, d.full_mask()))
    assert [o.labels for o in sub.vertex_obj] == [("c",), ("β",), ("r", "s")]
    assert [o.labels for o in sub.edge_obj] == [("y",), ("v",)]
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
    assert m.vertex_elements(0) == [0, 2]
    m2 = m.copy()
    m2.zero()
    assert m.vertex == [0b101] and m2.vertex == [0]
