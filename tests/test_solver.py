import hashlib
import itertools
import random
import tracemalloc

import pytest

from conftest import (
    DISCRETE_2,
    best_of_interleaved,
    c4_example,
    c4_untwisted_example,
    corpus_bases,
    cospan_example,
    edgeless_diagram,
    narrowing_spider,
    path_example,
    random_graph_diagram,
    random_tree_diagram,
    shifted_spider,
)
from limsolve import (
    CoDecomposition,
    SectionAssignment,
    SimpleGraph,
    VertexSet,
    Witness,
    brute_image,
    cset_inlim,
    enumerate_limit,
    extract_witness,
    forest_initial,
    image_tree,
    inlim,
    restrict_to_subgraph,
    section_tests,
    witness_violations,
)
from limsolve.generate import path_graph, random_tree


def test_inlim_edgeless_shapes():
    # an edgeless shape's limit is the product of its sets: empty iff a
    # factor is
    assert not inlim(edgeless_diagram([2, 3, 1])).verdict.empty_limit
    assert inlim(edgeless_diagram([2, 0, 5])).verdict.empty_limit
    for sizes in ([], [0], [1], [3, 0], [4, 4, 4]):
        d = edgeless_diagram(sizes)
        assert inlim(d).verdict.empty_limit == (not enumerate_limit(d)), sizes
    for seed in range(50):
        rng = random.Random(seed)
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(0, 6))]
        d = edgeless_diagram(sizes)
        result = inlim(d, want_witness=True)
        assert result.verdict.empty_limit == (not enumerate_limit(d)), sizes
        if not result.verdict.empty_limit:
            assert result.witness.vertex_elements == (0,) * len(sizes)


def test_image_tree_path_example():
    d = path_example()
    m = image_tree(d, d.full_mask())
    assert m.vertex == [0b100, 0b10, 0b11]
    assert m.edge == [0b10, 0b10]


def test_image_tree_edgeless_unchanged():
    d = edgeless_diagram([2, 3])
    m = image_tree(d, d.full_mask())
    assert m == d.full_mask()


def test_image_tree_rejects_cycles():
    d = c4_example()
    with pytest.raises(ValueError):
        image_tree(d, d.full_mask())


def test_image_tree_zeroes_everything_when_one_component_dies():
    # healthy component + empty-set component: no global families at all
    d = CoDecomposition(SimpleGraph(3, [(0, 1)]), [2, 2, 0], [2],
                        [((0, 1), (0, 1))])
    m = image_tree(d, d.full_mask())
    assert m.vertex == [0, 0, 0] and m.edge == [0]
    assert m == brute_image(d)


def test_image_tree_matches_brute_image():
    for seed in range(80):
        d = random_tree_diagram(seed)
        assert image_tree(d, d.full_mask()) == brute_image(d)


def test_image_tree_monotone():
    for seed in range(30):
        d = random_tree_diagram(seed)
        full = d.full_mask()
        out = image_tree(d, full)
        for x in range(d.shape.n):
            assert out.vertex[x] & ~full.vertex[x] == 0


def test_forest_initial_examples():
    d = path_example()
    assert not forest_initial(d, d.full_mask()).empty_limit
    c = cospan_example()
    assert forest_initial(c, c.full_mask()).empty_limit


def test_forest_initial_on_c4_section_tests():
    d = c4_example()
    for test in section_tests(d, VertexSet.of(4, [0])):
        assert not test.immediately_empty
        assert forest_initial(test.tau, test.tau_mask).empty_limit


def test_forest_initial_matches_oracle_on_forests():
    for seed in range(60):
        d = random_tree_diagram(seed)
        assert forest_initial(d, d.full_mask()).empty_limit == \
            (not enumerate_limit(d))


def test_section_tests_c4_matches_worked_example():
    d = c4_example()
    tests = list(section_tests(d, VertexSet.of(4, [0])))
    assert len(tests) == 2
    assert tests[0].assignment.choices == ((0, 0),)
    assert tests[1].assignment.choices == ((0, 1),)
    # tau vertices are old 1, 2, 3 in order
    assert tests[0].tau_mask.vertex == [0b10, 0b11, 0b01]  # {d}, {c,d}, {a}
    assert tests[1].tau_mask.vertex == [0b01, 0b11, 0b10]  # {c}, {c,d}, {b}
    for t in tests:
        assert t.tau.shape == SimpleGraph(3, [(0, 1), (1, 2)])
        assert t.tau_mask.edge == [0b11, 0b11]
        assert t.vertex_map == [None, 0, 1, 2]
        assert t.edge_map == [None, 0, 1, None]


def test_section_tests_empty_fvs_yields_diagram_itself():
    d = path_example()
    tests = list(section_tests(d, VertexSet(3, 0)))
    assert len(tests) == 1
    assert tests[0].assignment.choices == ()
    # the one empty combination restricts d to all of its vertices
    tau = tests[0].tau
    assert (tau.shape, tau.vertex_size, tau.edge_size, tau.tables) \
        == (d.shape, d.vertex_size, d.edge_size, d.tables)
    assert (tau.vertex_labels, tau.edge_labels) \
        == (d.vertex_labels, d.edge_labels)
    assert tests[0].tau_mask == d.full_mask()
    assert tests[0].vertex_map == [0, 1, 2]
    assert tests[0].edge_map == [0, 1]


def test_section_tests_empty_pinned_set_yields_nothing():
    # some d(s) empty: zero tests, and the limit is empty overall
    d = CoDecomposition(
        SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]), [0, 2, 2], [1, 1, 1],
        [((), (0, 0)), ((0, 0), (0, 0)), ((), (0, 0))])
    assert list(section_tests(d, VertexSet.of(3, [0]))) == []
    result = inlim(d, fvs=VertexSet.of(3, [0]))
    assert result.verdict.empty_limit
    assert result.section_test_count == 0


def test_section_tests_rejects_non_fvs():
    d = c4_example()
    with pytest.raises(ValueError):
        list(section_tests(d, VertexSet(4, 0)))


def test_inlim_c4_empty():
    result = inlim(c4_example())
    assert result.verdict.empty_limit
    assert result.fvs and len(result.fvs) == 1
    assert result.section_test_count == 2


def test_inlim_untwisted_c4_nonempty():
    d = c4_untwisted_example()
    assert enumerate_limit(d)  # oracle confirms a family exists
    result = inlim(d, want_witness=True)
    assert not result.verdict.empty_limit
    assert witness_violations(d, result.witness) == []


def test_witness_violations_texts():
    d = path_example()  # families (c, β, r) and (c, β, s)
    assert witness_violations(d, Witness((2, 1, 0), (1, 1))) == []
    assert witness_violations(d, Witness((2, 1), (1, 1))) == \
        ["witness arity differs from shape"]
    assert witness_violations(d, Witness((0, 1, 0), (1, 1))) == \
        ["edge 0: endpoint values map to 0 and 1, edge element is 1"]
    # values that are not elements are named, not wrapped or coerced
    d = CoDecomposition(SimpleGraph(2, [(0, 1)]), [2, 2], [2],
                        [((0, 1), (0, 1))])
    assert witness_violations(d, Witness((1, 1), (1,))) == []
    assert witness_violations(d, Witness((-1, 1), (1,))) == \
        ["vertex 0: element -1 is not an int in [0, 2)"]
    assert witness_violations(d, Witness((True, 1), (1,))) == \
        ["vertex 0: element True is not an int in [0, 2)"]
    assert witness_violations(d, Witness((5, 1), (1,))) == \
        ["vertex 0: element 5 is not an int in [0, 2)"]
    assert witness_violations(d, Witness((1, "1"), (True,))) == \
        ["vertex 1: element '1' is not an int in [0, 2)",
         "edge 0: element True is not an int"]


def _forest_shapes(rng):
    """Paths, random trees, and forests of several trees whose vertices a
    seeded permutation relabels, so that roots are not 0 and the labelling
    is not heap-ordered."""
    for n in (1, 2, 9, 40):
        yield path_graph(n)
    for _ in range(8):
        yield random_tree(rng, rng.randint(2, 30))
    for _ in range(8):
        edges, n = [], 0
        for _ in range(rng.randint(2, 4)):
            tree = random_tree(rng, rng.randint(1, 12))
            edges += [(u + n, v + n) for u, v in tree.edges]
            n += tree.n
        label = rng.sample(range(n), n)
        yield SimpleGraph(n, [(label[u], label[v]) for u, v in edges])


def test_forest_solve_never_searches(monkeypatch):
    # with no set supplied, a forest shape is recognised by its own plan's
    # search: the FVS search never runs, and every output stays the same
    import limsolve.solver
    from limsolve import hom_exists
    from limsolve.generate import (complete_graph, elimination_decomposition,
                                   random_diagram, random_graph)

    rng = random.Random(24)
    diagrams = []
    for shape in _forest_shapes(rng):
        diagrams += [_planted(rng, shape, 3), random_diagram(rng, shape, 3)]
    decompositions = [elimination_decomposition(
        rng, random_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.4))))
        for _ in range(20)]
    k3 = complete_graph(3)

    def outputs():
        return ([(inlim(d), inlim(d, want_witness=True), inlim(d, k_max=0))
                 for d in diagrams],
                [(hom_exists(b, k3), hom_exists(b, k3, want_coloring=True))
                 for b in decompositions])

    want = outputs()
    assert sum(not r.verdict.empty_limit for r, _, _ in want[0]) >= 20
    assert any(ok for (ok, _), _ in want[1])
    assert any(not ok for (ok, _), _ in want[1])

    def refuse(*args):
        raise AssertionError("a forest solve ran the FVS search")

    monkeypatch.setattr(limsolve.solver, "fvs_exact", refuse)
    assert outputs() == want


def test_cyclic_shape_with_few_edges_still_searches(monkeypatch):
    # a 4-cycle beside a 3-vertex path has fewer edges than vertices: the
    # plan's search finds it is no forest, and S comes from the FVS search
    import limsolve.solver

    shape = SimpleGraph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert shape.m < shape.n
    d = _planted(random.Random(3), shape, 3)
    calls = []
    fvs_exact = limsolve.solver.fvs_exact

    def counted(*args):
        calls.append(args)
        return fvs_exact(*args)

    monkeypatch.setattr(limsolve.solver, "fvs_exact", counted)
    result = inlim(d, want_witness=True)
    assert len(calls) == 1
    assert result.fvs == (3,)
    assert result == inlim(d, fvs=VertexSet.of(7, [3]), want_witness=True)
    assert witness_violations(d, result.witness) == []


def test_forest_path_refuses_a_negative_budget():
    # the budget is checked before the plan's search, as the FVS search
    # checks it
    from limsolve import cset_inlim
    from limsolve.generate import lift_to_terminal_cset

    d = path_example()
    lifted = lift_to_terminal_cset(d)
    with pytest.raises(ValueError, match="^k_max must be >= 0$"):
        inlim(d, k_max=-1)
    with pytest.raises(ValueError, match="^k_max must be >= 0$"):
        cset_inlim(lifted, k_max=-1)
    assert not inlim(d, k_max=0).verdict.empty_limit
    assert not cset_inlim(lifted, k_max=0).empty_limit


def test_inlim_zero_vertex_shape_nonempty():
    assert not inlim(edgeless_diagram([])).verdict.empty_limit


def test_inlim_supplied_fvs_validated():
    d = c4_example()
    with pytest.raises(ValueError):
        inlim(d, fvs=VertexSet(4, 0))
    for wrong_size in (VertexSet(3, 0), VertexSet.of(5, [0])):
        with pytest.raises(ValueError, match="different"):
            inlim(d, fvs=wrong_size)
        with pytest.raises(ValueError, match="different"):
            next(section_tests(d, wrong_size))
        with pytest.raises(ValueError, match="different"):
            restrict_to_subgraph(d, d.full_mask(), wrong_size)


@pytest.mark.parametrize("vertex_size, edge_size", [
    ([-1], []), ([True], []), (["x"], []), ([1, 1], [-1])])
def test_inlim_refuses_invalid_sizes(vertex_size, edge_size):
    # a crash must not read as a verdict: no verdict on a diagram that
    # validate refuses for its sizes, with or without a witness
    g = SimpleGraph(len(vertex_size), [(0, 1)] if edge_size else [])
    d = CoDecomposition(g, vertex_size, edge_size, [((0,), (0,))] * g.m)
    for want_witness in (False, True):
        with pytest.raises(ValueError, match="^invalid diagram: .* set 0: "
                                             "size .* is not a non-negative "
                                             "integer$"):
            inlim(d, want_witness=want_witness)


def test_inlim_no_fvs_within_budget():
    from limsolve.generate import complete_graph
    from limsolve.generate import random_diagram

    rng = random.Random(0)
    d = random_diagram(rng, complete_graph(5), 2)
    with pytest.raises(ValueError):
        inlim(d, k_max=1)


def test_inlim_matches_oracle_small_batch():
    for seed in range(120):
        d = random_graph_diagram(seed)
        result = inlim(d)
        assert result.verdict.empty_limit == (not enumerate_limit(d)), seed


def test_inlim_witness_on_random_nonempty():
    found = 0
    for seed in range(80):
        d = random_graph_diagram(seed)
        result = inlim(d, want_witness=True)
        if not result.verdict.empty_limit:
            found += 1
            assert witness_violations(d, result.witness) == []
            # lexicographically first family under the lowest-index rule
            assert result.witness in enumerate_limit(d)
    assert found > 10


def test_inlim_deterministic_witness():
    d = c4_untwisted_example()
    w1 = inlim(d, want_witness=True).witness
    w2 = inlim(d, want_witness=True).witness
    assert w1 == w2


def test_inlim_early_exit_off_counts_all_tests():
    d = c4_untwisted_example()
    result = inlim(d, early_exit=False)
    assert not result.verdict.empty_limit
    assert result.section_test_count == 2  # |d(s)| for the single pinned vertex


def test_inlim_never_restricts_subdiagrams(monkeypatch):
    import limsolve.diagram
    import limsolve.solver

    def refuse(*args, **kwargs):
        raise AssertionError("inlim built a restricted diagram")

    for module in (limsolve.diagram, limsolve.solver):
        monkeypatch.setattr(module, "restrict_to_subgraph", refuse)
    result = inlim(c4_example())
    assert result.verdict.empty_limit and result.section_test_count == 2
    d = c4_untwisted_example()
    result = inlim(d, want_witness=True)
    assert not result.verdict.empty_limit
    assert witness_violations(d, result.witness) == []
    # k = 2 on both: EMPTY after all 6 tests, NONEMPTY at the 3rd test
    for seed, tests in ((16, 6), (340, 3)):
        d = random_graph_diagram(seed)
        result = inlim(d, want_witness=True)
        assert len(result.fvs) == 2 and result.section_test_count == tests
        families = enumerate_limit(d)
        assert result.verdict.empty_limit == (not families)
        assert result.witness in (families or [None])


def test_inlim_rejects_non_fvs_by_name():
    from limsolve.generate import random_diagram

    # two disjoint triangles; pinning one vertex leaves the other cycle
    d = random_diagram(random.Random(0),
                       SimpleGraph(6, [(0, 1), (1, 2), (0, 2),
                                       (3, 4), (4, 5), (3, 5)]), 2)
    with pytest.raises(ValueError, match="feedback vertex set"):
        inlim(d, fvs=VertexSet.of(6, [0]))
    assert len(inlim(d, fvs=VertexSet.of(6, [0, 3]), early_exit=False).fvs) == 2


def _seeded_diagrams(seeds):
    for seed in range(seeds):
        yield random_graph_diagram(seed)
        yield random_graph_diagram(seed, n_max=7)


def _outputs(d, **kwargs):
    return [(r.verdict, r.fvs, r.section_test_count, r.witness)
            for r in (inlim(d, want_witness=ww, early_exit=ee, **kwargs)
                      for ww in (False, True) for ee in (True, False))]


def test_inlim_golden_digest():
    # pins verdict, fvs, the test count with early exit on and off, and the
    # witness, so a change to the sweep cannot move any of them unseen
    found = []
    for seed in range(400):
        for d in (random_graph_diagram(seed),
                  random_graph_diagram(seed, n_max=7),
                  random_tree_diagram(seed)):
            on = inlim(d, want_witness=True)
            off = inlim(d, early_exit=False)
            found.append((on.verdict, on.fvs, on.section_test_count,
                          off.section_test_count, on.witness))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "f3930757ddc973704eac243513a8a19210810ff07ade9f2d67aaa57e24c623a9"


def test_inlim_matches_section_tests_per_combination():
    # each combination decided on its own through the inspection path
    pinned = {True: 0, False: 0}
    for d in _seeded_diagrams(400):
        result = inlim(d, want_witness=True)
        tests = list(section_tests(d, VertexSet.of(d.shape.n, result.fvs)))
        nonempty = [i for i, t in enumerate(tests)
                    if not t.immediately_empty
                    and not forest_initial(t.tau, t.tau_mask).empty_limit]
        assert result.verdict.empty_limit == (not nonempty)
        assert inlim(d, early_exit=False).section_test_count == len(tests)
        if result.fvs:
            pinned[result.verdict.empty_limit] += 1
        if not nonempty:
            assert result.section_test_count == len(tests)
            continue
        assert result.section_test_count == nonempty[0] + 1
        assert all(result.witness.vertex_elements[v] == a
                   for v, a in tests[nonempty[0]].assignment.choices)
    assert min(pinned.values()) > 30, pinned


# 5 per block also tiles a digit period of 3 inside blocks that start past 0
@pytest.mark.parametrize("per_block", [1, 2, 5])
def test_inlim_block_width_does_not_change_outputs(monkeypatch, per_block):
    import limsolve.solver

    cases = list(_seeded_diagrams(200))
    spider, hubs = shifted_spider(4, 41)
    want = [_outputs(d) for d in cases] + [_outputs(spider, fvs=hubs)]
    monkeypatch.setattr(limsolve.solver, "_MIN_BLOCK", per_block)
    monkeypatch.setattr(limsolve.solver, "_STATE_BITS", 0)
    got = [_outputs(d) for d in cases] + [_outputs(spider, fvs=hubs)]
    assert got == want
    # the spider is EMPTY after all 3^4 tests, with or without early exit
    assert all(out[0].empty_limit and out[2] == 81 for out in want[-1])


def test_inlim_pinned_combinations_share_one_sweep():
    # 729 combinations at k = 6 against 3 at k = 1: one sweep per block,
    # not one per combination, keeps the ratio near 1 (about 90-160 when
    # every combination runs its own sweep)
    def solve(k):
        d, hubs = spiders[k]
        result = inlim(d, fvs=hubs)
        assert result.verdict.empty_limit
        assert result.section_test_count == 3 ** k

    spiders = {k: shifted_spider(k, 601) for k in (1, 6)}
    small, large = best_of_interleaved(solve, 1, 6, repeats=3)
    assert large / small <= 20


def test_inlim_decide_time_is_linear_in_n_at_fixed_k():
    # k = 8, w = 3: 6561 combinations, and each branch only narrows which
    # of them survive at the root, so no block dies early and all of them
    # are swept.  Blocks are sized from the rows the post-order holds at
    # once, not from n, so 16 times the vertices cost about 16 times the
    # time (about 200 times when the width shrank as Sum |d(v)| grew)
    def solve(n):
        d, hubs = spiders[n]
        result = inlim(d, fvs=hubs)
        assert not result.verdict.empty_limit
        assert result.section_test_count == 6561

    spiders = {n: narrowing_spider(8, n) for n in (2401, 38401)}
    small, large = best_of_interleaved(solve, 2401, 38401, repeats=3)
    assert large / small <= 40, (small, large)


def _live_peak(g, plan):
    """The most unpinned vertices holding rows at once in a sweep of the
    plan, counted from its arcs: a vertex from the first arc into it until
    its own fold, or its tree's end.  An arc (e, ~u) out of a pinned
    vertex u restricts the other end of e, which may be pinned too."""
    pinned = {~c for _, c in plan if c < 0}
    live = set()
    most = 0
    for e, c in plan:
        if e >= 0:
            p = sum(g.edges[e]) - (c if c >= 0 else ~c)
            if p not in pinned:
                live.add(p)
            most = max(most, len(live))
        live.discard(c)
    return most


def _bound_shape(name, n):
    rng = random.Random(7)
    if name == "comb":  # each spine vertex meets its tooth before the spine
        m = n // 2
        edges = []
        for x in range(m):
            edges.append((x, m + x))
            if x + 1 < m:
                edges.append((x, x + 1))
        return SimpleGraph(n, edges)
    parent = {"path": lambda x: x - 1, "star": lambda x: 0,
              "binary": lambda x: (x - 1) // 2,
              "recursive": lambda x: rng.randrange(x)}[name]
    return SimpleGraph(n, [(parent(x), x) for x in range(1, n)])


@pytest.mark.parametrize("name", ["path", "star", "binary", "recursive",
                                  "comb"])
def test_plan_holds_logarithmically_many_vertices(name):
    # every child but the first to fold holds less than half of its
    # parent's subtree, so at most floor(log2 n) + 1 unpinned vertices
    # hold rows at once; planning and sweeping 10^5 vertices run without
    # recursion
    from limsolve.solver import _forest_plan, _sliced_sweep

    n = 10 ** 5
    g = _bound_shape(name, n)
    plan = _forest_plan(g, None, True)
    peak = _live_peak(g, plan)
    assert peak <= n.bit_length(), peak
    d = CoDecomposition(g, [1] * n, [1] * g.m, [((0,), (0,))] * g.m)
    rows, alive = _sliced_sweep(d, [], plan, 0, 1)
    assert alive == 1 and rows == {}  # every row dropped after its last read
    if name == "comb":  # folding in search order, every spine vertex waits
        assert _live_peak(g, _forest_plan(g)) >= n // 2


def test_one_word_solves_plan_in_search_order(monkeypatch):
    # at most _MIN_BLOCK = 64 combinations sweep as one block of at most
    # one word per row, whatever the order of the plan, so only wider
    # solves lay it out heavy-first.  Both orders give the same verdicts,
    # test counts and witnesses: 3, 9 and 27 combinations, EMPTY and
    # NONEMPTY, and C-set diagrams on 3 disjoint cycles, whose two slices
    # share one plan with 3 pinned vertices
    import limsolve.solver
    from limsolve import jsonio

    spiders = [make(k, 601) for k in (1, 2, 3)
               for make in (shifted_spider, narrowing_spider)]
    cat = jsonio.parse_fincat(DISCRETE_2)
    csets = [jsonio.parse_cset_diagram(
        _cycles_cset_doc(random.Random(seed), 3, 8, 3, seed % 2), cat)
        for seed in range(6)]

    def outputs():
        return ([_outputs(d, fvs=hubs) for d, hubs in spiders],
                [cset_inlim(d) for d in csets])

    want = outputs()
    assert [out[0][0].empty_limit for out in want[0]] == [True, False] * 3
    assert {v.empty_limit for v in want[1]} == {True, False}

    def refuse(*args):
        raise AssertionError("a one-word solve ordered its plan")

    monkeypatch.setattr(limsolve.solver, "_heavy_first", refuse)
    assert outputs() == want
    monkeypatch.undo()

    # 81 combinations need more than one word: the plan is heavy-first,
    # and holds at most floor(log2 n) + 1 unpinned vertices at once
    calls = []
    heavy_first = limsolve.solver._heavy_first

    def counted(*args):
        calls.append(args)
        return heavy_first(*args)

    monkeypatch.setattr(limsolve.solver, "_heavy_first", counted)
    d, hubs = shifted_spider(4, 601)
    _, plan = limsolve.solver._resolve_plan(d.shape, hubs, None, [d])
    assert calls
    assert _live_peak(d.shape, plan) <= d.shape.n.bit_length()
    assert inlim(d, fvs=hubs).section_test_count == 81


def test_inlim_never_builds_fibres(monkeypatch):
    import limsolve.diagram
    import limsolve.solver

    def refuse(*args, **kwargs):
        raise AssertionError("inlim built fibres or filtered a SubMask")

    monkeypatch.setattr(CoDecomposition, "edge_data", property(refuse))
    for module in (limsolve.diagram, limsolve.solver):
        monkeypatch.setattr(module, "filter_edges", refuse)
    for d, empty in ((path_example(), False), (c4_example(), True),
                     (c4_untwisted_example(), False)):
        for want_witness in (False, True):
            result = inlim(d, want_witness=want_witness)
            assert result.verdict.empty_limit == empty
            if want_witness and not empty:
                assert result.witness in enumerate_limit(d)


def _planted(rng, shape, w):
    """A diagram over the shape whose legs agree on one planted family."""
    fam = [rng.randrange(w) for _ in range(shape.n)]
    tables = []
    for u, v in shape.edges:
        tu = [rng.randrange(w) for _ in range(w)]
        tv = [rng.randrange(w) for _ in range(w)]
        tv[fam[v]] = tu[fam[u]]
        tables.append((tuple(tu), tuple(tv)))
    return CoDecomposition(shape, [w] * shape.n, [w] * shape.m, tables)


def _planted_tree(seed, n, w):
    """A random tree diagram whose legs agree on one planted family."""
    rng = random.Random(seed)
    return _planted(rng, random_tree(rng, n), w)


def _subtrees(g, pinned=()):
    """Per vertex of g minus pinned: the vertices of its subtree when each
    component is rooted at its lowest vertex."""
    parent = {v: None for v in range(g.n) if v not in pinned}
    order = []
    for r in sorted(parent):
        if r in order:
            continue
        order.append(r)
        head = len(order) - 1
        while head < len(order):
            for _, y in g.incidence[order[head]]:
                if y in parent and y not in order:
                    parent[y] = order[head]
                    order.append(y)
            head += 1
    below = {v: {v} for v in parent}
    for v in reversed(order):
        if parent[v] is not None:
            below[parent[v]] |= below[v]
    return below


def _extending(d, u, keep):
    """The elements of u that some matching family of d's induced
    subdiagram on keep takes, by enumeration."""
    r = restrict_to_subgraph(d, d.full_mask(), VertexSet.of(d.shape.n, keep))
    at = r.vertex_map[u]
    return {f.vertex_elements[at] for f in enumerate_limit(r.diagram)}


def _rows(rows, v, size, bit):
    return {a for a in range(size) if v not in rows or rows[v][a] >> bit & 1}


def test_sweep_rows_extend_over_the_subtree():
    # a plan edge restricts only its parent, so after the sweep a vertex
    # keeps exactly the elements that extend over its subtree, and a root
    # what the two-sided SubMask pass keeps
    from limsolve.solver import _forest_plan, _leaves_to_root, _sliced_sweep

    swept = 0
    for seed in range(400):
        d = random_tree_diagram(seed)
        plan = _forest_plan(d.shape)
        rows, alive = _sliced_sweep(d, [], plan, 0, 1, True)
        below = _subtrees(d.shape)
        if not alive:  # the block died, so some vertex extends nowhere
            assert not all(_extending(d, u, below[u]) for u in below)
            continue
        swept += 1
        for u, keep in below.items():
            assert _rows(rows, u, d.vertex_size[u], 0) \
                == _extending(d, u, keep), (seed, u)
        m = d.full_mask()
        assert _leaves_to_root(d, m, plan)
        for r in (r for e, r in plan if e < 0):
            assert _rows(rows, r, d.vertex_size[r], 0) \
                == {a for a in range(d.vertex_size[r]) if m.vertex[r] >> a & 1}
    assert swept == 178, swept


def test_sweep_rows_with_a_pinned_hub():
    # a hub of degree 2 or 3 pinned over a planted tree: each of its arcs
    # runs out of the hub into a neighbour, so the hub's rows stay its digit
    # rows in every combination, and every surviving combination's rows
    # keep what extends over the subtree with the hub fixed
    from limsolve.solver import _forest_plan, _sliced_sweep

    w = 3
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        tree = random_tree(rng, n)
        hub_edges = [(x, n) for x in sorted(rng.sample(range(n), rng.randint(2, 3)))]
        shape = SimpleGraph(n + 1, list(tree.edges) + hub_edges)
        d = _planted(rng, shape, w)
        plan = _forest_plan(shape, VertexSet.of(n + 1, [n]))
        rows, alive = _sliced_sweep(d, [n], plan, 0, w, True)
        assert alive  # the planted family survives
        below = _subtrees(shape, pinned=(n,))
        for b in range(w):
            assert _rows(rows, n, w, b) == {b}, (seed, b)
            # combination b alone, as the witness re-sweep runs it: the
            # width-1 set passes keep what bit b of the block keeps
            one, one_alive = _sliced_sweep(d, [n], plan, b, 1, True)
            assert one_alive == alive >> b & 1, (seed, b)
            if not alive >> b & 1:
                continue
            assert one.keys() == rows.keys(), (seed, b)
            for u, got in one.items():
                assert [bool(row) for row in got] \
                    == [bool(row >> b & 1) for row in rows[u]], (seed, b, u)
            pinned = CoDecomposition(
                shape, [w] * n + [1], [w] * shape.m,
                [(tu, tv[b:b + 1] if v == n else tv) for (_, v), (tu, tv)
                 in zip(shape.edges, d.tables)])
            for u, keep in below.items():
                assert _rows(rows, u, w, b) \
                    == _extending(pinned, u, keep | {n}), (seed, b, u)
            checked += 1
    assert checked >= 40


def test_sweep_drops_every_row_with_pinned_vertices():
    # a pinned vertex is done at the end of the plan, like a root, so a
    # sweep that does not keep rows ends with none, pinned rows included
    from limsolve.solver import _forest_plan, _sliced_sweep

    spider, hubs = narrowing_spider(3, 16)
    cycle = c4_untwisted_example()
    # one block of every combination: both on the cycle, the last of 3^3
    # on the spider
    for d, s, width, alive in ((cycle, VertexSet.of(4, [0]), 2, 0b11),
                               (spider, hubs, 27, 1 << 26)):
        pinned = list(s)
        plan = _forest_plan(d.shape, s, True)
        assert plan[-len(pinned):] == [(-1, u) for u in pinned]
        assert _sliced_sweep(d, pinned, plan, 0, width) == ({}, alive)


def test_inlim_witness_reads_the_sweep_rows(monkeypatch):
    # one forest plan per solve, and no masks or assignment objects
    import limsolve.solver

    plans = []
    forest_plan = limsolve.solver._forest_plan

    def counted(*args):
        plans.append(args)
        return forest_plan(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("inlim built a SubMask or a SectionAssignment")

    monkeypatch.setattr(limsolve.solver, "_forest_plan", counted)
    monkeypatch.setattr(limsolve.solver, "SubMask", refuse)
    monkeypatch.setattr(limsolve.solver, "SectionAssignment", refuse)
    for d in (c4_untwisted_example(), _planted_tree(5, 300, 4)):
        plans.clear()
        result = inlim(d, want_witness=True)
        assert not result.verdict.empty_limit
        assert witness_violations(d, result.witness) == []
        assert len(plans) == 1


def _refuse_entry_walks(monkeypatch):
    """Make every named-error walk of the loaders and of SimpleGraph raise:
    a valid document must load in the one-pass checks alone."""
    import limsolve.graphs
    from limsolve import jsonio

    def refuse(*args):
        raise AssertionError("walked a valid input entry by entry")

    for name in ("_set_errors", "_table_error", "_leg_errors", "_cset_errors"):
        monkeypatch.setattr(jsonio, name, refuse)
    monkeypatch.setattr(limsolve.graphs, "_edge_errors", refuse)


def test_load_and_solve_build_no_set_or_function_objects(monkeypatch):
    # every builder writes columns and every reader here reads only them:
    # parsing, generating, writing JSON, the hom frontend, section tests
    # (which restrict) and the oracle; loading a valid size-form or
    # label-form document never walks its entries, also with a witness
    from limsolve import enumerate_limit, hom_exists, jsonio
    from limsolve.generate import (elimination_decomposition,
                                   generate_instance, random_graph)

    planted = _planted_tree(7, 300, 5)
    doc = jsonio.diagram_to_json(planted)
    expected = inlim(planted, want_witness=True)
    cycle_doc = jsonio.diagram_to_json(
        generate_instance("cycle", 40, 3, 2, fixed_size=True))
    small_doc = jsonio.diagram_to_json(generate_instance("cycle", 6, 2, 4))
    small_families = enumerate_limit(jsonio.parse_diagram(small_doc))
    rng = random.Random(3)
    bags = elimination_decomposition(rng, random_graph(rng, 12, 0.3))
    k3 = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    expected_hom = hom_exists(bags, k3, want_coloring=True)
    plain = [base for _, base, cat in corpus_bases() if cat is None]

    _refuse_entry_walks(monkeypatch)
    for base in plain:
        assert jsonio.diagram_to_json(jsonio.parse_diagram(base)) == base
    d = jsonio.parse_diagram(doc)
    result = inlim(d, want_witness=True)
    assert result == expected and not result.verdict.empty_limit
    assert witness_violations(d, result.witness) == []
    assert jsonio.diagram_to_json(d) == doc

    generated = generate_instance("tree", 50, 4, 1)
    result = inlim(generated, want_witness=True)
    if result.witness is not None:
        assert witness_violations(generated, result.witness) == []

    cycle = jsonio.parse_diagram(cycle_doc)
    assert jsonio.diagram_to_json(cycle) == cycle_doc
    tests = list(section_tests(cycle, VertexSet.of(cycle.shape.n, [0])))
    assert len(tests) == 3 and any(not t.immediately_empty for t in tests)

    assert enumerate_limit(jsonio.parse_diagram(small_doc)) == small_families

    assert hom_exists(bags, k3, want_coloring=True) == expected_hom
    assert expected_hom[0]


def _cycles_cset_doc(rng, k, length, w, planted):
    """A C-set diagram document over the discrete category on two objects,
    shaped as k disjoint cycles: every set has w elements and every action
    is the identity.  Leg components are random tables, except at object 1
    when planted, where they are identities (so that slice is NONEMPTY)."""
    edges = [(c * length + j, c * length + (j + 1) % length)
             for c in range(k) for j in range(length)]
    ident = {"map": list(range(w))}
    cset = {"objects": [{"size": w}, {"size": w}], "actions": [ident, ident]}
    legs = [{"edge": e, "endpoint": x,
             "maps": [{"map": [rng.randrange(w) for _ in range(w)]},
                      {"map": list(range(w)) if planted
                       else [rng.randrange(w) for _ in range(w)]}]}
            for e, pair in enumerate(edges) for x in pair]
    return {"shape": {"n": k * length, "edges": [list(p) for p in edges]},
            "vertex_csets": [cset] * (k * length),
            "edge_csets": [cset] * len(edges), "legs": legs}


def test_cset_load_and_solve_build_no_set_or_function_objects(monkeypatch):
    # the C-set path reads one plain diagram per C-object straight into
    # columns: parsing, deciding, slicing and writing JSON; loading a valid
    # size-form or label-form document never walks its entries
    from limsolve import cset_inlim, jsonio, pointwise_slice

    cat = jsonio.parse_fincat({
        "objects": 2, "morphisms": [{"id": 0, "src": 0, "tgt": 0},
                                    {"id": 1, "src": 1, "tgt": 1}],
        "identities": [0, 1], "comp": [[0, -1], [-1, 1]]})
    docs = [_cycles_cset_doc(random.Random(seed), 2, 6, 3, seed % 2)
            for seed in range(6)]
    expected = []
    for doc in docs:
        d = jsonio.parse_cset_diagram(doc, cat)
        expected.append((cset_inlim(d).empty_limit,
                         [inlim(pointwise_slice(d, c), want_witness=True)
                          for c in range(2)]))
    assert {verdict for verdict, _ in expected} == {True, False}
    bases = [(jsonio.parse_fincat(cat), base)
             for _, base, cat in corpus_bases() if cat is not None]

    _refuse_entry_walks(monkeypatch)
    for base_cat, base in bases:
        again = jsonio.parse_cset_diagram(base, base_cat)
        assert jsonio.cset_diagram_to_json(again) == base
    for doc, (verdict, results) in zip(docs, expected):
        d = jsonio.parse_cset_diagram(doc, cat)
        assert cset_inlim(d, k_max=2).empty_limit == verdict
        for c, result in enumerate(results):
            s = pointwise_slice(d, c)
            assert s is d.slices[c]
            assert inlim(s, want_witness=True) == result
        assert jsonio.cset_diagram_to_json(d) == doc


def test_inlim_edgeless_vertex_state_stays_small():
    # an unpinned vertex without edges keeps no per-element row
    d = edgeless_diagram([10 ** 6])
    for want_witness in (False, True):
        tracemalloc.start()
        try:
            result = inlim(d, want_witness=want_witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.verdict.empty_limit
        assert peak < 2 * 2 ** 20, peak


def test_extract_witness_path_example():
    d = path_example()
    w = extract_witness(d, image_tree(d, d.full_mask()))
    assert w.vertex_elements == (2, 1, 0)  # c, β, r
    assert w.edge_elements == (1, 1)       # y, v
    assert w in enumerate_limit(d)


def test_extract_witness_single_vertex():
    d = edgeless_diagram([3])
    w = extract_witness(d, image_tree(d, d.full_mask()))
    assert w.vertex_elements == (0,)


def test_extract_witness_random_trees():
    for seed in range(60):
        d = random_tree_diagram(seed)
        img = image_tree(d, d.full_mask())
        if any(v == 0 for v in img.vertex):
            with pytest.raises(ValueError):
                extract_witness(d, img)
            continue
        w = extract_witness(d, img)
        assert witness_violations(d, w) == []


def test_extract_witness_with_pinned_vertices():
    d = c4_untwisted_example()
    result = inlim(d, want_witness=True)
    sigma = SectionAssignment(((0, result.witness.vertex_elements[0]),))
    w = extract_witness(d, _image_on_base(d, sigma), sigma)
    assert witness_violations(d, w) == []
    # over image masks the walk picks what inlim picks off its sweep rows
    nonempty = 0
    trees = (random_tree_diagram(seed) for seed in range(400))
    for d in itertools.chain(_seeded_diagrams(400), trees):
        result = inlim(d, want_witness=True)
        if result.verdict.empty_limit:
            continue
        nonempty += 1
        sigma = SectionAssignment(tuple(
            (v, result.witness.vertex_elements[v]) for v in result.fvs))
        assert extract_witness(d, _image_on_base(d, sigma), sigma) \
            == result.witness
    assert nonempty == 722


def test_extract_witness_rejects_cyclic_shape():
    # nothing pinned on a cycle: the shape minus the pinned vertices is not
    # a forest, so no walk can read a family off the masks
    d = c4_untwisted_example()
    with pytest.raises(ValueError, match="feedback vertex set"):
        extract_witness(d, d.full_mask())


def _image_on_base(d, sigma):
    """Image masks over the original index space for the forest part."""
    from limsolve import filter_edge

    m = d.full_mask()
    pinned = sigma.as_dict()
    for v, a in pinned.items():
        m.vertex[v] = 1 << a
    for v in pinned:
        for e, _ in d.shape.incidence[v]:
            filter_edge(d, m, e)
    keep = VertexSet.of(d.shape.n,
                        [v for v in range(d.shape.n) if v not in pinned])
    r = restrict_to_subgraph(d, m, keep)
    img = image_tree(r.diagram, r.mask)
    out = d.full_mask()
    for v, a in pinned.items():
        out.vertex[v] = 1 << a
    for old, new in enumerate(r.vertex_map):
        if new is not None:
            out.vertex[old] = img.vertex[new]
    for old, new in enumerate(r.edge_map):
        if new is not None:
            out.edge[old] = img.edge[new]
    return out


def test_extract_witness_refusals():
    # one edge whose legs never agree: a mask that did not go through the
    # leaves-to-root pass still holds elements with no partner
    d = CoDecomposition(SimpleGraph(2, [(0, 1)]), [1, 1], [2], [((0,), (1,))])
    with pytest.raises(ValueError) as err:
        extract_witness(d, d.full_mask(), SectionAssignment(((0, 5),)))
    assert str(err.value) == "pinned element 5 out of range at vertex 0"
    with pytest.raises(ValueError) as err:
        extract_witness(d, d.full_mask())
    assert str(err.value) == (
        "no element of vertex 1 matches the parent across edge 0; mask is "
        "not swept leaves-to-root")
    # pinned, vertex 0 is a leaf outside the plan, so only the final check
    # sees its edge
    with pytest.raises(ValueError) as err:
        extract_witness(d, d.full_mask(), SectionAssignment(((0, 0),)))
    assert str(err.value) == (
        "extracted family violates edge constraints: edge 0: endpoint "
        "values map to 0 and 1, edge element is 0")
