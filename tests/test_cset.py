import itertools
import random

import pytest

from conftest import (c4_example, corrupt_table, narrowing_spider,
                      path_example, random_graph_diagram)
from limsolve import (
    CoDecomposition,
    CSetCoDecomposition,
    FinCat,
    SimpleGraph,
    VertexSet,
    cset_inlim,
    enumerate_limit,
    inlim,
    pointwise_slice,
    validate_cset_codecomp,
    validate_fincat,
)
from limsolve.cset import _action_columns, _action_problems, _actions_lawful
from limsolve.graphs import is_forest
from limsolve.generate import (
    lift_to_terminal_cset,
    random_walking_arrow_diagram,
    random_graph,
    random_tree,
)


def ident(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def cset_diagram(cat, shape, vertex_csets, edge_csets, legs):
    """A C-set diagram written as columns from per-C-set (sizes per
    C-object, action tables) pairs and per-edge (components at u,
    components at v) legs."""
    slices = [CoDecomposition(shape, [sizes[c] for sizes, _ in vertex_csets],
                              [sizes[c] for sizes, _ in edge_csets],
                              [(lu[c], lv[c]) for lu, lv in legs])
              for c in range(cat.object_count)]
    return CSetCoDecomposition(cat, shape, slices,
                               [tables for _, tables in vertex_csets],
                               [tables for _, tables in edge_csets])


def one_cset(cat, sizes, tables):
    """One C-set as the diagram over a single vertex."""
    return cset_diagram(cat, SimpleGraph(1, []), [(sizes, tables)], [], [])


def cyclic_monoid(m: int) -> FinCat:
    """One object, morphisms 0..m-1 composing by addition mod m."""
    comp = tuple(tuple((g + f) % m for f in range(m)) for g in range(m))
    return FinCat(1, (0,) * m, (0,) * m, (0,), comp)


def corrupt_comp(cat: FinCat, g: int, f: int, value: int) -> FinCat:
    rows = [list(row) for row in cat.comp]
    rows[g][f] = value
    return FinCat(cat.object_count, cat.src, cat.tgt, cat.identity,
                  tuple(tuple(row) for row in rows))


def test_validate_fincat_terminal_and_arrow():
    assert validate_fincat(FinCat.terminal()) == []
    assert validate_fincat(FinCat.walking_arrow()) == []
    assert validate_fincat(cyclic_monoid(5)) == []


def test_validate_fincat_names_broken_triple():
    cat = cyclic_monoid(4)
    bad = corrupt_comp(cat, 2, 3, 0)  # 2+3 = 1, claim 0
    problems = validate_fincat(bad)
    assert problems
    assert any("associativity" in p for p in problems)


def test_validate_fincat_identity_laws():
    cat = cyclic_monoid(3)
    bad = corrupt_comp(cat, 1, 0, 2)  # compose with the identity wrongly
    problems = validate_fincat(bad)
    assert any("identity law" in p for p in problems)


def test_validate_cset_functoriality():
    cat = FinCat.walking_arrow()
    good = one_cset(cat, (2, 2), (ident(2), ident(2), (1, 0)))
    assert validate_cset_codecomp(good) == []
    bad = one_cset(cat, (2, 2), ((1, 0), ident(2), ident(2)))
    assert validate_cset_codecomp(bad) == [
        "vertex 0: identity of object 0 does not act as identity",
        "vertex 0: functoriality fails: action of comp[0][0]",
        "vertex 0: functoriality fails: action of comp[2][0]"]
    # the generator of Z/2 acting as a 3-cycle: its square is not the identity
    z2 = cyclic_monoid(2)
    cycle = one_cset(z2, (3,), (ident(3), (1, 2, 0)))
    assert validate_cset_codecomp(cycle) == [
        "vertex 0: functoriality fails: action of comp[1][1]"]


# a walking-arrow C-set: sizes at objects 0 and 1, then the actions of
# id0, id1 and the arrow, which sends both elements to the one point
_ONTO_POINT = ((2, 1), (ident(2), ident(1), (0, 0)))
_EDGE = SimpleGraph(2, [(0, 1)])


def two_parallel_diagrams_example():
    """Walking-arrow diagram over a single edge, assembled from two plain
    diagrams (one per C-object) plus an action joining them."""
    # object 0 slice: 2 -> 2 <- 2 with identity legs
    # object 1 slice: 1 -> 1 <- 1
    leg = (ident(2), ident(1))
    return cset_diagram(FinCat.walking_arrow(), _EDGE, [_ONTO_POINT] * 2,
                        [_ONTO_POINT], [(leg, leg)])


def test_pointwise_slice_walking_arrow():
    d = two_parallel_diagrams_example()
    assert validate_cset_codecomp(d) == []
    s0 = pointwise_slice(d, 0)
    assert s0.vertex_size == [2, 2] and s0.edge_size == [2]
    assert s0.tables == [((0, 1), (0, 1))]
    s1 = pointwise_slice(d, 1)
    assert s1.vertex_size == [1, 1] and s1.tables == [((0,), (0,))]
    # the stored slices themselves, not copies
    assert s0 is d.slices[0] and s1 is d.slices[1]
    for c in (-1, 2, True, 1.0):
        with pytest.raises(ValueError, match=f"^no C-object {c}$"):
            pointwise_slice(d, c)


def test_pointwise_slice_terminal_is_underlying():
    d = path_example()
    lifted = lift_to_terminal_cset(d)
    assert validate_cset_codecomp(lifted) == []
    assert pointwise_slice(lifted, 0) is d


def unnatural_example():
    """Identity actions everywhere, but the leg permutes at object 0 only:
    the square at the arrow morphism cannot commute."""
    cs = ((2, 2), (ident(2), ident(2), ident(2)))
    return cset_diagram(FinCat.walking_arrow(), SimpleGraph(2, [(0, 1)]),
                        [cs, cs], [cs], [((ident(2), (1, 0)),
                                          (ident(2), ident(2)))])


def test_naturality_violation_rejected():
    # a failing diagram is never recorded: every check reads it again
    bad = unnatural_example()
    text = "leg of edge 0 at vertex 0: naturality square fails at morphism 2"
    for _ in range(3):
        assert validate_cset_codecomp(bad) == [text]
        with pytest.raises(ValueError) as err:
            cset_inlim(bad)
        assert str(err.value) == "invalid C-set diagram: " + text
        assert not bad._valid


def test_law_breaking_documents_load_unrecorded():
    # a document whose tables fit loads even when it breaks a C-set law;
    # it is left unrecorded, so cset_inlim checks it and refuses it by
    # name, on every call
    from limsolve import jsonio

    point = {"shape": {"n": 1, "edges": []}, "edge_csets": [], "legs": []}
    # a swap given as the identity action over the terminal category
    swap = {**point, "vertex_csets": [
        {"objects": [{"size": 2}], "actions": [{"map": [1, 0]}]}]}
    # the generator of Z/3 acting as a 3-cycle, and its square acting
    # as the same 3-cycle
    twice = {**point, "vertex_csets": [
        {"objects": [{"size": 3}], "actions": [
            {"map": [0, 1, 2]}, {"map": [1, 2, 0]}, {"map": [1, 2, 0]}]}]}
    square = jsonio.cset_diagram_to_json(unnatural_example())
    for doc, cat, text in [
            (swap, FinCat.terminal(),
             "vertex 0: identity of object 0 does not act as identity; "
             "vertex 0: functoriality fails: action of comp[0][0]"),
            (twice, cyclic_monoid(3),
             "vertex 0: functoriality fails: action of comp[1][1]; "
             "vertex 0: functoriality fails: action of comp[1][2]; "
             "vertex 0: functoriality fails: action of comp[2][1]; "
             "vertex 0: functoriality fails: action of comp[2][2]"),
            (square, FinCat.walking_arrow(),
             "leg of edge 0 at vertex 0: naturality square fails at "
             "morphism 2")]:
        d = jsonio.parse_cset_diagram(doc, cat)
        assert not d._valid
        assert all(s._valid for s in d.slices)
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                cset_inlim(d)
            assert str(err.value) == "invalid C-set diagram: " + text
            assert not d._valid


def test_hand_built_diagram_recorded_by_its_first_clean_check():
    # the first validate_cset_codecomp that finds a hand-built diagram
    # valid records it, and the next check returns at once (a failing one
    # is never recorded: test_naturality_violation_rejected)
    good = two_parallel_diagrams_example()
    assert not good._valid
    assert validate_cset_codecomp(good) == []
    assert good._valid
    assert validate_cset_codecomp(good) == []
    assert not cset_inlim(good).empty_limit


@pytest.mark.parametrize("shape, vertex_csets, edge_csets, legs, texts", [
    (SimpleGraph(1, []), [((2, 1), (ident(2), ident(1), (0, 0, 0)))], [], [],
     ["vertex 0: action of morphism 2: wrong source size"]),
    (_EDGE, [_ONTO_POINT] * 2, [_ONTO_POINT],
     [(((0, 1, 1), ident(1)), (ident(2), ident(1)))],
     ["object 0: leg of edge 0 at vertex 0: source size 3 != vertex set "
      "size 2"]),
    (_EDGE, [_ONTO_POINT] * 2, [_ONTO_POINT],
     [((ident(2), ident(1)), (ident(2), (1,)))],
     ["object 1: leg of edge 0 at vertex 1: table needs target size 2 > "
      "edge set size 1"]),
    # an entry equal to the target size, and a bool below it, are refused
    (SimpleGraph(1, []), [((2, 1), (ident(2), ident(1), (0, 1)))], [], [],
     ["vertex 0: action of morphism 2: wrong target size"]),
    (SimpleGraph(1, []), [((2, 2), (ident(2), ident(2), (0, True)))], [], [],
     ["vertex 0: action of morphism 2: wrong target size"]),
    # equal to the identity table, since False == 0 and True == 1, but no
    # table of ints
    (SimpleGraph(1, []), [((2, 2), ([False, True], ident(2), ident(2)))], [],
     [], ["vertex 0: action of morphism 0: wrong target size"]),
], ids=["action-source", "leg-source", "leg-target", "action-target",
        "action-bool", "identity-bool"])
def test_validate_cset_codecomp_texts(shape, vertex_csets, edge_csets, legs,
                                      texts):
    d = cset_diagram(FinCat.walking_arrow(), shape, vertex_csets, edge_csets,
                     legs)
    assert validate_cset_codecomp(d) == texts


def walking_arrow_golden() -> CSetCoDecomposition:
    """Object-1 slice: the twisted four-cycle diagram.  Object-0 slice:
    singleton vertex sets with a mismatched edge, every map forced to be
    compatible with the arrow action.  Both slices are empty."""
    c4 = c4_example()
    # edge 0 carries the slice-0 twist: legs pick distinct elements whose
    # forced images under the action are the slice-1 leg values of element 0
    edge_size = []
    tables = []
    edge_actions = []
    for e, (tu, tv) in enumerate(c4.tables):
        if e == 0:
            edge_size.append(2)
            tables.append(((0,), (1,)))
            action = (tu[0], tv[0])
        else:
            edge_size.append(1)
            tables.append(((0,), (0,)))
            assert tu[0] == tv[0]
            action = (tu[0],)
        edge_actions.append((ident(len(action)), ident(c4.edge_size[e]),
                             action))
    slice0 = CoDecomposition(c4.shape, [1] * 4, edge_size, tables)
    vertex_actions = [(ident(1), ident(s), (0,)) for s in c4.vertex_size]
    return CSetCoDecomposition(FinCat.walking_arrow(), c4.shape,
                               [slice0, c4], vertex_actions, edge_actions)


def brute_cset_empty(d: CSetCoDecomposition) -> bool:
    """Componentwise matching-family search straight off the leg tables."""
    for s in d.slices:
        constraints = [(u, v, tu, tv) for (u, v), (tu, tv)
                       in zip(d.shape.edges, s.tables)]
        for combo in itertools.product(*(range(n) for n in s.vertex_size)):
            if all(tu[combo[u]] == tv[combo[v]]
                   for u, v, tu, tv in constraints):
                return False
    return True


def test_cset_golden_both_slices_empty():
    d = walking_arrow_golden()
    assert validate_cset_codecomp(d) == []
    assert not enumerate_limit(pointwise_slice(d, 0))
    assert not enumerate_limit(pointwise_slice(d, 1))
    assert brute_cset_empty(d)
    assert cset_inlim(d).empty_limit


def test_cset_trivially_nonempty():
    d = two_parallel_diagrams_example()
    assert not cset_inlim(d).empty_limit


def test_cset_terminal_matches_plain_solver():
    for seed in range(40):
        d = random_graph_diagram(seed)
        lifted = lift_to_terminal_cset(d)
        assert cset_inlim(lifted).empty_limit == inlim(d).verdict.empty_limit


def test_cset_terminal_on_path_example():
    assert not cset_inlim(lift_to_terminal_cset(path_example())).empty_limit


def test_cset_walking_arrow_matches_componentwise_oracle():
    for seed in range(30):
        rng = random.Random(seed)
        if seed % 2:
            shape = random_tree(rng, rng.randint(1, 5))
        else:
            shape = random_graph(rng, rng.randint(1, 5), 0.4)
        d = random_walking_arrow_diagram(rng, shape, 3)
        assert validate_cset_codecomp(d) == []
        assert cset_inlim(d).empty_limit == brute_cset_empty(d)


def test_cset_inlim_plans_once_and_checks_sizes_once_per_slice(monkeypatch):
    # validate reads a slice's sizes until the slice is found valid once;
    # a loaded slice was checked by its loader, and is not read at all.
    # The C-set laws and the category are checked by a hand-built
    # diagram's first solve, then never again; a loaded diagram's loader
    # checked them, and cset_inlim does not.  The first solve on a shape
    # object searches (on a cyclic shape) and plans once for every slice;
    # a repeat on the same object does neither, and a loaded copy, a new
    # shape object, plans again
    import limsolve.cset
    import limsolve.diagram
    import limsolve.solver
    from limsolve import jsonio

    calls = {"_forest_plan": 0, "fvs_exact": 0, "size_problems": 0,
             "_laws_hold": 0, "validate_fincat": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            got = fn(*args, **kwargs)
            # on a cyclic shape with fewer edges than vertices, the search
            # that tries the whole shape as a forest builds no plan
            if got is not None:
                calls[name] += 1
            return got
        return run

    def solved(solve, d):
        for name in calls:
            calls[name] = 0
        return solve(d).empty_limit, dict(calls)

    def plain(d):
        return inlim(d).verdict

    for module in (limsolve.cset, limsolve.diagram, limsolve.solver):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))

    def planned(shape, sizes, laws=0):
        return {"_forest_plan": 1, "fvs_exact": int(not is_forest(shape)),
                "size_problems": sizes, "_laws_hold": laws,
                "validate_fincat": laws}

    again = {"_forest_plan": 0, "fvs_exact": 0, "size_problems": 0,
             "_laws_hold": 0, "validate_fincat": 0}
    d = walking_arrow_golden()
    assert solved(cset_inlim, d) == (True, planned(d.shape, 2, 1))
    assert solved(cset_inlim, d) == (True, again)
    loaded = jsonio.parse_cset_diagram(jsonio.cset_diagram_to_json(d), d.cat)
    assert loaded._valid
    assert solved(cset_inlim, loaded) == (True, planned(d.shape, 0))
    assert solved(cset_inlim, loaded) == (True, again)
    # the same counts, and the brute-force verdicts, on the corpus of
    # test_cset_walking_arrow_matches_componentwise_oracle
    for seed in range(30):
        rng = random.Random(seed)
        if seed % 2:
            shape = random_tree(rng, rng.randint(1, 5))
        else:
            shape = random_graph(rng, rng.randint(1, 5), 0.4)
        d = random_walking_arrow_diagram(rng, shape, 3)
        empty = brute_cset_empty(d)
        loaded = jsonio.parse_cset_diagram(jsonio.cset_diagram_to_json(d),
                                           d.cat)
        assert solved(cset_inlim, d) == (empty, planned(shape, 2, 1))
        assert solved(cset_inlim, d) == (empty, again)
        assert loaded._valid
        assert solved(cset_inlim, loaded) == (empty, planned(shape, 0))
    # a plain diagram: checked by its first solve, or by its loader
    d = c4_example()
    assert solved(plain, d) == (True, planned(d.shape, 1))
    assert solved(plain, d) == (True, again)
    loaded = jsonio.parse_diagram(jsonio.diagram_to_json(d))
    assert solved(plain, loaded) == (True, planned(d.shape, 0))


def test_cset_slices_on_both_sides_of_one_word(monkeypatch):
    # over two discrete C-objects and a path with four hubs, each closing a
    # triangle on its own path edge: slice 0, at width 2, has 2^4 = 16
    # pinned combinations and sweeps in search order; slice 1, at width 3,
    # has 3^4 = 81 and sweeps heavy-first.  The slices share the shape
    # object, so one FVS search serves both, and each slice's verdict is
    # the one inlim gives it over a fresh shape
    import limsolve.solver
    from limsolve.generate import random_diagram

    searches = 0
    fvs_exact = limsolve.solver.fvs_exact

    def counted(g, k_max):
        nonlocal searches
        searches += 1
        return fvs_exact(g, k_max)

    def fresh(s):
        return CoDecomposition(SimpleGraph(s.shape.n, s.shape.edges),
                               s.vertex_size, s.edge_size, s.tables)

    monkeypatch.setattr(limsolve.solver, "fvs_exact", counted)
    discrete = FinCat(2, (0, 1), (0, 1), (0, 1), ((0, -1), (-1, 1)))
    rng = random.Random(34)
    verdicts = []
    for i in range(6):
        shape = SimpleGraph(64, [(x, x + 1) for x in range(59)]
                            + [(60 + h, 15 * h + j)
                               for h in range(4) for j in (0, 1)])
        light = random_diagram(rng, shape, 2, fixed_size=True)
        # identity legs on every other pass: constant families, NONEMPTY
        heavy = (random_diagram(rng, shape, 3, fixed_size=True) if i % 2
                 else CoDecomposition(shape, [3] * 64, [3] * 67,
                                      [(ident(3), ident(3))] * 67))
        assert inlim(fresh(light)).verdict.empty_limit
        d = CSetCoDecomposition(
            discrete, shape, [light, heavy],
            [(ident(2), ident(3))] * shape.n,
            [(ident(a), ident(b))
             for a, b in zip(light.edge_size, heavy.edge_size)])
        searches = 0
        empty = cset_inlim(d).empty_limit
        assert searches == 1
        want = inlim(fresh(heavy))
        assert len(want.fvs) == 4
        assert empty == want.verdict.empty_limit
        verdicts.append(empty)
    assert set(verdicts) == {True, False}


def test_cset_over_no_objects_is_empty(monkeypatch):
    # the one C-set over the empty category is empty everywhere; no slice
    # is swept, so no FVS search runs, no plan is built and a supplied set
    # is not checked, whatever the budget; only a budget that is not an
    # int >= 0 is refused
    import limsolve.solver

    def refuse(*args):
        raise AssertionError("FVS search over no C-object")

    monkeypatch.setattr(limsolve.solver, "fvs_exact", refuse)
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    for shape in (triangle, narrowing_spider(3, 601)[0].shape):
        d = CSetCoDecomposition(FinCat(0, (), (), (), ()), shape, [],
                                [()] * shape.n, [()] * shape.m)
        assert validate_cset_codecomp(d) == []
        assert cset_inlim(d).empty_limit
        assert cset_inlim(d, k_max=0).empty_limit
        assert cset_inlim(d, fvs=VertexSet(shape.n, 0)).empty_limit
        with pytest.raises(ValueError, match="^k_max must be >= 0$"):
            cset_inlim(d, k_max=-1)
        for k in (1.5, True, "2"):
            with pytest.raises(ValueError) as err:
                cset_inlim(d, k_max=k)
            assert str(err.value) == f"k_max {k!r} is not an int"


def test_columnwise_action_check_agrees_with_the_per_cset_check():
    # validate_cset_codecomp names action problems only when the
    # all-at-once check fails, so it must fail exactly when some C-set's
    # own check finds one
    rng = random.Random(13)
    cat = FinCat.walking_arrow()
    pairs = [(g, f, gf) for g, row in enumerate(cat.comp)
             for f, gf in enumerate(row) if gf != -1]

    def held(actions, sizes):
        # the all-at-once check: every table fits, then the actions are
        # lawful
        columns = _action_columns(cat, actions, sizes)
        return columns is not None and _actions_lawful(cat, columns, sizes)

    seen = set()
    for _ in range(300):
        d = random_walking_arrow_diagram(
            rng, random_tree(rng, rng.randint(1, 4)), 3)
        sizes = [s.vertex_size for s in d.slices]
        actions = [list(tables) for tables in d.vertex_actions]
        x = rng.randrange(len(actions))
        f = rng.randrange(cat.morphism_count)
        actions[x][f] = corrupt_table(rng, actions[x][f],
                                      sizes[cat.tgt[f]][x])
        found = [p for i, tables in enumerate(actions)
                 for p in _action_problems(cat, tables,
                                           [col[i] for col in sizes], pairs)]
        assert held(actions, sizes) == (not found)
        seen.add(not found)
    assert seen == {True, False}
    # a table that is no list or tuple fails both checks, not a TypeError
    actions = [list(tables) for tables in d.vertex_actions]
    for table in (5, None, "a", {0: 0}, range(1)):
        actions[0][2] = table
        assert not held(actions, sizes)
        assert _action_problems(cat, actions[0], [col[0] for col in sizes],
                                pairs) == [
            "action of morphism 2: table is not a list or tuple"]


@pytest.mark.parametrize("cat, text", [
    (FinCat(1, (0,), (), (0,), ((0,),)), "src/tgt length mismatch"),
    (FinCat(1, (0, 0), (0, 5), (0,), ((0, -1), (1, -1))),
     "morphism 1: src/tgt out of range"),
    (FinCat(2, (0,), (0,), (0,), ((0,),)), "one identity per object required"),
    (FinCat(2, (0, 1, 0), (0, 1, 1), (2, 1), FinCat.walking_arrow().comp),
     "identity of object 0 is not an endomorphism of it"),
    (FinCat(1, (0,), (0,), (0,), ((0, 0),)),
     "composition table must be morphisms x morphisms"),
    (FinCat(2, (0, 1, 0), (0, 1, 1), (0, 1),
            ((0, 0, -1), (-1, 1, 2), (2, -1, -1))),
     "comp[0][1] defined although not composable"),
    (FinCat(2, (0, 1, 0), (0, 1, 1), (0, 1),
            ((0, -1, -1), (-1, 1, 2), (-1, -1, -1))),
     "comp[2][0] missing for composable pair"),
    # an endomorphism f of the one object with id after f = id
    (FinCat(1, (0, 0), (0, 0), (0,), ((0, 0), (1, 1))),
     "left identity law fails at morphism 1"),
], ids=["src-tgt-length", "src-tgt-range", "identity-count",
        "identity-endomorphism", "comp-shape", "comp-not-composable",
        "comp-missing", "left-identity"])
def test_validate_fincat_refusal_texts(cat, text):
    assert validate_fincat(cat) == [text]


def test_cset_constructor_refusals():
    d = random_walking_arrow_diagram(random.Random(3), SimpleGraph(
        2, [(0, 1)]), 2)
    args = [d.cat, d.shape, d.slices, d.vertex_actions, d.edge_actions]
    other = CoDecomposition(SimpleGraph(2), [1, 1], [], [])
    for i, bad, text in [
            (2, d.slices[:1], "one slice per C-object required"),
            (2, [d.slices[0], other], "every slice must have the diagram's "
                                      "shape"),
            (3, d.vertex_actions[:1], "one C-set per shape vertex required"),
            (4, [], "one C-set per shape edge required")]:
        with pytest.raises(ValueError) as err:
            CSetCoDecomposition(*args[:i], bad, *args[i + 1:])
        assert str(err.value) == text


def test_validate_cset_codecomp_refusal_texts():
    d = lift_to_terminal_cset(path_example())
    broken = FinCat(1, (0,), (0,), (0,), ((0, 0),))
    assert validate_cset_codecomp(CSetCoDecomposition(
        broken, d.shape, d.slices, d.vertex_actions, d.edge_actions)) == [
        "category: composition table must be morphisms x morphisms"]
    actions = list(d.vertex_actions)
    for tables in ((), 5):
        actions[1] = tables
        assert validate_cset_codecomp(CSetCoDecomposition(
            d.cat, d.shape, d.slices, actions, d.edge_actions)) == [
            "vertex 1: one action per category morphism required"]
    # a table that is no sequence is named, not a TypeError
    actions[1] = (5,)
    assert validate_cset_codecomp(CSetCoDecomposition(
        d.cat, d.shape, d.slices, actions, d.edge_actions)) == [
        "vertex 1: action of morphism 0: table is not a list or tuple"]
