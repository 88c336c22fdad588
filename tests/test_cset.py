import itertools
import random

import pytest

from conftest import c4_example, corrupt_table, path_example, random_graph_diagram
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
from limsolve.cset import _action_problems, _actions_hold
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
    for c in (-1, 2):
        with pytest.raises(ValueError, match=f"no C-object {c}"):
            pointwise_slice(d, c)


def test_pointwise_slice_terminal_is_underlying():
    d = path_example()
    lifted = lift_to_terminal_cset(d)
    assert validate_cset_codecomp(lifted) == []
    assert pointwise_slice(lifted, 0) is d


def test_naturality_violation_rejected():
    # identity actions everywhere, but the leg permutes at object 0 only:
    # the square at the arrow morphism cannot commute
    cs = ((2, 2), (ident(2), ident(2), ident(2)))
    bad = cset_diagram(FinCat.walking_arrow(), SimpleGraph(2, [(0, 1)]),
                       [cs, cs], [cs], [((ident(2), (1, 0)),
                                         (ident(2), ident(2)))])
    assert validate_cset_codecomp(bad) == [
        "leg of edge 0 at vertex 0: naturality square fails at morphism 2"]
    with pytest.raises(ValueError):
        cset_inlim(bad)


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
    import limsolve.cset
    import limsolve.solver

    calls = {"_forest_plan": 0, "size_problems": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for module in (limsolve.cset, limsolve.solver):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    d = walking_arrow_golden()
    assert cset_inlim(d).empty_limit
    assert calls == {"_forest_plan": 1, "size_problems": 2}
    # the same counts, and the brute-force verdicts, on the corpus of
    # test_cset_walking_arrow_matches_componentwise_oracle
    for seed in range(30):
        rng = random.Random(seed)
        if seed % 2:
            shape = random_tree(rng, rng.randint(1, 5))
        else:
            shape = random_graph(rng, rng.randint(1, 5), 0.4)
        d = random_walking_arrow_diagram(rng, shape, 3)
        for name in calls:
            calls[name] = 0
        assert cset_inlim(d).empty_limit == brute_cset_empty(d)
        assert calls == {"_forest_plan": 1, "size_problems": 2}


def test_cset_over_no_objects_is_empty():
    # the one C-set over the empty category is empty everywhere; no slice
    # is swept, so no plan is built and a supplied set is not checked
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    d = CSetCoDecomposition(FinCat(0, (), (), (), ()), triangle, [],
                            [()] * 3, [()] * 3)
    assert validate_cset_codecomp(d) == []
    assert cset_inlim(d).empty_limit
    assert cset_inlim(d, fvs=VertexSet(3, 0)).empty_limit


def test_columnwise_action_check_agrees_with_the_per_cset_check():
    # validate_cset_codecomp names action problems only when the
    # all-at-once check fails, so it must fail exactly when some C-set's
    # own check finds one
    rng = random.Random(13)
    cat = FinCat.walking_arrow()
    pairs = [(g, f, gf) for g, row in enumerate(cat.comp)
             for f, gf in enumerate(row) if gf != -1]
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
        assert _actions_hold(cat, actions, sizes, pairs) == (not found)
        seen.add(not found)
    assert seen == {True, False}
    # a table that is no list or tuple fails both checks, not a TypeError
    actions = [list(tables) for tables in d.vertex_actions]
    for table in (5, None, "a", {0: 0}, range(1)):
        actions[0][2] = table
        assert not _actions_hold(cat, actions, sizes, pairs)
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
