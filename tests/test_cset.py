import itertools
import random

import pytest

from conftest import c4_example, path_example, random_graph_diagram
from limsolve import (
    CSet,
    CSetCoDecomposition,
    FinCat,
    FinFn,
    FinSetObj,
    cset_inlim,
    enumerate_limit,
    inlim,
    pointwise_slice,
    validate_cset,
    validate_cset_codecomp,
    validate_fincat,
)
from limsolve.generate import (
    lift_to_terminal_cset,
    random_walking_arrow_diagram,
    random_graph,
    random_tree,
)


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
    good = CSet((FinSetObj(2), FinSetObj(2)),
                (FinFn.identity(2), FinFn.identity(2), FinFn(2, 2, (1, 0))))
    assert validate_cset(cat, good) == []
    bad = CSet((FinSetObj(2), FinSetObj(2)),
               (FinFn(2, 2, (1, 0)), FinFn.identity(2), FinFn.identity(2)))
    assert any("identity" in p for p in validate_cset(cat, bad))
    # the generator of Z/2 acting as a 3-cycle: its square is not the identity
    z2 = cyclic_monoid(2)
    cycle = CSet((FinSetObj(3),), (FinFn.identity(3), FinFn(3, 3, (1, 2, 0))))
    assert validate_cset(z2, cycle) == [
        "functoriality fails: action of comp[1][1]"]


def two_parallel_diagrams_example():
    """Walking-arrow diagram over a single edge, assembled from two plain
    diagrams (one per C-object) plus an action joining them."""
    cat = FinCat.walking_arrow()
    # object 0 slice: 2 -> 2 <- 2 with identity legs
    # object 1 slice: 1 -> 1 <- 1
    vertex_cs = [
        CSet((FinSetObj(2), FinSetObj(1)),
             (FinFn.identity(2), FinFn.identity(1), FinFn.constant(2, 1, 0))),
        CSet((FinSetObj(2), FinSetObj(1)),
             (FinFn.identity(2), FinFn.identity(1), FinFn.constant(2, 1, 0))),
    ]
    edge_cs = [
        CSet((FinSetObj(2), FinSetObj(1)),
             (FinFn.identity(2), FinFn.identity(1), FinFn.constant(2, 1, 0))),
    ]
    legs = [(
        (FinFn.identity(2), FinFn.identity(1)),
        (FinFn.identity(2), FinFn.identity(1)),
    )]
    from limsolve import SimpleGraph

    return CSetCoDecomposition(cat, SimpleGraph(2, [(0, 1)]),
                               vertex_cs, edge_cs, legs)


def test_pointwise_slice_walking_arrow():
    d = two_parallel_diagrams_example()
    assert validate_cset_codecomp(d) == []
    s0 = pointwise_slice(d, 0)
    assert s0.vertex_size == [2, 2] and s0.edge_size == [2]
    assert s0.tables == [((0, 1), (0, 1))]
    s1 = pointwise_slice(d, 1)
    assert s1.vertex_size == [1, 1] and s1.tables == [((0,), (0,))]


def test_pointwise_slice_terminal_is_underlying():
    d = path_example()
    lifted = lift_to_terminal_cset(d)
    assert validate_cset_codecomp(lifted) == []
    s = pointwise_slice(lifted, 0)
    assert s.vertex_size == d.vertex_size and s.edge_size == d.edge_size
    assert s.tables == d.tables
    assert s.vertex_labels == d.vertex_labels
    assert s.edge_labels == d.edge_labels


def test_naturality_violation_rejected():
    # identity actions everywhere, but the leg permutes at object 0 only:
    # the square at the arrow morphism cannot commute
    d = two_parallel_diagrams_example()
    cat = d.cat
    vertex_cs = [
        CSet((FinSetObj(2), FinSetObj(2)),
             (FinFn.identity(2), FinFn.identity(2), FinFn.identity(2))),
        CSet((FinSetObj(2), FinSetObj(2)),
             (FinFn.identity(2), FinFn.identity(2), FinFn.identity(2))),
    ]
    edge_cs = [CSet((FinSetObj(2), FinSetObj(2)),
                    (FinFn.identity(2), FinFn.identity(2), FinFn.identity(2)))]
    legs = [((FinFn.identity(2), FinFn(2, 2, (1, 0))),
             (FinFn.identity(2), FinFn.identity(2)))]
    bad = CSetCoDecomposition(cat, d.shape, vertex_cs, edge_cs, legs)
    problems = validate_cset_codecomp(bad)
    assert any("naturality" in p for p in problems)
    with pytest.raises(ValueError):
        cset_inlim(bad)


def walking_arrow_golden() -> CSetCoDecomposition:
    """Object-1 slice: the twisted four-cycle diagram.  Object-0 slice:
    singleton vertex sets with a mismatched edge, every map forced to be
    compatible with the arrow action.  Both slices are empty."""
    cat = FinCat.walking_arrow()
    c4 = c4_example()

    def vertex_cset(x):
        big = FinSetObj(c4.vertex_size[x], c4.vertex_labels.get(x))
        return CSet((FinSetObj(1), big),
                    (FinFn.identity(1), FinFn.identity(big.size),
                     FinFn.constant(1, big.size, 0)))

    def edge_cset(e, action_table):
        big = FinSetObj(c4.edge_size[e], c4.edge_labels.get(e))
        small = FinSetObj(len(action_table))
        return CSet((small, big),
                    (FinFn.identity(small.size), FinFn.identity(big.size),
                     FinFn(small.size, big.size, action_table)))

    # edge 0 carries the slice-0 twist: legs pick distinct elements whose
    # forced images under the action are the slice-1 leg values of element 0
    vertex_cs = [vertex_cset(x) for x in range(4)]
    edge_cs = []
    legs = []
    for e, (u, v) in enumerate(c4.shape.edges):
        tu, tv = c4.tables[e]
        leg_u1 = FinFn(2, c4.edge_size[e], tu)
        leg_v1 = FinFn(2, c4.edge_size[e], tv)
        if e == 0:
            slice0_size = 2
            pick_u, pick_v = 0, 1
            action = (leg_u1(0), leg_v1(0))
        else:
            slice0_size = 1
            pick_u = pick_v = 0
            assert leg_u1(0) == leg_v1(0)
            action = (leg_u1(0),)
        edge_cs.append(edge_cset(e, action))
        legs.append((
            (FinFn(1, slice0_size, (pick_u,)), leg_u1),
            (FinFn(1, slice0_size, (pick_v,)), leg_v1),
        ))
    return CSetCoDecomposition(cat, c4.shape, vertex_cs, edge_cs, legs)


def brute_cset_empty(d: CSetCoDecomposition) -> bool:
    """Componentwise matching-family search straight off the leg tables."""
    for c in range(d.cat.object_count):
        sizes = [x.objects[c].size for x in d.vertex_cs]
        constraints = [
            (u, v, d.legs[e][0][c].table, d.legs[e][1][c].table)
            for e, (u, v) in enumerate(d.shape.edges)
        ]
        for combo in itertools.product(*(range(s) for s in sizes)):
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
