import pytest

from conftest import (
    c4_example,
    edgeless_diagram,
    path_example,
    random_tree_diagram,
)
from limsolve import CapExceeded, brute_image, enumerate_limit


def test_enumerate_path_example():
    fams = enumerate_limit(path_example())
    assert [w.vertex_elements for w in fams] == [(2, 1, 0), (2, 1, 1)]
    assert all(w.edge_elements == (1, 1) for w in fams)


def test_enumerate_c4_empty():
    assert enumerate_limit(c4_example()) == []


def test_enumerate_edgeless_product():
    fams = enumerate_limit(edgeless_diagram([2, 2]))
    assert [w.vertex_elements for w in fams] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_zero_vertex_diagram_is_singleton():
    fams = enumerate_limit(edgeless_diagram([]))
    assert len(fams) == 1 and fams[0].vertex_elements == ()


def test_enumerate_lexicographic_order():
    for seed in range(20):
        fams = enumerate_limit(random_tree_diagram(seed))
        keys = [w.vertex_elements for w in fams]
        assert keys == sorted(keys)


def test_enumerate_cap_guard():
    d = edgeless_diagram([10] * 8)
    with pytest.raises(CapExceeded):
        enumerate_limit(d, cap=10**6)


def test_brute_image_path_example():
    m = brute_image(path_example())
    assert m.vertex == [0b100, 0b10, 0b11]
    assert m.edge == [0b10, 0b10]


def test_brute_image_empty_limit_all_false():
    m = brute_image(c4_example())
    assert m.vertex == [0, 0, 0, 0] and m.edge == [0, 0, 0, 0]

