import pytest

from cmkit import (
    determinant,
    gram_matrix,
    inner_product,
    intersection_graph,
    leading_ones,
    standard_basis,
)


def family(k, twos):
    return tuple([1] * k + [2] * twos)


def test_standard_basis_gram_single_one():
    assert gram_matrix(standard_basis((1, 2, 2))) == ((-5, 1), (1, -2))
    assert gram_matrix(standard_basis((1, 2))) == ((-5,),)


def test_standard_basis_gram_three_ones():
    assert gram_matrix(standard_basis((1, 1, 1, 2))) == (
        (-2, 1, 0),
        (1, -2, 1),
        (0, 1, -3),
    )


def test_standard_basis_gram_two_ones_decomposable():
    assert standard_basis((1, 1, 2)) == [(1, -1, 0), (1, 1, -1)]
    assert gram_matrix(standard_basis((1, 1, 2))) == ((-2, 0), (0, -3))


def test_standard_basis_shape_errors():
    for bad in [(1, 1, 1), (1, 2, 3), (1, 3, 3), (2, 2)]:
        with pytest.raises(ValueError):
            standard_basis(bad)


def test_standard_basis_orthogonality_and_determinant():
    for n in range(1, 10):
        for k in range(1, n + 1):
            sig = family(k, n + 1 - k)
            basis = standard_basis(sig)
            assert len(basis) == n
            assert all(inner_product(v, sig) == 0 for v in basis)
            p = sum(x * x for x in sig)
            assert abs(determinant(gram_matrix(basis))) == p


def test_intersection_graph_examples():
    g = intersection_graph(standard_basis((1, 1, 2)))
    assert len(g) == 2 and not g.edges

    g = intersection_graph(standard_basis((1, 2, 2)))
    assert g.edges == frozenset({(0, 1)})

    g = intersection_graph(standard_basis((1, 1, 1, 1, 2)))
    degrees = sorted(len(g.adjacency[v]) for v in range(len(g)))
    assert degrees == [1, 1, 1, 3]
    assert g.adjacency[1] == {0, 2, 3}  # the second vector is the center


def test_intersection_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        intersection_graph([(1, 0), (1, 0)])


def test_claw_detection():
    path5 = intersection_graph(
        [tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(6)) for i in range(5)]
    )
    assert not path5.has_induced_claw()
    assert path5.is_connected()

    single = intersection_graph([(1, 0)])
    assert not single.has_induced_claw()
    assert single.is_connected()

    claw = intersection_graph(standard_basis((1, 1, 1, 1, 2)))
    assert claw.has_induced_claw()


def test_family_trichotomy_up_to_rank_nine():
    for n in range(1, 10):
        for k in range(1, n + 1):
            sig = family(k, n + 1 - k)
            graph = intersection_graph(standard_basis(sig))
            assert leading_ones(sig) == k
            assert graph.has_induced_claw() == (k >= 4)
            assert graph.is_connected() == (k != 2)


def test_linear_families_give_paths():
    # for k in {1, 3} the graph is a connected claw-free path
    for n in range(1, 10):
        for k in (1, 3):
            if k > n:
                continue
            graph = intersection_graph(standard_basis(family(k, n + 1 - k)))
            assert graph.is_connected()
            assert not graph.has_induced_claw()
            degrees = sorted(len(graph.adjacency[v]) for v in range(len(graph)))
            if len(graph) >= 2:
                assert degrees[-1] <= 2
                assert degrees.count(1) == 2 or len(graph) == 1
