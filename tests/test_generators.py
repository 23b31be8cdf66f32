import numpy as np
import pytest

from graphdiv.generators import (karate_club, make_barbell, make_grid, make_ring,
                                 make_star, mutate_family, random_graph)
from graphdiv.graphs import Graph, GraphError


def test_barbell_counts():
    g = make_barbell(5)
    assert g.node_count == 10
    assert g.edge_count == 11  # 2 rings of 5 plus the bridge
    assert (0, 5) in g.edges
    degrees = sorted(g.adjacency_matrix().sum(axis=1))
    assert degrees == [2] * 8 + [3, 3]  # the two bridge endpoints


def test_barbell_labeled_is_fully_distinguishing():
    g = make_barbell(5, labeled=True)
    assert g.node_labels == tuple(range(10))
    assert sorted(g.edge_labels) == list(range(11))


def test_barbell_rejects_small_ring():
    with pytest.raises(GraphError):
        make_barbell(2)


def test_ring_star_grid():
    assert make_ring(6).edge_count == 6
    star = make_star(7)
    assert star.edge_count == 6
    assert star.adjacency_matrix()[0].sum() == 6
    grid = make_grid(3, 4)
    assert grid.node_count == 12
    assert grid.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical
    for bad in ((make_ring, 2), (make_star, 1), (make_grid, 0)):
        with pytest.raises(GraphError):
            bad[0](bad[1]) if bad[0] is not make_grid else make_grid(0, 3)


def test_random_graph_deterministic():
    a = random_graph(12, 0.3, 5)
    b = random_graph(12, 0.3, 5)
    c = random_graph(12, 0.3, 6)
    assert a == b
    assert a != c


def test_karate_club_shape():
    g = karate_club()
    assert g.node_count == 34
    assert g.edge_count == 78


def test_mutate_family_deterministic_and_labels_carried():
    seed = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], node_labels=[0, 1, 0, 1, 0, 1])
    fam1 = mutate_family(seed, steps=10, mutation_count=3, rng_seed=42)
    fam2 = mutate_family(seed, steps=10, mutation_count=3, rng_seed=42)
    assert fam1 == fam2
    assert len(fam1) == 3
    for g in fam1:
        assert g.node_count == 6
        assert g.node_labels == seed.node_labels
        assert g.edge_labels is None


def test_mutate_steps_zero_is_identity_structure():
    seed = make_ring(8)
    fam = mutate_family(seed, steps=0, mutation_count=2, rng_seed=0)
    assert all(g.edges == seed.edges for g in fam)


def test_mutate_triangle_one_step():
    # a triangle is complete: additions must fall back to deletion,
    # so one step always removes exactly one edge
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for seed in range(20):
        (g,) = mutate_family(tri, steps=1, mutation_count=1, rng_seed=seed)
        assert g.edge_count == 2


def test_mutate_empty_graph_adds():
    empty = Graph(4, [])
    (g,) = mutate_family(empty, steps=1, mutation_count=1, rng_seed=0)
    assert g.edge_count == 1


def test_mutate_never_deletes_last_edge():
    # at rng seed 3001 the third ring mutant used to lose every edge
    fam = mutate_family(make_ring(20), steps=50, mutation_count=3, rng_seed=3001)
    assert all(g.edge_count >= 1 for g in fam)
    # a single edge can only be kept or joined by more, never deleted
    (g,) = mutate_family(Graph(3, [(0, 1)]), steps=1, mutation_count=1, rng_seed=0)
    assert g.edge_count >= 1


def test_mutate_rejects_negative_steps():
    with pytest.raises(GraphError):
        mutate_family(make_ring(4), steps=-1, mutation_count=1, rng_seed=0)
