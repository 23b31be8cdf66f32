"""Synthetic graph generators and bundled fixtures."""

import json
from importlib import resources

import numpy as np

from .graphs import Graph, GraphError


def make_barbell(ring_size, labeled=False):
    """Two rings of `ring_size` nodes joined by the bridge edge (0, ring_size).

    With labeled=True every node gets its own label (0..2r-1) and every edge a
    distinct label keyed by its canonical endpoint pair, which is restrictive
    enough to pin down a unique alignment between two copies.
    """
    if ring_size < 3:
        raise GraphError(f"ring_size must be >= 3, got {ring_size}")
    r = ring_size
    edges = [(0, r)]
    for base in (0, r):
        edges.extend((base + i, base + (i + 1) % r) for i in range(r))
    g = Graph(2 * r, edges)
    if labeled:  # each edge labeled by its rank in the graph's sorted edges
        g = Graph(2 * r, g.edges, node_labels=range(2 * r), edge_labels=range(g.edge_count))
    return g


def make_ring(n):
    if n < 3:
        raise GraphError(f"ring needs >= 3 nodes, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def make_star(n):
    """One hub connected to n-1 leaves."""
    if n < 2:
        raise GraphError(f"star needs >= 2 nodes, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def make_grid(rows, cols):
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    idx = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph(rows * cols, edges)


def random_graph(n, edge_prob, rng_seed):
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    rng = np.random.default_rng(rng_seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    return Graph(n, edges)


def karate_club():
    """Zachary's karate club network (34 nodes), bundled as a fixture."""
    with resources.files("graphdiv.data").joinpath("karate.json").open() as f:
        d = json.load(f)
    return Graph(d["nodes"], [tuple(e) for e in d["edges"]])


def _mutate_once(edge_set, rng, pa_weights, n):
    """One mutation step: p=0.5 delete a random edge, else add one by
    preferential attachment weighted by the original graph's degrees. The
    last edge is never deleted: an edgeless graph has no structure to score,
    so that step adds an edge instead."""

    def delete():
        edges = sorted(edge_set)
        edge_set.remove(edges[rng.integers(len(edges))])

    def add():
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in edge_set]
        if not candidates:
            return False
        w = np.array([pa_weights[u] * pa_weights[v] for u, v in candidates], dtype=float)
        if w.sum() <= 0:
            w = np.ones(len(candidates))
        edge_set.add(candidates[rng.choice(len(candidates), p=w / w.sum())])
        return True

    if rng.random() < 0.5:
        if len(edge_set) > 1:
            delete()
        else:
            add()
    elif not add() and len(edge_set) > 1:
        delete()


def mutate_family(seed_graph, steps, mutation_count, rng_seed):
    """Generate `mutation_count` mutated variants of `seed_graph`.

    Each variant applies `steps` random edge deletions/additions; addition
    endpoints are sampled proportionally to the product of their degrees in
    the ORIGINAL seed graph, never the mutated one. Node labels are carried
    over; edge labels are dropped (new edges have none).
    """
    if steps < 0:
        raise GraphError("steps must be >= 0")
    rng = np.random.default_rng(rng_seed)
    n = seed_graph.node_count
    pa_weights = np.bincount(np.array(seed_graph.edges, dtype=int).ravel(), minlength=n)
    out = []
    for _ in range(mutation_count):
        edge_set = set(seed_graph.edges)
        for _ in range(steps):
            _mutate_once(edge_set, rng, pa_weights, n)
        out.append(Graph(n, edge_set, node_labels=seed_graph.node_labels,
                         num_node_labels=seed_graph.num_node_labels))
    return out
