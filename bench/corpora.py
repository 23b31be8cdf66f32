"""Seeded input corpora for the three benchmark workloads.

Each corpus function returns (dataset, ids): the graphs with their ground-truth
classes, in the order they are written to disk, and the id of each graph,
which seeds its encoder and its cells. The node-count multiset of a corpus
does not depend on the seed, so the work per run stays the same from seed
to seed.
"""

from collections import deque

import numpy as np

from graphdiv.generators import (karate_club, make_barbell, make_grid, make_ring,
                                 make_star, mutate_family, random_graph)
from graphdiv.graphs import Graph, GraphDataset, LabelVocabulary

# molecule-like vocabularies: atom kinds and bond kinds
NODE_LABEL_PROBS = (0.70, 0.15, 0.10, 0.05)
EDGE_SINGLE, EDGE_DOUBLE, EDGE_RING = 0, 1, 2
MAX_VALENCE = 4
# class 0 graphs are trees, class 1 graphs close three rings
RINGS_BY_CLASS = (0, 3)


def _bfs_distances(adj, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _bridges(n, edges):
    """Edges whose removal disconnects the graph (n is small: brute force)."""
    out = set()
    for e in edges:
        adj = [[] for _ in range(n)]
        for a, b in edges:
            if (a, b) != e:
                adj[a].append(b)
                adj[b].append(a)
        if len(_bfs_distances(adj, 0)) < n:
            out.add(e)
    return out


def molecule(n, rings, rng):
    """A connected molecule-like graph: a random tree of valence <= 4 plus
    `rings` closing bonds, each closing a 5- or 6-cycle where one exists.

    Bonds on a cycle get the ring label; the others are single or double.
    """
    adj = [[] for _ in range(n)]
    edges = []
    for v in range(1, n):
        # attach to one of the last few nodes so the backbone is chain-like
        open_nodes = [u for u in range(max(0, v - 4), v) if len(adj[u]) < MAX_VALENCE - 1]
        u = int(open_nodes[rng.integers(len(open_nodes))]) if open_nodes else v - 1
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))
    for _ in range(rings):
        cands = []
        for u in range(n):
            if len(adj[u]) >= MAX_VALENCE:
                continue
            dist = _bfs_distances(adj, u)
            cands.extend((u, v) for v, d in dist.items()
                         if v > u and d in (4, 5) and len(adj[v]) < MAX_VALENCE)
        if not cands:
            cands = [(u, v) for u in range(n) for v in range(u + 2, n) if v not in adj[u]]
        u, v = cands[rng.integers(len(cands))]
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))
    node_labels = rng.choice(len(NODE_LABEL_PROBS), size=n, p=NODE_LABEL_PROBS).tolist()
    bridges = _bridges(n, edges)
    edge_labels = [EDGE_RING if e not in bridges
                   else (EDGE_DOUBLE if rng.random() < 0.2 else EDGE_SINGLE) for e in edges]
    return node_labels, edges, edge_labels


def labeled_corpus(sizes_per_class, seed):
    """Molecule-like graphs, one per (class, size); order shuffled by seed.

    The TU loader re-indexes labels densely, so a label value that no graph
    carries would shift the others; the benchmark's loaded-equals-generated
    check fails if that happens.
    """
    rng = np.random.default_rng(seed)
    raw = []
    for cls, rings in enumerate(RINGS_BY_CLASS):
        for n in sizes_per_class:
            raw.append((cls, n) + molecule(n, rings, rng))
    order = rng.permutation(len(raw))
    raw = [raw[i] for i in order]
    graphs = [Graph(n, edges, node_labels=nl, edge_labels=el,
                    num_node_labels=len(NODE_LABEL_PROBS), num_edge_labels=3)
              for _, n, nl, edges, el in raw]
    classes = [cls for cls, *_ in raw]
    dataset = GraphDataset(graphs, classes,
                           node_vocab=LabelVocabulary("node", tuple(str(k) for k in range(4))),
                           edge_vocab=LabelVocabulary("edge", ("0", "1", "2")),
                           class_names=("0", "1"))
    return dataset, list(range(len(graphs)))


def family_seeds():
    """The criterion-4 family seed graphs, 16 to 49 nodes."""
    return [karate_club(), make_ring(20), make_grid(7, 7), make_barbell(12),
            make_star(40), random_graph(16, 0.5, 7)]


def families_corpus(per_family):
    """The first `per_family` members of each criterion-4 family (50 mutation
    steps, mutation seed 1000 + family); class = family."""
    seeds = family_seeds()
    graphs, classes = [], []
    for fi, seed_graph in enumerate(seeds):
        for g in mutate_family(seed_graph, steps=50, mutation_count=per_family,
                               rng_seed=1000 + fi):
            graphs.append(g)
            classes.append(fi)
    dataset = GraphDataset(graphs, classes, class_names=tuple(str(k) for k in range(len(seeds))))
    return dataset, list(range(len(graphs)))


def shuffled(corpus, seed):
    """The same graphs under the same ids, in an order drawn from the seed.

    Cells are seeded from graph ids, so every cell keeps its value; what moves
    is the order of the TU files, of the table and of the pool's work.
    """
    dataset, ids = corpus
    order = np.random.default_rng(seed).permutation(len(ids)).tolist()
    return (GraphDataset([dataset.graphs[i] for i in order],
                         [dataset.graph_classes[i] for i in order],
                         node_vocab=dataset.node_vocab, edge_vocab=dataset.edge_vocab,
                         class_names=dataset.class_names),
            [ids[i] for i in order])
