import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import positive_log_loss_loop, raw_divergence_loop, same_bits
from graphdiv import nn
from graphdiv.generators import random_graph
from graphdiv.graphs import (Graph, GraphDataset, GraphError, GraphFormatError,
                             LabelVocabulary, atomic_write, edge_attr_matrix, edge_pair_sum,
                             load_dataset_json, neighborhood_attr_matrix,
                             node_label_onehot, save_dataset_json)


def test_edges_canonical_and_sorted():
    g = Graph(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.edge_count == 3


def test_edge_labels_follow_edge_reordering():
    # labels given in input order must stay attached to their edge after sorting
    g = Graph(4, [(3, 1), (2, 0), (1, 0)], edge_labels=[7, 8, 9])
    label = dict(zip(g.edges, g.edge_labels))
    assert label[(1, 3)] == 7
    assert label[(0, 2)] == 8
    assert label[(0, 1)] == 9


def test_rejects_self_loop_duplicate_and_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1, [])


def test_label_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], node_labels=[0, 1])  # wrong length
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], node_labels=[0, -1, 0])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)], edge_labels=[0, 1])  # wrong length


def test_neighbors_degree_adjacency(triangle):
    a = triangle.adjacency_matrix()
    assert np.flatnonzero(a[0]).tolist() == [1, 2]  # neighbours of node 0
    assert a[1].sum() == 2  # degree of node 1
    assert a.shape == (3, 3)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert a.sum() == 6  # both orientations of 3 edges


def test_graph_json_roundtrip(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (3, 4)], node_labels=[0, 1, 2, 1, 0],
              edge_labels=[1, 0, 1])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json_dict()))
    assert Graph.from_json_dict(json.loads(path.read_text())) == g


def test_graph_json_missing_field():
    with pytest.raises(GraphFormatError):
        Graph.from_json_dict({"edges": []})
    with pytest.raises(GraphFormatError):
        Graph.from_json_dict({"nodes": 3, "edges": [[0, 1]],
                              "edge_labels": []})  # label entry missing


def test_json_edge_labels_stay_with_their_edges():
    # edges listed out of sorted order once took the labels of the edges of
    # their sorted rank: (0, 1) loaded with label 5, the label of (1, 2)
    g = Graph.from_json_dict({"nodes": 3, "edges": [[1, 2], [0, 1]],
                              "edge_labels": [[1, 2, 5], [0, 1, 7]]})
    assert dict(zip(g.edges, g.edge_labels)) == {(0, 1): 7, (1, 2): 5}
    assert g == Graph(3, [(0, 1), (1, 2)], edge_labels=[7, 5])


@pytest.mark.parametrize("d, message", [
    ({"nodes": 2.5, "edges": [[0, 1]]}, "node count must be an integer, got 2.5"),
    ({"nodes": 3, "edges": [[0, 1.0]]}, "node id must be an integer, got 1.0"),
    ({"nodes": 2, "edges": [], "node_labels": [0, 1.9]}, "node label must be an integer"),
    ({"nodes": 2, "edges": [[0, 1]], "edge_labels": [[0, 1, "a"]]}, "edge label must be"),
    ({"nodes": 2, "edges": [], "node_labels": [0, 1], "num_node_labels": 2.5},
     "num_node_labels must be an integer"),
], ids=["node-count", "node-id", "node-label", "edge-label", "vocabulary"])
def test_graph_ids_must_be_integers(d, message):
    # a float node count once built a graph with an edge past its last node,
    # and a node label 1.9 quietly became 1
    with pytest.raises(GraphError, match=message):
        Graph.from_json_dict(d)
    g = Graph(np.int64(3), [(np.int64(0), np.int32(2))], node_labels=np.array([0, 1, 0]))
    assert g == Graph(3, [(0, 2)], node_labels=[0, 1, 0])
    assert json.dumps(g.to_json_dict())  # numpy ints are stored as Python ints


def test_json_edge_given_two_labels_is_rejected():
    with pytest.raises(GraphFormatError, match=r"conflicting labels for edge \(1, 0\)"):
        Graph.from_json_dict({"nodes": 2, "edges": [[0, 1]],
                              "edge_labels": [[0, 1, 2], [1, 0, 3]]})
    # the same label twice is one label
    g = Graph.from_json_dict({"nodes": 2, "edges": [[0, 1]], "edge_labels": [[0, 1, 2], [1, 0, 2]]})
    assert g.edge_labels == (2,)


@pytest.mark.parametrize("entry", [[0, 2, 5], [2, 0, 5], [7, 9, 1]],
                         ids=["stray-pair", "stray-pair-reversed", "out-of-range"])
def test_json_label_of_no_edge_is_rejected(entry):
    # such entries were once dropped: the graph loaded as one edge, label 0
    u, v, l = entry
    with pytest.raises(GraphFormatError,
                       match=rf"^edge_labels entry \[{u}, {v}, {l}\] is not an edge$"):
        Graph.from_json_dict({"nodes": 3, "edges": [[0, 1]], "edge_labels": [[0, 1, 0], entry]})


def test_digest_follows_content_and_vocabulary():
    g = Graph(3, [(0, 1)], node_labels=[0, 1, 0])
    assert g.digest == Graph(3, [(1, 0)], node_labels=[0, 1, 0]).digest
    assert g.digest != Graph(3, [(0, 2)], node_labels=[0, 1, 0]).digest
    assert g.digest != Graph(3, [(0, 1)], node_labels=[0, 1, 0], num_node_labels=3).digest
    assert len(g.digest) == 64 and g.digest is g.digest  # computed once


def test_label_matrices_of_an_empty_vocabulary():
    # a graph with edge_labels=[] and no edges once raised ZeroDivisionError
    # in edge_attr_matrix and neighborhood_attr_matrix(g, "edge")
    g = Graph(3, [], node_labels=[0, 1, 0], edge_labels=[])
    assert edge_attr_matrix(g).shape == neighborhood_attr_matrix(g, "edge").shape == (3, 0)
    assert node_label_onehot(Graph(0, [], node_labels=[])).shape == (0, 0)


def test_graph_json_keeps_vocabulary_and_reads_older_files():
    g = Graph(3, [(0, 1)], node_labels=[0, 1, 0], edge_labels=[1],
              num_node_labels=4, num_edge_labels=3)
    back = Graph.from_json_dict(g.to_json_dict())
    assert (back.num_node_labels, back.num_edge_labels) == (4, 3)
    # a file without the sizes, as written before they were stored
    old = {"nodes": 3, "edges": [[0, 1]], "node_labels": [0, 1, 0], "edge_labels": [[0, 1, 1]]}
    implied = Graph.from_json_dict(old)
    assert (implied.num_node_labels, implied.num_edge_labels) == (2, 2)
    with pytest.raises(GraphError):
        Graph.from_json_dict(dict(old, num_node_labels=1))
    with pytest.raises(GraphError):
        Graph(2, [(0, 1)], edge_labels=[2], num_edge_labels=2)


def test_dataset_roundtrip_aligns_vocab(tmp_path):
    g1 = Graph(3, [(0, 1)], node_labels=[0, 0, 0], edge_labels=[0])
    g2 = Graph(3, [(0, 2)], node_labels=[2, 1, 0], edge_labels=[1])
    ds = GraphDataset([g1, g2], [0, 1])
    path = tmp_path / "ds.json"
    save_dataset_json(ds, path)
    loaded = load_dataset_json(path)
    # both graphs see the union-sized node and edge vocabularies
    assert [g.num_node_labels for g in loaded.graphs] == [3, 3]
    assert [g.num_edge_labels for g in loaded.graphs] == [2, 2]
    assert loaded.graph_classes == [0, 1]


@pytest.mark.parametrize("graph, what", [
    ({"nodes": 2, "edges": [[True, False]], "node_labels": [1, 0]}, "node id"),
    ({"nodes": True, "edges": []}, "node count"),
    ({"nodes": 2, "edges": [[0, 1]], "node_labels": [True, 0]}, "node label"),
    ({"nodes": 2, "edges": [[0, 1]], "edge_labels": [[0, 1, False]]}, "edge label"),
    ({"nodes": 2, "edges": [[0, 1]], "edge_labels": [[True, 0, 0]]}, "node id"),
    ({"nodes": 2, "edges": [], "node_labels": [0, 0], "num_node_labels": True},
     "num_node_labels"),
], ids=["edge", "nodes", "node-label", "edge-label", "edge-label-endpoint", "vocabulary"])
def test_json_booleans_are_not_integers(tmp_path, graph, what):
    # JSON's true and false loaded as 1 and 0: edge [true, false] as (0, 1)
    # and "nodes": true as one node
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"graphs": [{"nodes": 1, "edges": []}, graph], "classes": [0, 1]}))
    with pytest.raises(GraphFormatError,
                       match=rf"ds\.json: graph 1: {what} must be an integer, got (True|False)"):
        load_dataset_json(path)


def test_graph_identity_is_its_digest():
    # equality once ignored the vocabulary sizes, which the digest and the
    # label penalties read: these two compared equal, with equal hashes
    edges = [(0, 1), (1, 2), (2, 3)]
    two, three = (Graph(4, edges, node_labels=[0, 1, 0, 1], num_node_labels=k) for k in (2, 3))
    assert two != three and len({two, three}) == 2
    again = Graph(4, edges[::-1], node_labels=[0, 1, 0, 1])
    assert again == two and hash(again) == hash(two) and again.digest == two.digest


def test_dataset_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        GraphDataset([g], [0, 1])
    with pytest.raises(GraphError):
        GraphDataset([g, g], [0, 2])  # class ids not dense


def test_vocabulary():
    v = LabelVocabulary("node", ("C", "N", "O"))
    assert v.size == 3
    with pytest.raises(GraphError):
        LabelVocabulary("node", ("C", "C"))
    with pytest.raises(GraphError):
        LabelVocabulary("weird", ("C",))


def test_node_attr_observed_one_hot():
    g = Graph(3, [(0, 1)], node_labels=[2, 0, 1])
    assert np.array_equal(node_label_onehot(g)[0], [0, 0, 1])


def test_edge_attr_observed_counts_and_uniform_fallback():
    g = Graph(4, [(0, 1), (0, 2)], edge_labels=[0, 1])
    m = edge_attr_matrix(g)
    assert np.allclose(m[0], [0.5, 0.5])
    assert np.allclose(m[1], [1.0, 0.0])
    # isolated node falls back to uniform
    assert np.allclose(m[3], [0.5, 0.5])


def test_neighborhood_attr_observed_node_kind():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)], node_labels=[0, 1, 1, 0])
    assert np.allclose(neighborhood_attr_matrix(g, "node")[0], [1 / 3, 2 / 3])


def test_neighborhood_attr_observed_edge_kind():
    # edges with at least one endpoint in N(u)
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], edge_labels=[0, 1, 1])
    # N(0) = {1}; edges touching node 1: (0,1) and (1,2)
    assert np.allclose(neighborhood_attr_matrix(g, "edge")[0], [0.5, 0.5])


def test_neighborhood_requires_labels(triangle):
    with pytest.raises(GraphError):
        neighborhood_attr_matrix(triangle, "node")
    with pytest.raises(GraphError):
        neighborhood_attr_matrix(triangle, "edge")
    with pytest.raises(GraphError):
        edge_attr_matrix(triangle)
    labeled = Graph(3, [(0, 1)], node_labels=[0, 1, 0])
    with pytest.raises(GraphError):
        neighborhood_attr_matrix(labeled, "bogus")


def test_matrix_builders_rows_sum_to_one():
    g = Graph(4, [(0, 1), (1, 2)], node_labels=[0, 1, 0, 1], edge_labels=[0, 1])
    for m in (edge_attr_matrix(g), neighborhood_attr_matrix(g, "node"),
              neighborhood_attr_matrix(g, "edge")):
        assert np.allclose(m.sum(axis=1), 1.0)
    onehot = node_label_onehot(g)
    assert np.allclose(onehot.sum(axis=1), 1.0)


# --- per-node oracle ----------------------------------------------------------
#
# The label matrices are built with whole-array operations; these per-node
# definitions state what row u means, one count at a time. A node with
# nothing to count gets the uniform distribution.

def _uniform(k):
    return np.full(k, 1.0 / k)


def _edge_attr_observed(g, u):
    """Label frequencies among edges incident to u, normalized by degree."""
    if not any(u in e for e in g.edges):
        return _uniform(g.num_edge_labels)
    dist = np.zeros(g.num_edge_labels)
    for i, (a, b) in enumerate(g.edges):
        if u in (a, b):
            dist[g.edge_labels[i]] += 1.0
    return dist / dist.sum()


def _neighborhood_attr_observed(g, u, kind):
    """Label frequencies over u's neighbors (kind="node") or over the edges
    with at least one endpoint in N(u) (kind="edge")."""
    nbrs = {b if a == u else a for a, b in g.edges if u in (a, b)}
    if kind == "node":
        labels = [g.node_labels[v] for v in nbrs]
        k = g.num_node_labels
    else:
        labels = [g.edge_labels[i] for i, (a, b) in enumerate(g.edges) if a in nbrs or b in nbrs]
        k = g.num_edge_labels
    if not labels:
        return _uniform(k)
    dist = np.zeros(k)
    for label in labels:
        dist[label] += 1.0
    return dist / dist.sum()


@st.composite
def labeled_graphs(draw):
    """Labeled graphs of 1-15 nodes, sparse enough to leave isolated nodes,
    with vocabularies that may be wider than the labels in use."""
    n = draw(st.integers(1, 15))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    k_node, k_edge = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    node_labels = draw(st.lists(st.integers(0, k_node - 1), min_size=n, max_size=n))
    edge_labels = draw(st.lists(st.integers(0, k_edge - 1), min_size=len(edges),
                                max_size=len(edges)))
    return Graph(n, edges, node_labels=node_labels, edge_labels=edge_labels,
                 num_node_labels=k_node, num_edge_labels=k_edge)


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_distributions_are_probability_vectors(g):
    # each matrix equals the per-node oracle byte for byte, and every row is
    # a probability vector
    n = g.node_count
    onehot = np.zeros((n, g.num_node_labels))
    for u, label in enumerate(g.node_labels):
        onehot[u, label] = 1.0
    expected = {
        "onehot": (node_label_onehot(g), onehot),
        "edge": (edge_attr_matrix(g), np.stack([_edge_attr_observed(g, u) for u in range(n)])),
        "nbr node": (neighborhood_attr_matrix(g, "node"),
                     np.stack([_neighborhood_attr_observed(g, u, "node") for u in range(n)])),
        "nbr edge": (neighborhood_attr_matrix(g, "edge"),
                     np.stack([_neighborhood_attr_observed(g, u, "edge") for u in range(n)])),
    }
    for name, (got, want) in expected.items():
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert np.all(got >= 0) and np.allclose(got.sum(axis=1), 1.0), name


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    atomic_write(str(path), "one")
    atomic_write(str(path), "two")
    assert path.read_text() == "two"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


def text_mode_write(path, text):
    """atomic_write's former writer: a UTF-8 text file over the temp file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


@pytest.mark.parametrize("text", ["", '{"raw": 1.5, "error": null}\n', "divergence \u00e9 \u6f22 \U0001f389\r\n",
                                  "x" * 70_000 + "\u00fc" * 40_000 + "\n"],
                         ids=["empty", "ascii", "non-ascii", "over-64k"])
def test_atomic_write_bytes_match_text_file(tmp_path, monkeypatch, text):
    # ASCII, non-ASCII, empty and >64 KiB text give a text file's bytes,
    # also when every os.write takes at most 7 bytes
    text_mode_write(tmp_path / "want", text)
    want = (tmp_path / "want").read_bytes()
    atomic_write(str(tmp_path / "got"), text)
    assert (tmp_path / "got").read_bytes() == want
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    atomic_write(str(tmp_path / "short"), text)
    assert (tmp_path / "short").read_bytes() == want


def test_edge_pair_sum_matches_edge_loops():
    # the array sum adds the edges in the loops' order, so both scores keep
    # their bits; probabilities of exactly 1 give log 0 terms
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(2, 30))
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), trial)
        p = rng.uniform(1e-6, 1.0, size=(n, n))
        p[rng.random((n, n)) < 0.2] = 1.0
        logits = 8.0 * rng.normal(size=(n, n))
        assert same_bits(0.0 - edge_pair_sum(g, np.log, p), raw_divergence_loop(p, g.edges)), trial
        assert same_bits(edge_pair_sum(g, nn.softplus, -logits),
                         positive_log_loss_loop(logits, g.edges)), trial


def test_edge_pair_sum_zero_cases():
    # an edgeless graph and an all-ones probability matrix both score +0.0
    ones = np.ones((4, 4))
    for g in (Graph(4, []), Graph(4, [(0, 1), (2, 3)])):
        raw = 0.0 - edge_pair_sum(g, np.log, ones)
        assert same_bits(raw, 0.0) and same_bits(raw, raw_divergence_loop(ones, g.edges))
    empty = edge_pair_sum(Graph(4, []), nn.softplus, ones)
    assert same_bits(empty, 0.0) and same_bits(empty, positive_log_loss_loop(-ones, ()))
