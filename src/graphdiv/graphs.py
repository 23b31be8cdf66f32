"""Graph data model, JSON serialization, and label-distribution matrices."""

from dataclasses import dataclass, field

import json
import os
import tempfile

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


class GraphFormatError(ValueError):
    """Malformed graph file contents."""


def canonical_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected graph with dense integer node ids and optional categorical labels.

    Edges are stored once as sorted (u, v) tuples; self-loops are rejected.
    Instances are immutable by convention: nothing mutates them after __init__,
    so they are safe to share across parallel workers.
    """

    def __init__(self, node_count, edges, node_labels=None, edge_labels=None,
                 num_node_labels=None, num_edge_labels=None):
        if node_count < 0:
            raise GraphError("node_count must be non-negative")
        self.node_count = int(node_count)
        seen = set()
        canon = []
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"edge ({u}, {v}) references node outside 0..{node_count - 1}")
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            e = canonical_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        order = sorted(range(len(canon)), key=lambda i: canon[i])
        self.edges = tuple(canon[i] for i in order)
        if edge_labels is not None:
            raw = list(edge_labels)
            if len(raw) != len(self.edges):
                raise GraphError("edge_labels must cover every edge")
            edge_labels = [raw[i] for i in order]

        if node_labels is not None:
            node_labels = tuple(int(l) for l in node_labels)
            if len(node_labels) != node_count:
                raise GraphError("node_labels must cover every node")
            if node_labels and min(node_labels) < 0:
                raise GraphError("negative node label id")
        self.node_labels = node_labels

        if edge_labels is not None:
            edge_labels = tuple(int(l) for l in edge_labels)
            if edge_labels and min(edge_labels) < 0:
                raise GraphError("negative edge label id")
        self.edge_labels = edge_labels

        if num_node_labels is None and node_labels is not None:
            num_node_labels = max(node_labels) + 1 if node_labels else 0
        if num_edge_labels is None and edge_labels is not None:
            num_edge_labels = max(edge_labels) + 1 if edge_labels else 0
        if node_labels and num_node_labels is not None and num_node_labels <= max(node_labels):
            raise GraphError("num_node_labels must exceed every node label id")
        if edge_labels and num_edge_labels is not None and num_edge_labels <= max(edge_labels):
            raise GraphError("num_edge_labels must exceed every edge label id")
        self.num_node_labels = num_node_labels
        self.num_edge_labels = num_edge_labels

    @property
    def edge_count(self):
        return len(self.edges)

    def adjacency_matrix(self):
        """Dense 0/1 adjacency, float64, zero diagonal."""
        a = np.zeros((self.node_count, self.node_count))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count and self.edges == other.edges
                and self.node_labels == other.node_labels
                and self.edge_labels == other.edge_labels)

    def __hash__(self):
        return hash((self.node_count, self.edges, self.node_labels, self.edge_labels))

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"

    def to_json_dict(self):
        d = {"nodes": self.node_count, "edges": [list(e) for e in self.edges]}
        if self.node_labels is not None:
            d["node_labels"] = list(self.node_labels)
            d["num_node_labels"] = self.num_node_labels
        if self.edge_labels is not None:
            d["edge_labels"] = [[u, v, l] for (u, v), l in zip(self.edges, self.edge_labels)]
            d["num_edge_labels"] = self.num_edge_labels
        return d

    @classmethod
    def from_json_dict(cls, d):
        try:
            node_count = d["nodes"]
            edges = [tuple(e) for e in d["edges"]]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"graph JSON missing required field: {exc}") from exc
        node_labels = d.get("node_labels")
        edge_labels = None
        if "edge_labels" in d:
            by_edge = {canonical_edge(u, v): l for u, v, l in d["edge_labels"]}
            ordered = sorted(canonical_edge(u, v) for u, v in edges)
            missing = [e for e in ordered if e not in by_edge]
            if missing:
                raise GraphFormatError(f"edge_labels missing entry for edge {missing[0]}")
            edge_labels = [by_edge[e] for e in ordered]
        # vocabulary sizes are absent from files written before they were
        # stored; the labels then imply them
        return cls(node_count, edges, node_labels=node_labels, edge_labels=edge_labels,
                   num_node_labels=d.get("num_node_labels"),
                   num_edge_labels=d.get("num_edge_labels"))


def atomic_write(path, text):
    """Write text to path through a uniquely named temp file in the same
    directory and a rename, so readers never see a partial file and
    concurrent writers never share a temp file. The UTF-8 bytes of text go
    straight to the temp file's descriptor, with no text-file layer."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]  # a write may take only part
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered names for node or edge label ids."""
    kind: str  # "node" or "edge"
    names: tuple

    def __post_init__(self):
        if self.kind not in ("node", "edge"):
            raise GraphError(f"bad vocabulary kind {self.kind!r}")
        if len(set(self.names)) != len(self.names):
            raise GraphError("vocabulary names must be unique")

    @property
    def size(self):
        return len(self.names)


@dataclass
class GraphDataset:
    """A list of graphs with one class id per graph and shared label vocabularies."""
    graphs: list
    graph_classes: list
    node_vocab: LabelVocabulary = None
    edge_vocab: LabelVocabulary = None
    class_names: tuple = field(default=None)

    def __post_init__(self):
        if len(self.graphs) != len(self.graph_classes):
            raise GraphError("graphs and graph_classes must have equal length")
        if self.graph_classes:
            ks = sorted(set(self.graph_classes))
            if ks != list(range(len(ks))):
                raise GraphError("class ids must be dense from 0")

    def __len__(self):
        return len(self.graphs)


def save_dataset_json(dataset, path):
    d = {"graphs": [g.to_json_dict() for g in dataset.graphs],
         "classes": list(dataset.graph_classes)}
    if dataset.node_vocab:
        d["node_label_names"] = list(dataset.node_vocab.names)
    if dataset.edge_vocab:
        d["edge_label_names"] = list(dataset.edge_vocab.names)
    with open(path, "w") as f:
        json.dump(d, f)


def load_dataset_json(path):
    try:
        with open(path) as f:
            d = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise GraphFormatError(f"{path}: not a JSON dataset: {exc}") from None
    try:
        graphs = [Graph.from_json_dict(gd) for gd in d["graphs"]]
        classes = list(d["classes"])
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"{path}: dataset JSON missing required field: {exc}") from exc
    # align per-graph vocab sizes so attribute distributions are comparable;
    # a graph is built again only when a size moves
    vocabs, sizes = {}, {}
    for kind in ("node", "edge"):
        if any(getattr(g, f"{kind}_labels") is not None for g in graphs):
            if d.get(f"{kind}_label_names"):
                vocabs[kind] = LabelVocabulary(kind, tuple(d[f"{kind}_label_names"]))
                sizes[kind] = vocabs[kind].size
            else:
                sizes[kind] = max(getattr(g, f"num_{kind}_labels") or 0 for g in graphs)
    graphs = [g if all(getattr(g, f"num_{kind}_labels") == k for kind, k in sizes.items())
              else Graph(g.node_count, g.edges, node_labels=g.node_labels, edge_labels=g.edge_labels,
                         num_node_labels=sizes.get("node", g.num_node_labels),
                         num_edge_labels=sizes.get("edge", g.num_edge_labels))
              for g in graphs]
    return GraphDataset(graphs, classes, node_vocab=vocabs.get("node"), edge_vocab=vocabs.get("edge"))


# --- label distribution matrices -------------------------------------------
#
# These back the label-consistency penalties of the alignment. Each returns a
# |V| x K matrix whose row u is a probability vector over the vocabulary;
# a node with nothing to count (no incident edges, empty neighborhood) gets
# the uniform row so downstream cross-entropies stay finite. Counts are
# integers held in floats, so each row is exactly its counts over their total,
# as a per-node loop computes it.

def _require_node_labels(g):
    if g.node_labels is None:
        raise GraphError("graph has no node labels")


def _require_edge_labels(g):
    if g.edge_labels is None:
        raise GraphError("graph has no edge labels")


def _edge_arrays(g):
    """Endpoint arrays (a, b) of the sorted edge list."""
    ends = np.array(g.edges, dtype=int).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def edge_pair_sum(g, f, m):
    """Sum over the edges (u, v) of g of f(m[u, v]) + f(m[v, u]), added in
    edge order to 0.0, the order of a Python loop over the edges. f runs
    elementwise on the gathered entries; np.sum's pairwise order would change
    the last bits."""
    a, b = _edge_arrays(g)
    pairs = f(m[a, b]) + f(m[b, a])
    return float(np.add.accumulate(np.concatenate(([0.0], pairs)))[-1])


def _label_rows(rows, labels, node_count, k):
    """Count each (row, label) occurrence into |V| x k, then scale every row
    to sum to one; rows with no occurrence are uniform."""
    counts = np.bincount(rows * k + labels, minlength=node_count * k)
    counts = counts.reshape(node_count, k).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    out = np.full(counts.shape, 1.0 / k)
    np.divide(counts, totals, out=out, where=totals > 0)
    return out


def node_label_onehot(g):
    """|V| x K one-hot matrix of node labels."""
    _require_node_labels(g)
    m = np.zeros((g.node_count, g.num_node_labels))
    m[np.arange(g.node_count), list(g.node_labels)] = 1.0
    return m


def edge_attr_matrix(g):
    """|V| x K matrix; row u holds the label frequencies of the edges incident
    to u."""
    _require_edge_labels(g)
    a, b = _edge_arrays(g)
    labels = np.array(g.edge_labels, dtype=int)
    return _label_rows(np.concatenate([a, b]), np.concatenate([labels, labels]),
                       g.node_count, g.num_edge_labels)


def neighborhood_attr_matrix(g, kind):
    """|V| x K matrix of label frequencies over each node's neighborhood.

    kind="node": row u counts the labels of the neighbors of u.
    kind="edge": row u counts the labels of the edges with at least one
    endpoint in N(u), i.e. the edges reachable within two hops of u.
    """
    a, b = _edge_arrays(g)
    if kind == "node":
        _require_node_labels(g)
        labels = np.array(g.node_labels, dtype=int)
        return _label_rows(np.concatenate([a, b]), np.concatenate([labels[b], labels[a]]),
                           g.node_count, g.num_node_labels)
    if kind == "edge":
        _require_edge_labels(g)
        adjacent = np.zeros((g.node_count, g.node_count), dtype=bool)
        adjacent[a, b] = adjacent[b, a] = True
        # entry (u, i): edge i has an endpoint in N(u)
        rows, edge_idx = np.nonzero(adjacent[:, a] | adjacent[:, b])
        return _label_rows(rows, np.array(g.edge_labels, dtype=int)[edge_idx],
                           g.node_count, g.num_edge_labels)
    raise GraphError(f"kind must be 'node' or 'edge', got {kind!r}")
