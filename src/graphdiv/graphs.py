"""Graph data model, JSON serialization, and label-distribution matrices."""

from dataclasses import dataclass, field
from functools import cached_property

import hashlib
import json
import operator
import os
import tempfile

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or query."""


class GraphFormatError(ValueError):
    """Malformed graph file contents."""


def canonical_edge(u, v):
    return (u, v) if u < v else (v, u)


def _int(value, what):
    """value as an int; a bool (JSON's true and false) is not one."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GraphError(f"{what} must be an integer, got {value!r}")


class Graph:
    """An undirected graph with dense integer node ids and optional categorical labels.

    Edges, given in any order, are stored once as sorted (u, v) tuples, each
    label kept with its edge; self-loops are rejected. Instances are immutable
    by convention, so they are safe to share across parallel workers.
    """

    def __init__(self, node_count, edges, node_labels=None, edge_labels=None,
                 num_node_labels=None, num_edge_labels=None):
        self.node_count = node_count = _int(node_count, "node count")
        if node_count < 0:
            raise GraphError("node_count must be non-negative")
        index = {}  # canonical edge -> its position in the input
        for u, v in edges:
            u, v = _int(u, "node id"), _int(v, "node id")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"edge ({u}, {v}) references node outside 0..{node_count - 1}")
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            e = canonical_edge(u, v)
            if e in index:
                raise GraphError(f"duplicate edge {e}")
            index[e] = len(index)
        self.edges = tuple(sorted(index))

        if node_labels is not None:
            node_labels = tuple(_int(l, "node label") for l in node_labels)
            if len(node_labels) != node_count:
                raise GraphError("node_labels must cover every node")
        if edge_labels is not None:
            raw = [_int(l, "edge label") for l in edge_labels]
            if len(raw) != len(self.edges):
                raise GraphError("edge_labels must cover every edge")
            edge_labels = tuple(raw[index[e]] for e in self.edges)
        self.node_labels, self.edge_labels = node_labels, edge_labels
        for kind, labels, k in (("node", node_labels, num_node_labels),
                                ("edge", edge_labels, num_edge_labels)):
            if labels and min(labels) < 0:
                raise GraphError(f"negative {kind} label id")
            k = (_int(k, f"num_{kind}_labels") if k is not None
                 else None if labels is None else max(labels, default=-1) + 1)
            if labels and k <= max(labels):
                raise GraphError(f"num_{kind}_labels must exceed every {kind} label id")
            setattr(self, f"num_{kind}_labels", k)

    @property
    def edge_count(self):
        return len(self.edges)

    @cached_property
    def digest(self):
        """SHA-256 of the JSON form, vocabulary sizes included; once per instance."""
        return hashlib.sha256(json.dumps(self.to_json_dict()).encode()).hexdigest()

    def adjacency_matrix(self):
        """Dense 0/1 adjacency, float64, zero diagonal."""
        a = np.zeros((self.node_count, self.node_count))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def __eq__(self, other):
        """Equal digests: the same nodes, edges, labels and vocabulary sizes."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

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
        """Inverse of to_json_dict; edge_labels entries are keyed by endpoints."""
        try:
            node_count = d["nodes"]
            edges = [tuple(e) for e in d["edges"]]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"graph JSON missing required field: {exc}") from exc
        edge_labels = None
        if "edge_labels" in d:
            by_edge, present = {}, {canonical_edge(u, v) for u, v in edges}
            for u, v, l in d["edge_labels"]:
                u, v = _int(u, "node id"), _int(v, "node id")
                if canonical_edge(u, v) not in present:
                    raise GraphFormatError(f"edge_labels entry [{u}, {v}, {l}] is not an edge")
                if by_edge.setdefault(canonical_edge(u, v), l) != l:
                    raise GraphFormatError(f"conflicting labels for edge ({u}, {v})")
            try:
                edge_labels = [by_edge[canonical_edge(u, v)] for u, v in edges]
            except KeyError as exc:
                raise GraphFormatError(f"edge_labels missing entry for edge {exc}") from None
        # vocabulary sizes are absent from files written before they were
        # stored; the labels then imply them
        return cls(node_count, edges, node_labels=d.get("node_labels"), edge_labels=edge_labels,
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


def _each_graph(path, items, build):
    """[build(item) for item in items]; a bad graph's error names file and index."""
    graphs = []
    for i, item in enumerate(items):
        try:
            graphs.append(build(item))
        except (ValueError, TypeError) as exc:
            raise GraphFormatError(f"{path}: graph {i}: {exc}") from None
    return graphs


def load_dataset_json(path):
    try:
        with open(path) as f:
            d = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise GraphFormatError(f"{path}: not a JSON dataset: {exc}") from None
    try:
        graphs = _each_graph(path, d["graphs"], Graph.from_json_dict)
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
    graphs = _each_graph(path, graphs, lambda g: g if all(
        getattr(g, f"num_{kind}_labels") == k for kind, k in sizes.items())
        else Graph(g.node_count, g.edges, node_labels=g.node_labels, edge_labels=g.edge_labels,
                   num_node_labels=sizes.get("node", g.num_node_labels),
                   num_edge_labels=sizes.get("edge", g.num_edge_labels)))
    return GraphDataset(graphs, classes, node_vocab=vocabs.get("node"), edge_vocab=vocabs.get("edge"))


# --- label distribution matrices -------------------------------------------
#
# These back the label-consistency penalties of the alignment. Each returns a
# |V| x K matrix whose row u is a probability vector over the vocabulary;
# a node with nothing to count (no incident edges, empty neighborhood) gets
# the uniform row so downstream cross-entropies stay finite. Counts are
# integers held in floats, so each row is exactly its counts over their total,
# as a per-node loop computes it.

def _labels(g, kind):
    """(label ids as an int array, vocabulary size) of g's node or edge
    labels; GraphError if g carries none."""
    labels = getattr(g, f"{kind}_labels")
    if labels is None:
        raise GraphError(f"graph has no {kind} labels")
    return np.array(labels, dtype=int), getattr(g, f"num_{kind}_labels")


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


def _label_rows(g, rows, labels, k):
    """Count each (row, label) occurrence into |V| x k, then scale every row
    to sum to one; rows with no occurrence are uniform (k = 0 gives |V| x 0)."""
    counts = np.bincount(rows * k + labels, minlength=g.node_count * k)
    counts = counts.reshape(g.node_count, k).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    out = np.full(counts.shape, 1.0 / max(k, 1))
    np.divide(counts, totals, out=out, where=totals > 0)
    return out


def node_label_onehot(g):
    """|V| x K one-hot matrix of node labels: each row counts its own label
    once, so every entry is exactly 0.0 or 1.0."""
    labels, k = _labels(g, "node")
    return _label_rows(g, np.arange(g.node_count), labels, k)


def edge_attr_matrix(g):
    """|V| x K matrix; row u holds the label frequencies of the edges incident
    to u."""
    labels, k = _labels(g, "edge")
    a, b = _edge_arrays(g)
    return _label_rows(g, np.concatenate([a, b]), np.concatenate([labels, labels]), k)


def neighborhood_attr_matrix(g, kind):
    """|V| x K matrix of label frequencies over each node's neighborhood.

    kind="node": row u counts the labels of the neighbors of u.
    kind="edge": row u counts the labels of the edges with at least one
    endpoint in N(u), i.e. the edges reachable within two hops of u.
    """
    if kind not in ("node", "edge"):
        raise GraphError(f"kind must be 'node' or 'edge', got {kind!r}")
    labels, k = _labels(g, kind)
    a, b = _edge_arrays(g)
    if kind == "node":
        return _label_rows(g, np.concatenate([a, b]), np.concatenate([labels[b], labels[a]]), k)
    adjacent = np.zeros((g.node_count, g.node_count), dtype=bool)
    adjacent[a, b] = adjacent[b, a] = True
    # entry (u, i): edge i has an endpoint in N(u)
    rows, edge_idx = np.nonzero(adjacent[:, a] | adjacent[:, b])
    return _label_rows(g, rows, labels[edge_idx], k)
