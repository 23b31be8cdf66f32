"""Loader for the TU Dortmund benchmark text format (MUTAG, PTC, NCI1, D&D, ...).

A dataset directory <dir>/ holds files named <DS>_A.txt, <DS>_graph_indicator.txt,
<DS>_graph_labels.txt and optionally <DS>_node_labels.txt / <DS>_edge_labels.txt.
Node ids in the files are 1-indexed and global across the whole dataset; edges
are comma-separated pairs, normally listed in both directions.
"""

import os
import warnings

from .graphs import (Graph, GraphDataset, GraphError, GraphFormatError, LabelVocabulary,
                     canonical_edge)


class DatasetIngestionError(ValueError):
    """A mandatory dataset file is missing or unreadable."""


def _dataset_prefix(directory):
    names = [n for n in os.listdir(directory) if n.endswith("_A.txt")]
    if not names:
        raise DatasetIngestionError(f"no <DS>_A.txt file found in {directory}")
    if len(names) > 1:
        raise DatasetIngestionError(f"multiple <DS>_A.txt files in {directory}: {sorted(names)}")
    return names[0][: -len("_A.txt")]


def _read_lines(path, required):
    if not os.path.isfile(path):
        if required:
            raise DatasetIngestionError(f"missing mandatory file {path}")
        return None
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def _ints(path, lines, low=None):
    """Parse one integer per line; GraphFormatError names file:line."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        try:
            out.append(int(line))
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: not an integer: {line!r}") from None
        if low is not None and out[-1] < low:
            raise GraphFormatError(f"{path}:{lineno}: expected an integer >= {low}, got {line!r}")
    return out


def _dense_ids(values):
    """({value: dense id}, names in id order), ids ordered by sorted value."""
    distinct = sorted(set(values))
    return {v: i for i, v in enumerate(distinct)}, tuple(str(v) for v in distinct)


def load_tu_dataset(directory):
    """Load a TU-format benchmark directory into a GraphDataset.

    Node ids are re-indexed to dense 0-based ids per graph, each undirected
    edge is stored once, self-loops are dropped (with a warning), and label
    values are remapped to dense vocabularies.
    """
    prefix = _dataset_prefix(directory)
    path = lambda suffix: os.path.join(directory, f"{prefix}_{suffix}.txt")

    indicator = _read_lines(path("graph_indicator"), required=True)
    graph_labels = _read_lines(path("graph_labels"), required=True)
    edge_lines = _read_lines(path("A"), required=True)
    node_label_lines = _read_lines(path("node_labels"), required=False)
    edge_label_lines = _read_lines(path("edge_labels"), required=False)

    # graph_indicator: line i (1-based) holds the graph id of global node i
    graph_of_node = _ints(path("graph_indicator"), indicator, low=1)
    num_graphs = max(graph_of_node)

    # per-graph dense local ids, in global-id order
    local_id = []
    counts = [0] * (num_graphs + 1)
    for gid in graph_of_node:
        local_id.append(counts[gid])
        counts[gid] += 1
    if 0 in counts[1:]:
        raise GraphFormatError(f"{path('graph_indicator')}: graph id {counts.index(0, 1)} "
                               f"has no nodes (graph ids must run 1..{num_graphs})")

    raw_node_labels = None
    if node_label_lines is not None:
        if len(node_label_lines) != len(graph_of_node):
            raise GraphFormatError(f"{path('node_labels')}: expected {len(graph_of_node)} lines, "
                                   f"got {len(node_label_lines)}")
        raw_node_labels = _ints(path("node_labels"), node_label_lines)

    if edge_label_lines is not None and len(edge_label_lines) != len(edge_lines):
        raise GraphFormatError(f"{path('edge_labels')}: expected {len(edge_lines)} lines, "
                               f"got {len(edge_label_lines)}")
    edge_label_ints = _ints(path("edge_labels"), edge_label_lines or [])

    # collect undirected edges per graph in first-seen order, dropping
    # duplicates and self-loops; Graph sorts them
    edges_per_graph = [dict() for _ in range(num_graphs + 1)]  # canonical local edge -> raw label
    self_loops = 0
    for lineno, line in enumerate(edge_lines, start=1):
        parts = line.replace(" ", "").split(",")
        if len(parts) != 2:
            raise GraphFormatError(f"{path('A')}:{lineno}: expected 'i, j', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{path('A')}:{lineno}: non-integer node id in {line!r}")
        if not (1 <= a <= len(graph_of_node) and 1 <= b <= len(graph_of_node)):
            raise GraphFormatError(f"{path('A')}:{lineno}: node id out of range in {line!r}")
        ga, gb = graph_of_node[a - 1], graph_of_node[b - 1]
        if ga != gb:
            raise GraphFormatError(f"{path('A')}:{lineno}: edge ({a}, {b}) crosses graphs {ga} and {gb}")
        if a == b:
            self_loops += 1
            continue
        e = canonical_edge(local_id[a - 1], local_id[b - 1])
        label = edge_label_ints[lineno - 1] if edge_label_lines is not None else None
        prev = edges_per_graph[ga].get(e)
        if prev is not None and label is not None and prev != label:
            raise GraphFormatError(f"{path('A')}:{lineno}: conflicting labels for edge ({a}, {b})")
        edges_per_graph[ga][e] = label
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s) while loading {directory}")

    node_vocab = edge_vocab = labels_per_graph = None
    if raw_node_labels is not None:
        node_ids, names = _dense_ids(raw_node_labels)
        node_vocab = LabelVocabulary("node", names)
        # node labels per graph in file order, gathered in one pass over the nodes
        labels_per_graph = [[] for _ in range(num_graphs + 1)]
        for gid, label in zip(graph_of_node, raw_node_labels):
            labels_per_graph[gid].append(node_ids[label])
    if edge_label_lines is not None:
        edge_ids, names = _dense_ids(lab for edges in edges_per_graph for lab in edges.values())
        edge_vocab = LabelVocabulary("edge", names)

    graphs = []
    for gid in range(1, num_graphs + 1):
        edges = edges_per_graph[gid]
        graphs.append(Graph(counts[gid], edges,
                            node_labels=labels_per_graph[gid] if node_vocab else None,
                            edge_labels=[edge_ids[l] for l in edges.values()] if edge_vocab else None,
                            num_node_labels=node_vocab.size if node_vocab else None,
                            num_edge_labels=edge_vocab.size if edge_vocab else None))

    class_ids, class_names = _dense_ids(raw := _ints(path("graph_labels"), graph_labels))
    classes = [class_ids[c] for c in raw]
    if len(classes) != num_graphs:
        raise GraphFormatError(f"{path('graph_labels')}: expected {num_graphs} lines, got {len(classes)}")
    return GraphDataset(graphs, classes, node_vocab=node_vocab, edge_vocab=edge_vocab,
                        class_names=class_names)


def save_tu_dataset(dataset, directory, name="DS"):
    """Write a GraphDataset back out in TU text format (both edge directions).

    The format holds only datasets of at least one graph, each with at least
    one node, in which every graph or none carries node labels, and likewise
    edge labels; GraphError names the first graph that breaks this."""
    graphs = dataset.graphs
    if not graphs:
        raise GraphError("a TU dataset needs at least one graph")
    for i, g in enumerate(graphs):
        if g.node_count == 0:
            raise GraphError(f"graph {i} has no nodes, which the TU format cannot hold")
        for kind in ("node_labels", "edge_labels"):
            if (getattr(g, kind) is None) != (getattr(graphs[0], kind) is None):
                raise GraphError(f"graph {i} and graph 0 differ in carrying "
                                 f"{kind.replace('_', ' ')}; TU labels every graph or none")
    os.makedirs(directory, exist_ok=True)
    path = lambda suffix: os.path.join(directory, f"{name}_{suffix}.txt")

    a_lines, indicator, edge_label_out, node_label_out = [], [], [], []
    offset = 0
    for gid, g in enumerate(graphs, start=1):
        indicator.extend([str(gid)] * g.node_count)
        for idx, (u, v) in enumerate(g.edges):
            for a, b in ((u, v), (v, u)):
                a_lines.append(f"{offset + a + 1}, {offset + b + 1}")
                if g.edge_labels is not None:
                    edge_label_out.append(str(g.edge_labels[idx]))
        if g.node_labels is not None:
            node_label_out.extend(str(l) for l in g.node_labels)
        offset += g.node_count

    with open(path("A"), "w") as f:
        f.write("\n".join(a_lines) + "\n")
    with open(path("graph_indicator"), "w") as f:
        f.write("\n".join(indicator) + "\n")
    with open(path("graph_labels"), "w") as f:
        f.write("\n".join(str(c) for c in dataset.graph_classes) + "\n")
    if graphs[0].node_labels is not None:
        with open(path("node_labels"), "w") as f:
            f.write("\n".join(node_label_out) + "\n")
    if graphs[0].edge_labels is not None:
        with open(path("edge_labels"), "w") as f:
            f.write("\n".join(edge_label_out) + "\n")
