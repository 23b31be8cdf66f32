import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from graphdiv.graphs import Graph, GraphDataset, GraphError, GraphFormatError
from graphdiv.tu import DatasetIngestionError, load_tu_dataset, save_tu_dataset


def write_fixture(d, **overrides):
    """Two graphs: a labeled triangle (nodes 1-3) and a labeled edge (nodes 4-5)."""
    files = {
        "TOY_A.txt": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n",
        "TOY_graph_indicator.txt": "1\n1\n1\n2\n2\n",
        "TOY_graph_labels.txt": "1\n-1\n",
        "TOY_node_labels.txt": "7\n7\n8\n8\n7\n",
        "TOY_edge_labels.txt": "0\n0\n1\n1\n0\n0\n1\n1\n",
    }
    files.update(overrides)
    for fname, text in files.items():
        if text is None:
            continue
        with open(os.path.join(d, fname), "w") as f:
            f.write(text)


def test_load_basic(tmp_path):
    write_fixture(tmp_path)
    ds = load_tu_dataset(tmp_path)
    assert len(ds) == 2
    assert ds.graphs[0].node_count == 3
    assert ds.graphs[0].edges == ((0, 1), (0, 2), (1, 2))
    assert ds.graphs[1].edges == ((0, 1),)
    # raw classes {1, -1} remapped densely by sorted value: -1 -> 0, 1 -> 1
    assert ds.graph_classes == [1, 0]
    assert ds.class_names == ("-1", "1")
    # raw node labels {7, 8} -> {0, 1}
    assert ds.graphs[0].node_labels == (0, 0, 1)
    assert ds.graphs[1].node_labels == (1, 0)
    assert ds.node_vocab.names == ("7", "8")
    assert ds.edge_vocab.size == 2


def test_interleaved_nodes_keep_label_order(tmp_path):
    # nodes of the two graphs alternate in the files; each graph takes its
    # labels in file order
    write_fixture(tmp_path, **{
        "TOY_A.txt": "1, 3\n3, 1\n3, 5\n5, 3\n2, 4\n4, 2\n",
        "TOY_graph_indicator.txt": "1\n2\n1\n2\n1\n",
        "TOY_node_labels.txt": "7\n8\n9\n7\n8\n",
        "TOY_edge_labels.txt": None,
    })
    ds = load_tu_dataset(tmp_path)
    assert ds.graphs[0].node_labels == (0, 2, 1)
    assert ds.graphs[1].node_labels == (1, 0)
    assert ds.graphs[0].edges == ((0, 1), (1, 2))
    assert ds.graphs[1].edges == ((0, 1),)


def test_load_without_optional_labels(tmp_path):
    write_fixture(tmp_path, **{"TOY_node_labels.txt": None, "TOY_edge_labels.txt": None})
    ds = load_tu_dataset(tmp_path)
    assert ds.graphs[0].node_labels is None
    assert ds.graphs[0].edge_labels is None


def test_missing_mandatory_file(tmp_path):
    write_fixture(tmp_path)
    os.unlink(tmp_path / "TOY_graph_indicator.txt")
    with pytest.raises(DatasetIngestionError):
        load_tu_dataset(tmp_path)


def test_no_adjacency_file(tmp_path):
    with pytest.raises(DatasetIngestionError):
        load_tu_dataset(tmp_path)


def test_bad_edge_line_reports_file_and_line(tmp_path):
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 2\nbogus\n", "TOY_edge_labels.txt": None})
    with pytest.raises(GraphFormatError) as exc:
        load_tu_dataset(tmp_path)
    assert "TOY_A.txt:2" in str(exc.value)


@pytest.mark.parametrize("graph_id", ["-1", "0"])
def test_graph_id_below_one_rejected(tmp_path, graph_id):
    # a 3-node path (graph 1) and an edge in graph -1 or 0: ids start at 1,
    # so neither may merge into the last graph or vanish
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n",
                               "TOY_graph_indicator.txt": f"1\n1\n1\n{graph_id}\n{graph_id}\n",
                               "TOY_graph_labels.txt": "1\n",
                               "TOY_edge_labels.txt": None})
    with pytest.raises(GraphFormatError) as exc:
        load_tu_dataset(tmp_path)
    assert "TOY_graph_indicator.txt:4" in str(exc.value)


def test_graph_id_gap_rejected(tmp_path):
    # graph ids 1 and 3 with no node in graph 2: the gap must not load as an
    # empty graph that only fails later, without naming the file
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 2\n2, 1\n3, 4\n4, 3\n",
                               "TOY_graph_indicator.txt": "1\n1\n3\n3\n",
                               "TOY_graph_labels.txt": "1\n-1\n1\n",
                               "TOY_node_labels.txt": "7\n8\n7\n8\n",
                               "TOY_edge_labels.txt": None})
    with pytest.raises(GraphFormatError, match=r"TOY_graph_indicator\.txt: graph id 2 "):
        load_tu_dataset(tmp_path)


@pytest.mark.parametrize("fname, text, line", [
    ("TOY_node_labels.txt", "7\n7\nC\n8\n7\n", 3),
    ("TOY_edge_labels.txt", "0\n0\n1\n1\n0\nx\n1\n1\n", 6),
    ("TOY_graph_labels.txt", "1\nactive\n", 2),
])
def test_non_integer_label_reports_file_and_line(tmp_path, fname, text, line):
    write_fixture(tmp_path, **{fname: text})
    with pytest.raises(GraphFormatError) as exc:
        load_tu_dataset(tmp_path)
    assert f"{fname}:{line}" in str(exc.value)


def test_cross_graph_edge_rejected(tmp_path):
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 4\n4, 1\n", "TOY_edge_labels.txt": None})
    with pytest.raises(GraphFormatError) as exc:
        load_tu_dataset(tmp_path)
    assert "crosses graphs" in str(exc.value)


def test_out_of_range_node_id(tmp_path):
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 9\n", "TOY_edge_labels.txt": None})
    with pytest.raises(GraphFormatError):
        load_tu_dataset(tmp_path)


def test_self_loop_dropped_with_warning(tmp_path):
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 1\n1, 2\n2, 1\n4, 5\n5, 4\n",
                               "TOY_edge_labels.txt": "0\n0\n0\n1\n1\n"})
    with pytest.warns(UserWarning, match="self-loop"):
        ds = load_tu_dataset(tmp_path)
    assert ds.graphs[0].edges == ((0, 1),)


def test_conflicting_edge_labels(tmp_path):
    write_fixture(tmp_path, **{"TOY_A.txt": "1, 2\n2, 1\n",
                               "TOY_edge_labels.txt": "0\n1\n"})
    with pytest.raises(GraphFormatError) as exc:
        load_tu_dataset(tmp_path)
    assert "conflicting" in str(exc.value)


def test_roundtrip_identity(tmp_path):
    write_fixture(tmp_path)
    ds = load_tu_dataset(tmp_path)
    out = tmp_path / "out"
    save_tu_dataset(ds, out, name="RT")
    back = load_tu_dataset(out)
    assert back.graph_classes == ds.graph_classes
    for a, b in zip(back.graphs, ds.graphs):
        assert a == b


def test_save_then_load_unlabeled(tmp_path):
    ds = GraphDataset([Graph(3, [(0, 1), (1, 2)]), Graph(2, [(0, 1)])], [0, 1])
    save_tu_dataset(ds, tmp_path, name="U")
    back = load_tu_dataset(tmp_path)
    assert [g.edges for g in back.graphs] == [g.edges for g in ds.graphs]


@pytest.mark.parametrize("graphs, message", [
    ([], "at least one graph"),
    ([Graph(2, [(0, 1)]), Graph(0, [])], "graph 1 has no nodes"),
    ([Graph(2, [(0, 1)], node_labels=[0, 1]), Graph(3, [(0, 1)])],
     "graph 1 and graph 0 differ in carrying node labels"),
    ([Graph(2, [(0, 1)]), Graph(2, [(0, 1)], edge_labels=[0])],
     "graph 1 and graph 0 differ in carrying edge labels"),
], ids=["no-graph", "empty-graph", "some-node-labels", "some-edge-labels"])
def test_save_rejects_what_the_format_cannot_hold(tmp_path, graphs, message):
    # each of these was written without complaint and then failed to load
    # ("expected 1 lines, got 2", "expected 6 lines, got 3", ...)
    with pytest.raises(GraphError, match=message):
        save_tu_dataset(GraphDataset(graphs, [0] * len(graphs)), tmp_path)
    assert not any(tmp_path.iterdir())


def _dense(values):
    """values relabeled by rank, so that the ids in use are 0..k-1."""
    rank = {v: k for k, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


@st.composite
def datasets(draw):
    """0-4 graphs of 0-5 nodes carrying node and edge labels on every graph,
    on none, or (mixed) on some; label and class ids dense over the dataset."""
    mixed = draw(st.booleans())
    kinds = [draw(st.booleans()), draw(st.booleans())]
    specs = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        node, edge = [draw(st.booleans()) if mixed else k for k in kinds]
        specs.append((n, edges, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
                      if node else None,
                      draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
                      if edge else None))
    node_ids = iter(_dense([l for *_, nl, _ in specs for l in nl or []]))
    edge_ids = iter(_dense([l for *_, el in specs for l in el or []]))
    graphs = [Graph(n, edges, node_labels=None if nl is None else [next(node_ids) for _ in nl],
                    edge_labels=None if el is None else [next(edge_ids) for _ in el])
              for n, edges, nl, el in specs]
    classes = _dense(draw(st.lists(st.integers(0, 2), min_size=len(graphs), max_size=len(graphs))))
    return GraphDataset(graphs, classes)


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_saved_dataset_loads_back(dataset):
    # save_tu_dataset refuses exactly what the format cannot hold, and
    # whatever it writes loads back as equal graphs and classes
    graphs = dataset.graphs
    holdable = (graphs and all(g.node_count for g in graphs)
                and all(len({getattr(g, kind) is None for g in graphs}) == 1
                        for kind in ("node_labels", "edge_labels")))
    with tempfile.TemporaryDirectory() as d:
        if not holdable:
            with pytest.raises(GraphError):
                save_tu_dataset(dataset, d)
            return
        save_tu_dataset(dataset, d)
        back = load_tu_dataset(d)
    # TU holds one vocabulary per dataset: each graph loads back with the
    # dataset's vocabulary sizes, not its own
    sizes = {kind: 1 + max((l for g in graphs for l in getattr(g, f"{kind}_labels") or ()),
                           default=-1) for kind in ("node", "edge")}
    assert back.graphs == [
        Graph(g.node_count, g.edges, g.node_labels, g.edge_labels,
              num_node_labels=None if g.node_labels is None else sizes["node"],
              num_edge_labels=None if g.edge_labels is None else sizes["edge"])
        for g in graphs]
    assert back.graph_classes == dataset.graph_classes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_order_never_changes_a_graph(data):
    # a labeled graph given its edges in any order and orientation, through
    # Graph, through a JSON dict whose edge_labels list yet another order, or
    # through a TU directory whose edge lines (with their label lines) are
    # shuffled, is the same graph with the same digest; JSON once gave each
    # edge the label of the edge of its sorted rank
    n = data.draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    node_labels = _dense(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    edge_labels = _dense(data.draw(st.lists(st.integers(0, 3), min_size=len(edges),
                                            max_size=len(edges))))
    g = Graph(n, edges, node_labels=node_labels, edge_labels=edge_labels)

    def shuffled(items):
        return [items[i] for i in data.draw(st.permutations(range(len(items))))]

    flip = lambda e: data.draw(st.sampled_from([tuple(e), tuple(e[::-1])]))
    given_edges = shuffled([(flip(e), label) for e, label in zip(edges, edge_labels)])
    by_graph = Graph(n, [e for e, _ in given_edges], node_labels=node_labels,
                     edge_labels=[label for _, label in given_edges])
    by_json = Graph.from_json_dict({
        "nodes": n, "edges": [list(e) for e, _ in given_edges], "node_labels": node_labels,
        "edge_labels": [[*flip(e), label] for e, label in shuffled(given_edges)]})
    with tempfile.TemporaryDirectory() as d:
        save_tu_dataset(GraphDataset([g], [0]), d)
        paths = [os.path.join(d, f"DS_{kind}.txt") for kind in ("A", "edge_labels")]
        columns = []
        for path in paths:
            with open(path) as f:
                columns.append(f.read().splitlines())
        for path, column in zip(paths, zip(*shuffled(list(zip(*columns))))):
            with open(path, "w") as f:
                f.write("\n".join(column) + "\n")
        by_tu = load_tu_dataset(d).graphs[0]
    for h in (by_graph, by_json, by_tu):
        assert (h, h.edge_labels, h.digest) == (g, g.edge_labels, g.digest)
