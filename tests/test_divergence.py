import numpy as np
import pytest

from graphdiv import nn
from graphdiv.attention import AttentionPair, AugmentedEncoder, train_attention
from graphdiv.divergence import (DivergenceTable, distance_csv, distance_matrix,
                                 embed_all, raw_divergence, symmetrize,
                                 table_from_csv, table_to_csv, train_source_encoders)
from graphdiv.encoder import TrainConfig, positive_log_loss, train_encoder
from graphdiv.generators import make_ring, random_graph


def test_untrained_divergence_oracle(tiny_cfg):
    # zero source weights + uniform attention predict 1/2 for every potential
    # edge, so the raw score is 2 * E_T * ln 2 regardless of graph sizes
    src = train_encoder(random_graph(5, 0.5, 1), tiny_cfg)
    for p in src.params().values():
        p[...] = 0.0
    target = make_ring(7)
    ae = AugmentedEncoder(src, AttentionPair(np.zeros((5, 7)), np.zeros((7, 5))), target)
    assert raw_divergence(ae) == pytest.approx(2 * 7 * np.log(2))


def test_raw_divergence_nonnegative(tiny_cfg):
    src = train_encoder(random_graph(6, 0.5, 2), tiny_cfg)
    ae = train_attention(src, random_graph(5, 0.5, 3), tiny_cfg, target_graph_id=1)
    assert raw_divergence(ae) >= 0.0


def test_normalized_and_symmetric_are_trivial_arithmetic():
    # a cell is the target's raw divergence minus the source's own log-loss,
    # to the bit, and is allowed to go negative; symmetrize adds the transpose
    graphs = [random_graph(5, 0.5, s) for s in (5, 6)]
    cfg = quick_cfg()
    table = embed_all(graphs, graphs, cfg, restarts=1)
    src = train_encoder(graphs[1], cfg, graph_id=1)
    ae = train_attention(src, graphs[0], cfg, target_graph_id=0)
    assert table.values[0, 1] == raw_divergence(ae) - positive_log_loss(src)
    assert table.self_losses[1] == positive_log_loss(src)
    assert symmetrize(table).values[0, 1] == table.values[0, 1] + table.values[1, 0]


def test_kernel_value_is_squared_distance():
    d = distance_matrix(np.array([[1.0, 2.0], [4.0, 6.0], [1.0, 2.0]]))
    assert d[0, 1] == pytest.approx(25.0)
    assert d[0, 2] == 0.0


def test_distance_matrix_properties():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    d = distance_matrix(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    assert d[1, 3] == pytest.approx(np.sum((x[1] - x[3]) ** 2), rel=1e-9)


def test_unit_rows():
    from graphdiv.divergence import unit_rows

    x = np.array([[3.0, 4.0], [0.0, 0.0], [-2.0, 0.0]])
    u = unit_rows(x)
    assert np.allclose(u[0], [0.6, 0.8])
    assert np.array_equal(u[1], [0.0, 0.0])
    assert np.allclose(np.linalg.norm(u[[0, 2]], axis=1), 1.0)


def quick_cfg():
    return TrainConfig(embed_dim=4, encoding_epochs=60, scoring_epochs=60,
                       learning_rate=5e-2, rng_seed=0)


def test_embed_all_shapes_and_self_column(tmp_path):
    graphs = [random_graph(6, 0.5, s) for s in (0, 1, 2)]
    cfg = quick_cfg()
    table = embed_all(graphs, graphs, cfg, restarts=1)
    assert table.values.shape == (3, 3)
    assert not table.errors
    assert np.all(np.isfinite(table.values))
    assert table.self_losses.shape == (3,)
    # normalization subtracts the source self-loss, so a well-aligned self
    # cell sits near zero while off-diagonal cells are typically larger
    assert np.all(table.self_losses > 0)


def test_embed_all_deterministic_across_workers():
    graphs = [random_graph(5, 0.5, s) for s in (3, 4)]
    cfg = quick_cfg()
    t1 = embed_all(graphs, graphs, cfg, restarts=1)
    t2 = embed_all(graphs, graphs, cfg, workers=2, restarts=1)
    assert np.array_equal(t1.values, t2.values)


def test_embed_all_validates_inputs():
    with pytest.raises(ValueError):
        embed_all([], [random_graph(4, 0.5, 0)], quick_cfg())


def test_embed_all_cell_resume(tmp_path):
    graphs = [random_graph(5, 0.5, s) for s in (5, 6)]
    cfg = quick_cfg()
    cell_dir = tmp_path / "cells"
    t1 = embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=1)
    files = sorted(cell_dir.iterdir())
    assert len(files) == 4
    # poison one cached cell; resume must trust the cache, proving reuse
    import json
    with open(files[0]) as f:
        cell = json.load(f)
    cell["raw"] = 123.5
    with open(files[0], "w") as f:
        json.dump(cell, f)
    t2 = embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=1)
    assert not np.array_equal(t1.values, t2.values)
    assert np.isclose(t2.values, 123.5 - t2.self_losses[None, :]).any()


def test_cell_cache_keyed_by_restarts(tmp_path):
    # a rerun with more restarts must not reuse cells fitted with fewer
    graphs = [random_graph(5, 0.5, s) for s in (5, 6)]
    cfg = quick_cfg()
    cell_dir = tmp_path / "cells"
    embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=1)
    assert len(list(cell_dir.iterdir())) == 4
    three = embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=3)
    assert len(list(cell_dir.iterdir())) == 8
    assert np.array_equal(three.values, embed_all(graphs, graphs, cfg, restarts=3).values)


def test_embed_all_raises_on_label_vocab_mismatch():
    # a programmer error is not a numeric failure: it must not become a NaN cell
    from graphdiv.graphs import Graph, GraphError

    a = Graph(4, [(0, 1), (1, 2), (2, 3)], node_labels=[0, 1, 0, 1], num_node_labels=2)
    b = Graph(4, [(0, 1), (1, 2), (2, 3)], node_labels=[0, 1, 2, 0], num_node_labels=3)
    with pytest.raises(GraphError, match="vocabularies differ"):
        embed_all([a], [a, b], quick_cfg(), restarts=1)


def test_embed_all_failure_isolated(monkeypatch):
    # a cell whose attention training raises twice is recorded as NaN + error
    # without aborting the remaining cells
    import graphdiv.divergence as dv

    calls = {"n": 0}
    real = dv.train_attention

    def flaky(source, target, cfg, target_graph_id=None, restarts=1):
        calls["n"] += 1
        if str(target_graph_id).startswith("1"):
            raise nn.NumericsFault("boom")
        return real(source, target, cfg, target_graph_id=target_graph_id, restarts=restarts)

    monkeypatch.setattr(dv, "train_attention", flaky)
    graphs = [random_graph(5, 0.5, s) for s in (7, 8)]
    table = dv.embed_all(graphs, graphs, quick_cfg(), restarts=1)
    assert np.all(np.isnan(table.values[1]))
    assert np.all(np.isfinite(table.values[0]))
    assert all(ti == 1 for ti, _ in table.errors)
    assert "boom" in next(iter(table.errors.values()))


def test_symmetrize_requires_square_universe():
    t = DivergenceTable(["a"], ["b"], np.array([[1.0]]), np.array([0.1]))
    with pytest.raises(ValueError):
        symmetrize(t)
    t = DivergenceTable(["a", "b"], ["a", "b"],
                        np.array([[0.0, 2.0], [3.0, 0.0]]), np.array([0.1, 0.2]))
    sym = symmetrize(t)
    assert np.array_equal(sym.values, [[0.0, 5.0], [5.0, 0.0]])


def test_table_csv_roundtrip():
    t = DivergenceTable(["s0", "s1"], ["t0", "t1", "t2"],
                        np.array([[0.125, -3.5], [1e-17, 2.0], [7.25, 0.0]]),
                        np.array([0.5, 0.75]))
    back = table_from_csv(table_to_csv(t))
    assert back.source_ids == ["s0", "s1"]
    assert back.target_ids == ["t0", "t1", "t2"]
    assert np.array_equal(back.values, t.values)


def test_distance_csv_format():
    d = distance_matrix(np.array([[0.0], [2.0]]))
    text = distance_csv(["a", "b"], d)
    lines = text.splitlines()
    assert lines[0] == "graph_id,a,b"
    assert lines[1].startswith("a,0.0,")


def test_train_source_encoders_parallel_matches_serial():
    graphs = [random_graph(5, 0.5, s) for s in (9, 10)]
    cfg = quick_cfg()
    serial = train_source_encoders(graphs, cfg)
    parallel = train_source_encoders(graphs, cfg, workers=2)
    for a, b in zip(serial, parallel):
        assert positive_log_loss(a) == positive_log_loss(b)


def test_self_divergence_zero_without_attention(tiny_cfg):
    # the no-attention path: scoring a source against itself with an exact
    # identity pass-through gives normalized divergence exactly 0
    g = random_graph(6, 0.5, 12)
    src = train_encoder(g, tiny_cfg)
    n = g.node_count
    fwd = np.where(np.eye(n, dtype=bool), 50.0, -50.0)
    ae = AugmentedEncoder(src, AttentionPair(fwd.copy(), fwd.copy()), g)
    assert raw_divergence(ae) - positive_log_loss(src) == pytest.approx(0.0, abs=1e-9)
