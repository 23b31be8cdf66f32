import json

import numpy as np
import pytest

from conftest import raw_divergence_loop, same_bits
from graphdiv import nn
from graphdiv.attention import (AttentionPair, AugmentedEncoder, augmented_neighbor_probs,
                                train_attention, train_attentions)
from graphdiv.divergence import (DivergenceTable, distance_matrix, matrix_csv,
                                 embed_all, raw_divergence, symmetrize,
                                 table_from_csv, table_to_csv, train_source_encoders)
from graphdiv.encoder import (TrainConfig, encoder_to_checkpoint, positive_log_loss,
                              train_encoder)
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


def test_raw_divergence_matches_edge_loop(tiny_cfg):
    for s in range(4):
        src = train_encoder(random_graph(6, 0.5, 10 + s), tiny_cfg)
        ae = train_attention(src, random_graph(5 + s, 0.5, 20 + s), tiny_cfg, target_graph_id=s)
        p = np.maximum(augmented_neighbor_probs(ae), 1e-300)
        assert same_bits(raw_divergence(ae), raw_divergence_loop(p, ae.target_graph.edges))


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


def test_unreadable_cell_is_scored_again(tmp_path):
    # a truncated cell file and one without "raw" count as absent: the cells
    # are computed again and their files overwritten with a clean run's bytes
    graphs = [random_graph(5, 0.5, s) for s in (5, 6)]
    cfg = quick_cfg()
    clean_dir, cell_dir = tmp_path / "clean", tmp_path / "cells"
    clean = embed_all(graphs, graphs, cfg, cell_dir=str(clean_dir), restarts=1)
    embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=1)
    files = sorted(cell_dir.iterdir())
    files[0].write_text(files[0].read_text()[:20])
    files[1].write_text(json.dumps({"source_id": 0, "target_id": 1}))
    table = embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=1)
    assert table.values.tobytes() == clean.values.tobytes()
    for p in clean_dir.iterdir():
        assert (cell_dir / p.name).read_bytes() == p.read_bytes()


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


def test_embed_all_mixes_labeled_and_unlabeled_targets():
    # a labeled and an unlabeled target of one size never share a stack, so
    # each keeps its own penalties and the bits it gets alone
    from graphdiv.graphs import Graph

    plain = random_graph(5, 0.6, 1)
    labeled = Graph(5, random_graph(5, 0.6, 2).edges, node_labels=[0, 1, 0, 1, 0])
    source = Graph(5, random_graph(5, 0.6, 3).edges, node_labels=[1, 0, 1, 0, 0])
    cfg = quick_cfg()
    table = embed_all([source], [plain, labeled], cfg, restarts=1)
    src = train_encoder(source, cfg, graph_id=0)
    for ti, target in enumerate([plain, labeled]):
        ae = train_attention(src, target, cfg, target_graph_id=ti)
        assert table.values[ti, 0] == raw_divergence(ae) - positive_log_loss(src)


def _poison_target(att, graph):
    """attention_loss_and_grads with every slice whose target is `graph` set
    to NaN loss, and a list that keeps each fitted problem (each fit)."""
    real = att.attention_loss_and_grads
    bad = graph.adjacency_matrix()
    problems = []

    def poisoned(problem, params):
        losses, grads = real(problem, params)
        if not any(p is problem for p in problems):
            problems.append(problem)
        losses[(problem.adjacency == bad).all(axis=(1, 2))] = np.nan
        return losses, grads

    return poisoned, problems


def test_embed_all_failure_isolated(monkeypatch):
    # a numeric fault in one target of a stack of every source against every
    # target: only that target's cells fail, in every source's column (NaN +
    # error, after the retry), and its stack-mates keep the bits they get
    # without the fault
    import graphdiv.attention as att

    graphs = [random_graph(5, 0.5, s) for s in (7, 8, 9)]
    poisoned, problems = _poison_target(att, graphs[1])
    cfg = quick_cfg()
    clean = embed_all(graphs, graphs, cfg, restarts=2)
    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    table = embed_all(graphs, graphs, cfg, restarts=2)
    assert len(problems[0].adjacency) == 18  # 3 sources x 3 same-size targets x 2 restarts
    assert np.all(np.isnan(table.values[1]))
    assert sorted(table.errors) == [(1, 0), (1, 1), (1, 2)]
    assert "retry" in table.errors[(1, 0)]
    assert table.values[[0, 2]].tobytes() == clean.values[[0, 2]].tobytes()


def test_faulted_cells_retry_as_one_stack(monkeypatch):
    # the poisoned fixture above fits twice: the 18-slice stack, then its 3
    # faulted cells as one 6-slice retry stack; no clean cell is fitted again
    import graphdiv.attention as att

    graphs = [random_graph(5, 0.5, s) for s in (7, 8, 9)]
    poisoned, problems = _poison_target(att, graphs[1])
    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    embed_all(graphs, graphs, quick_cfg(), restarts=2)
    assert [len(p.adjacency) for p in problems] == [18, 6]
    bad = graphs[1].adjacency_matrix()
    assert (problems[1].adjacency == bad).all()


def test_poisoned_table_same_at_any_worker_count(monkeypatch):
    # values and error strings of the poisoned fixture do not depend on how
    # the pool splits the stacks
    import graphdiv.attention as att

    graphs = [random_graph(5, 0.5, s) for s in (7, 8, 9)]
    poisoned, _ = _poison_target(att, graphs[1])
    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    tables = [embed_all(graphs, graphs, quick_cfg(), restarts=2, workers=w) for w in (1, 2, 3)]
    first = "loss diverged (non-finite) at epoch 0 for graph id(s) [1]"
    second = "loss diverged (non-finite) at epoch 0 for graph id(s) ['1#retry']"
    assert tables[0].errors == {(1, s): f"{first}; retry: {second}" for s in range(3)}
    for table in tables[1:]:
        assert table_to_csv(table) == table_to_csv(tables[0])
        assert table.errors == tables[0].errors


def test_faulting_cell_fits_twice(monkeypatch):
    # a one-cell group whose every fit diverges: one stacked fit, one retry
    # under a fresh seed, then the cell fails with both faults on record
    import graphdiv.attention as att

    real = att.attention_loss_and_grads
    problems = []  # kept alive, so no two fits share an id

    def diverged(problem, params):
        problems.append(problem)
        losses, grads = real(problem, params)
        return np.full_like(losses, np.nan), grads

    graphs = [random_graph(5, 0.5, s) for s in (7, 8)]
    cfg = quick_cfg()
    monkeypatch.setattr(att, "attention_loss_and_grads", diverged)
    table = embed_all(graphs[:1], graphs[1:], cfg, source_ids=["s"], target_ids=["t"],
                      restarts=2)
    assert len({id(p) for p in problems}) == 2
    assert np.isnan(table.values[0, 0])
    first = "loss diverged (non-finite) at epoch 0 for graph id(s) ['t']"
    second = "loss diverged (non-finite) at epoch 0 for graph id(s) ['t#retry']"
    assert table.errors == {(0, 0): f"{first}; retry: {second}"}


def _mixed_sizes():
    return [random_graph(n, 0.5, s) for n, s in ((5, 1), (6, 2), (5, 3), (6, 4), (5, 5))]


def test_cell_bytes_do_not_depend_on_batch(tmp_path):
    # one cell fitted alone, inside a same-size group of 3, and through a
    # partially resumed embed_all at 1 and 2 workers gives the same bytes
    graphs = _mixed_sizes()
    cfg = quick_cfg()
    src = train_encoder(graphs[1], cfg, graph_id=1)
    fives = [graphs[0], graphs[2], graphs[4]]
    alone = train_attention(src, graphs[2], cfg, target_graph_id=2, restarts=3)
    grouped = train_attentions([src] * 3, fives, cfg, [0, 2, 4], restarts=3)[1]
    assert grouped.attention.forward.tobytes() == alone.attention.forward.tobytes()
    assert grouped.attention.reverse.tobytes() == alone.attention.reverse.tobytes()
    assert np.array(grouped.loss_trace).tobytes() == np.array(alone.loss_trace).tobytes()

    expected = raw_divergence(alone) - positive_log_loss(src)
    for workers in (1, 2):
        cell_dir = tmp_path / f"cells{workers}"
        # a first pass over 2 targets leaves the rest of each group pending
        embed_all(graphs, graphs[:2], cfg, cell_dir=str(cell_dir), restarts=3)
        table = embed_all(graphs, graphs, cfg, cell_dir=str(cell_dir), restarts=3,
                          workers=workers)
        assert table.values[2, 1] == expected


def test_embed_all_keeps_finished_groups_on_error(tmp_path):
    # a group that raises stops embed_all, but the groups that finished before
    # it are on disk, and a rerun resumes to the bytes of a clean run
    from graphdiv.graphs import Graph, GraphError

    def labeled(n, seed, vocab):
        g = random_graph(n, 0.6, seed)
        return Graph(n, g.edges, node_labels=[i % 2 for i in range(n)], num_node_labels=vocab)

    good = [labeled(5, 1, 2), labeled(5, 2, 2), labeled(6, 3, 2), labeled(6, 4, 2)]
    # the last target, so its group runs last; its vocabulary does not match
    broken = labeled(4, 5, 3)
    cfg = quick_cfg()
    cell_dir = tmp_path / "cells"
    with pytest.raises(GraphError):
        embed_all(good[:1], good + [broken], cfg, cell_dir=str(cell_dir), restarts=1)
    assert len(list(cell_dir.iterdir())) == 4

    fixed = good + [labeled(4, 5, 2)]
    resumed = embed_all(good[:1], fixed, cfg, cell_dir=str(cell_dir), restarts=1, workers=2)
    clean_dir = tmp_path / "clean"
    clean = embed_all(good[:1], fixed, cfg, cell_dir=str(clean_dir), restarts=1)
    assert table_to_csv(resumed) == table_to_csv(clean)
    assert sorted(p.name for p in cell_dir.iterdir()) == sorted(p.name for p in clean_dir.iterdir())
    for p in clean_dir.iterdir():
        assert (cell_dir / p.name).read_bytes() == p.read_bytes()


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
    text = matrix_csv("graph_id", ["a", "b"], ["a", "b"], d)
    lines = text.splitlines()
    assert lines[0] == "graph_id,a,b"
    assert lines[1].startswith("a,0.0,")


def test_train_source_encoders_parallel_matches_serial():
    # node counts 5, 6, 5, 7, 6, 5: stacks of 3, 2 and 1, trained at workers 1
    # and 2, come back in input order with each graph's solo bits
    graphs = [random_graph(n, 0.5, s) for n, s in zip((5, 6, 5, 7, 6, 5), range(9, 15))]
    ids = ["a", "b", "c", "d", "e", "f"]
    cfg = quick_cfg()

    def record(enc):
        return enc.graph_id, enc.graph, json.dumps(encoder_to_checkpoint(enc, cfg)), enc.loss_trace

    alone = [record(train_encoder(g, cfg, graph_id=gid)) for g, gid in zip(graphs, ids)]
    for workers in (1, 2):
        fitted = train_source_encoders(graphs, cfg, source_ids=ids, workers=workers)
        assert [record(enc) for enc in fitted] == alone


def _recording_completed(monkeypatch):
    """Record the task count of every _completed call, then run it as usual."""
    import graphdiv.divergence as div

    real, counts = div._completed, []

    def recording(fn, tasks, workers):
        counts.append(len(tasks))
        return real(fn, tasks, workers)

    monkeypatch.setattr(div, "_completed", recording)
    return counts


def test_train_source_encoders_splits_one_size(monkeypatch):
    # six 5-node sources form one same-size group; at workers 2 it runs as
    # at least 2 tasks, and every checkpoint keeps the workers-1 bytes
    graphs = [random_graph(5, 0.5, s) for s in range(20, 26)]
    cfg = quick_cfg()
    counts = _recording_completed(monkeypatch)
    runs = {}
    for workers in (1, 2):
        fitted = train_source_encoders(graphs, cfg, workers=workers)
        runs[workers] = [(json.dumps(encoder_to_checkpoint(enc, cfg)), enc.loss_trace)
                         for enc in fitted]
    assert counts[0] == 1 and counts[1] >= 2
    assert runs[2] == runs[1]


def test_uniform_size_corpus_same_at_any_workers(monkeypatch):
    # every cell of a one-size corpus can share a stack; at 2 and 3 workers
    # it is split into as many tasks, and the table keeps every bit, each
    # cell equal to its pair fitted alone
    graphs = [random_graph(5, 0.5, s) for s in range(30, 36)]
    cfg = quick_cfg()
    encoders = train_source_encoders(graphs, cfg)
    counts = _recording_completed(monkeypatch)
    tables = [embed_all(graphs, graphs, cfg, encoders=encoders, restarts=2, workers=workers)
              for workers in (1, 2, 3)]
    assert counts == [1, 2, 3]
    for table in tables:
        assert table.values.tobytes() == tables[0].values.tobytes()
        assert table.self_losses.tobytes() == tables[0].self_losses.tobytes()
        assert table.errors == {}
    for ti, target in enumerate(graphs):
        for si, enc in enumerate(encoders):
            ae = train_attention(enc, target, cfg, target_graph_id=ti, restarts=2)
            assert tables[0].values[ti, si] == raw_divergence(ae) - positive_log_loss(enc)


def test_stack_element_budget_splits_tasks(monkeypatch):
    # a group larger than MAX_STACK_ELEMENTS is cut into near-equal stacks,
    # heaviest first, with the bits of one unbudgeted stack
    import graphdiv.divergence as div

    graphs = [random_graph(5, 0.5, s) for s in range(40, 44)] + [random_graph(6, 0.5, 44)]
    cfg = quick_cfg()
    encoders = train_source_encoders(graphs, cfg)
    whole = embed_all(graphs, graphs, cfg, encoders=encoders, restarts=2)
    # a 5-node source against a 5-node target adds 2 x 5 x 5 = 50 elements
    monkeypatch.setattr(div, "MAX_STACK_ELEMENTS", 300)
    sizes = []
    real = div._score_chunk
    monkeypatch.setattr(div, "_score_chunk",
                        lambda jobs, *rest: sizes.append(len(jobs)) or real(jobs, *rest))
    split = embed_all(graphs, graphs, cfg, encoders=encoders, restarts=2)
    # the 16 (5, 5) cells become stacks of 5, 5 and 6 (at most 300 elements);
    # the 4 (5, 6) and the 4 (6, 5) cells (60 elements each) fit one stack per
    # group, and the (6, 6) cell runs last
    assert sizes == [6, 5, 5, 4, 4, 1]
    assert split.values.tobytes() == whole.values.tobytes()


def test_self_divergence_zero_without_attention(tiny_cfg):
    # the no-attention path: scoring a source against itself with an exact
    # identity pass-through gives normalized divergence exactly 0
    g = random_graph(6, 0.5, 12)
    src = train_encoder(g, tiny_cfg)
    n = g.node_count
    fwd = np.where(np.eye(n, dtype=bool), 50.0, -50.0)
    ae = AugmentedEncoder(src, AttentionPair(fwd.copy(), fwd.copy()), g)
    assert raw_divergence(ae) - positive_log_loss(src) == pytest.approx(0.0, abs=1e-9)
