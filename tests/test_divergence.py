import functools
import json
import os
import pathlib
import tempfile
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import neighbor_probs, raw_divergence_loop, same_bits
from graphdiv import divergence, nn
from graphdiv.attention import (AttentionPair, AugmentedEncoder, source_prob_matrix,
                                train_attention, train_attentions)
from graphdiv.divergence import (CELL_READ_BYTES, DivergenceTable, distance_matrix, matrix_csv,
                                 embed_all, raw_divergence, symmetrize,
                                 table_from_csv, table_to_csv, train_source_encoders)
from graphdiv.encoder import (SourceEncoder, TrainConfig, fit_encoders, positive_log_loss,
                              train_encoder)
from graphdiv.generators import make_ring, make_star, random_graph
from graphdiv.graphs import Graph, atomic_write


def test_untrained_divergence_oracle(tiny_cfg):
    # zero source weights + uniform attention predict 1/2 for every potential
    # edge, so the raw score is 2 * E_T * ln 2 regardless of graph sizes
    src = train_encoder(random_graph(5, 0.5, 1), tiny_cfg)
    for p in src.params.values():
        p[...] = 0.0
    target = make_ring(7)
    ae = AugmentedEncoder(AttentionPair(np.zeros((5, 7)), np.zeros((7, 5))), target,
                          source_prob_matrix(src))
    assert raw_divergence([ae])[0] == pytest.approx(2 * 7 * np.log(2))


def test_raw_divergence_nonnegative(tiny_cfg):
    src = train_encoder(random_graph(6, 0.5, 2), tiny_cfg)
    ae = train_attention(src, random_graph(5, 0.5, 3), tiny_cfg, target_graph_id=1)
    assert raw_divergence([ae])[0] >= 0.0


def test_raw_divergence_matches_edge_loop(tiny_cfg):
    for s in range(4):
        src = train_encoder(random_graph(6, 0.5, 10 + s), tiny_cfg)
        ae = train_attention(src, random_graph(5 + s, 0.5, 20 + s), tiny_cfg, target_graph_id=s)
        p = np.maximum(neighbor_probs(ae), 1e-300)
        assert same_bits(raw_divergence([ae])[0], raw_divergence_loop(p, ae.target_graph.edges))


def _labeled(graph, labeled):
    """graph with node and edge labels from shared vocabularies, if labeled."""
    if not labeled:
        return graph
    return Graph(graph.node_count, graph.edges,
                 node_labels=[u % 2 for u in range(graph.node_count)],
                 edge_labels=[k % 3 for k in range(graph.edge_count)],
                 num_node_labels=2, num_edge_labels=3)


@functools.lru_cache(maxsize=None)
def _scoring_sources(labeled):
    graphs = [_labeled(random_graph(5, 0.5, s), labeled) for s in (61, 62, 63)]
    return fit_encoders(graphs, TrainConfig(embed_dim=4, encoding_epochs=20), [0, 1, 2])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 10_000))
def test_stacked_scores_are_lone_scores(cells, labeled, seed):
    # cells from one stacked fit, scored as one stack: each gets the bits of
    # its stack of one and of the per-edge loop over its own probabilities
    rng = np.random.default_rng(seed)
    sources = _scoring_sources(labeled)
    size = 4 + seed % 3
    targets = [_labeled(random_graph(size, 0.5, seed + c), labeled) for c in range(cells)]
    cfg = TrainConfig(embed_dim=4, scoring_epochs=5, learning_rate=5e-2)
    fitted = train_attentions([sources[i] for i in rng.integers(0, 3, cells)], targets, cfg,
                              list(range(cells)), restarts=2)
    for ae, raw in zip(fitted, raw_divergence(fitted)):
        p = np.maximum(neighbor_probs(ae), 1e-300)
        assert same_bits(raw, raw_divergence([ae])[0])
        assert same_bits(raw, raw_divergence_loop(p, ae.target_graph.edges))


def test_stack_of_first_fits_and_a_retry_scores_each_alone(monkeypatch):
    # the first fit of cell 1 diverges and its retry does not: the chunk
    # scores both first-fit cells and the retried one in one call, and each
    # gets the bits of its lone fit and lone score
    import graphdiv.attention as att
    import graphdiv.divergence as div

    graphs = [random_graph(5, 0.5, s) for s in (7, 8, 9)]
    cfg = quick_cfg()
    src = train_encoder(graphs[0], cfg, graph_id=0)
    real, fits, scored = att.attention_loss_and_grads, [], []

    def first_fit_poisoned(problem, params, loss):
        if not any(p is problem for p in fits):
            fits.append(problem)  # kept alive, so no two fits share an id
        losses, grads = real(problem, params, loss)
        if problem is fits[0] and loss:
            losses[2:4] = np.nan  # both restarts of cell 1, at every recorded epoch
        return losses, grads

    monkeypatch.setattr(att, "attention_loss_and_grads", first_fit_poisoned)
    monkeypatch.setattr(div, "raw_divergence",
                        lambda fitted: scored.append(len(fitted)) or raw_divergence(fitted))
    result = div._score_chunk([(ti, 0, src, g, ti) for ti, g in enumerate(graphs)], cfg, 2)
    monkeypatch.undo()
    assert len(fits) == 2 and scored == [3]
    for (ti, si, raw, err), tid in zip(result, (0, "1#retry", 2)):
        assert err is None
        alone = train_attention(src, graphs[ti], cfg, target_graph_id=tid, restarts=2)
        assert same_bits(raw, raw_divergence([alone])[0])


def test_normalized_and_symmetric_are_trivial_arithmetic():
    # a cell is the target's raw divergence minus the source's own log-loss,
    # to the bit, and is allowed to go negative; symmetrize adds the transpose
    graphs = [random_graph(5, 0.5, s) for s in (5, 6)]
    cfg = quick_cfg()
    table = embed_all(graphs, graphs, cfg, restarts=1)
    src = train_encoder(graphs[1], cfg, graph_id=1)
    ae = train_attention(src, graphs[0], cfg, target_graph_id=0)
    assert table.values[0, 1] == raw_divergence([ae])[0] - positive_log_loss([src])[0]
    assert table.self_losses[1] == positive_log_loss([src])[0]
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


def test_embed_all_checks_restarts_before_training(monkeypatch):
    # restarts=0 once trained every encoder before its first stack raised
    import graphdiv.divergence as div

    calls = []
    monkeypatch.setattr(div, "fit_encoders", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        embed_all([random_graph(4, 0.5, 0)], [random_graph(4, 0.5, 1)], quick_cfg(), restarts=0)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_raise_before_training(monkeypatch, workers):
    # both once ran serially without a word
    import graphdiv.divergence as div

    calls = []
    monkeypatch.setattr(div, "fit_encoders", lambda *args: calls.append(args))
    graphs = [random_graph(4, 0.5, 0), random_graph(4, 0.5, 1)]
    with pytest.raises(ValueError, match="workers must be >= 1"):
        embed_all(graphs, graphs, quick_cfg(), workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        train_source_encoders(graphs, quick_cfg(), workers=workers)
    assert calls == []


@pytest.mark.parametrize("sources, targets, match", [
    (3, 4, "4 target ids for 3 targets"), (3, 2, "2 target ids for 3 targets"),
    (4, 3, "4 source ids for 3 sources"), (2, 3, "2 source ids for 3 sources")])
def test_id_lists_must_match_their_graphs(monkeypatch, sources, targets, match):
    # 4 target ids for 3 targets once gave a table of 4 ids and 3 rows, 4
    # source ids a CSV header one column wider than its rows, and 2 target
    # ids a bare IndexError; each is rejected before any encoder trains
    import graphdiv.divergence as div

    calls = []
    monkeypatch.setattr(div, "fit_encoders", lambda *args: calls.append(args))
    graphs = [random_graph(4, 0.5, s) for s in range(3)]
    with pytest.raises(ValueError, match=match):
        embed_all(graphs, graphs, quick_cfg(), source_ids=list("abcd"[:sources]),
                  target_ids=list("wxyz"[:targets]), restarts=1)
    if sources != 3:  # train_source_encoders once dropped extra ids without a word
        with pytest.raises(ValueError, match=match):
            train_source_encoders(graphs, quick_cfg(), source_ids=list("abcd"[:sources]))
    assert calls == []


def test_empty_source_is_rejected_before_any_fit(monkeypatch):
    # an empty source was found by build_encoder, after the other stacks had
    # trained, with an error that named no graph; an empty target stays valid
    # and scores a raw divergence of 0
    import graphdiv.divergence as div

    graphs = [random_graph(4, 0.5, 0), Graph(0, []), random_graph(5, 0.5, 1)]
    calls = []
    real_fit = div.fit_encoders
    monkeypatch.setattr(div, "fit_encoders", lambda *args: calls.append(args) or real_fit(*args))
    with pytest.raises(ValueError, match="source graph b is empty"):
        train_source_encoders(graphs, quick_cfg(), source_ids=["a", "b", "c"], workers=1)
    assert calls == []
    cfg = TrainConfig(embed_dim=4, encoding_epochs=5, scoring_epochs=5)
    table = embed_all([graphs[0]], graphs, cfg, restarts=1)
    assert table.values[1, 0] == 0.0 - table.self_losses[0] and not table.errors


def test_embed_all_rejects_encoders_that_do_not_match_sources():
    # one encoder for two sources once gave an all-NaN column with no error,
    # and an encoder of another graph was scored under the source's id
    g0, g1 = random_graph(5, 0.5, 1), random_graph(5, 0.5, 2)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=5, scoring_epochs=5)
    enc0, enc1 = train_source_encoders([g0, g1], cfg)
    for encoders in ([enc0], [enc0, enc1, enc0], [enc1, enc0], [enc0, enc0]):
        with pytest.raises(ValueError, match="one per source"):
            embed_all([g0, g1], [g0], cfg, encoders=encoders, restarts=1)


def test_given_encoders_match_their_sources_by_digest():
    # the label penalties read vocabulary sizes: an encoder of the 3-label
    # graph given for the 2-label one failed inside a task ("vocabularies
    # differ"), and the reverse case ran silently with the encoder's graph
    edges = [(0, 1), (1, 2), (2, 3)]
    two, three = (Graph(4, edges, node_labels=[0, 1, 0, 1], num_node_labels=k) for k in (2, 3))
    assert two != three and two.digest != three.digest
    cfg = TrainConfig(embed_dim=4, encoding_epochs=5, scoring_epochs=5)
    by_vocab = dict(zip((2, 3), train_source_encoders([two, three], cfg)))
    for graph, wrong in ((two, 3), (three, 2)):
        with pytest.raises(ValueError, match=r"another graph for sources \[7\]: need one per"):
            embed_all([graph], [graph], cfg, source_ids=[7], encoders=[by_vocab[wrong]],
                      restarts=1)


def test_pool_opens_at_most_one_worker_per_task(monkeypatch):
    # a fork pool starts all max_workers at the first submit: 32 workers for
    # 3 tasks once forked 32 processes. A stand-in pool records its size and
    # runs each task inline, so no process starts
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(divergence, "ProcessPoolExecutor", InlinePool)
    tasks = [(k,) for k in range(3)]
    for workers, size in ((32, 3), (3, 3), (2, 2)):
        assert sorted(divergence._completed(lambda k: k * k, tasks, workers)) == [
            (0, 0), (1, 1), (2, 4)]
        assert opened.pop() == size
    graphs = [random_graph(n, 0.5, n) for n in (4, 5, 6)]
    train_source_encoders(graphs, TrainConfig(embed_dim=2, encoding_epochs=2), workers=32)
    assert opened == [3]


def test_repeated_ids_are_rejected(tmp_path):
    # ids name the cell files, so two cells under one id shared a file and a
    # warm rerun read the star's value back for the ring; ids that format
    # alike count as repeated
    ring5, ring6, star6 = make_ring(5), make_ring(6), make_star(6)
    for target_ids in ([7, 7], [7, "7"]):
        with pytest.raises(ValueError, match=r"repeated target ids \['7'\]"):
            embed_all([ring5], [ring6, star6], quick_cfg(), target_ids=target_ids,
                      cell_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"repeated source ids \['0'\]"):
        embed_all([ring5, ring6], [star6], quick_cfg(), source_ids=[0, 0], cell_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


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


@functools.lru_cache(maxsize=None)
def _clean_cache():
    """(graphs, cfg, encoders, table, {file name: bytes}) of a clean run of
    three 5-node graphs against each other, with its cell files read back."""
    graphs = tuple(random_graph(5, 0.5, s) for s in (7, 8, 9))
    cfg = quick_cfg()
    encoders = train_source_encoders(graphs, cfg)
    with tempfile.TemporaryDirectory() as cell_dir:
        table = embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=cell_dir, restarts=1)
        files = {p.name: p.read_bytes() for p in pathlib.Path(cell_dir).iterdir()}
    return graphs, cfg, encoders, table, files


def _damage(data, how, at):
    """Cell file bytes made unreadable: cut short, made non-UTF-8 at byte
    `at`, or rewritten without "raw"."""
    if how == "truncated":
        return data[:at % len(data)]
    if how == "non-utf8":
        return data[:at % len(data)] + b"\xff" + data[at % len(data) + 1:]
    cell = json.loads(data)
    del cell["raw"]
    return json.dumps(cell).encode()


_DAMAGE = st.tuples(st.sampled_from(["intact", "truncated", "non-utf8", "no-raw"]),
                    st.integers(0, 10**6))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_warm_embed_heals_any_damaged_subset(data):
    # a warm embed over any subset of a clean run's cell files, each kept,
    # cut short, made non-UTF-8 or stripped of "raw", returns the clean table
    # and leaves every file with the clean run's bytes
    graphs, cfg, encoders, clean, files = _clean_cache()
    kept = data.draw(st.dictionaries(st.sampled_from(sorted(files)), _DAMAGE))
    with tempfile.TemporaryDirectory() as cell_dir:
        cells = pathlib.Path(cell_dir)
        for name, (how, at) in kept.items():
            body = files[name] if how == "intact" else _damage(files[name], how, at)
            (cells / name).write_bytes(body)
        table = embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=cell_dir, restarts=1)
        assert table.values.tobytes() == clean.values.tobytes()
        assert table.errors == clean.errors
        assert {p.name: p.read_bytes() for p in cells.iterdir()} == files


def test_cell_file_longer_than_one_read(tmp_path):
    # a valid cell file of several read chunks is read whole: its value sits
    # past the first chunk, and the warm embed reuses it without a rewrite
    graphs, cfg, encoders, clean, files = _clean_cache()
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    name = sorted(files)[0]
    cell = json.loads(files[name])
    cell["raw"] = 123.5
    padded = b" " * (2 * CELL_READ_BYTES + 7) + json.dumps(cell).encode()
    (tmp_path / name).write_bytes(padded)
    table = embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=str(tmp_path), restarts=1)
    ti, si = cell["target_id"], cell["source_id"]
    assert table.values[ti, si] == 123.5 - table.self_losses[si]
    assert (tmp_path / name).read_bytes() == padded


def test_warm_embed_leaves_a_full_cache_untouched(tmp_path):
    graphs, cfg, encoders, clean, files = _clean_cache()
    embed = lambda: embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=str(tmp_path),
                              restarts=1)
    embed()
    stat = lambda: {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size)
                    for p in tmp_path.iterdir()}
    before = stat()
    assert embed().values.tobytes() == clean.values.tobytes()
    assert stat() == before and len(before) == len(files)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_cell_io_leaks_no_descriptor(tmp_path):
    # a cold embed, a warm embed over unreadable cell files and a failing
    # atomic_write each leave the process's open descriptors as they were
    graphs, cfg, encoders, _, _ = _clean_cache()
    open_fds = lambda: len(os.listdir("/proc/self/fd"))
    cell_dir = tmp_path / "cells"
    before = open_fds()
    embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=str(cell_dir), restarts=1,
              workers=2)
    assert open_fds() == before
    names = sorted(p.name for p in cell_dir.iterdir())
    for name, how in zip(names, ["truncated", "non-utf8", "no-raw"]):
        (cell_dir / name).write_bytes(_damage((cell_dir / name).read_bytes(), how, 9))
    embed_all(graphs, graphs, cfg, encoders=encoders, cell_dir=str(cell_dir), restarts=1)
    assert open_fds() == before
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(tmp_path / "bad.txt"), "\udc80")
    (tmp_path / "taken" / "inside").mkdir(parents=True)
    with pytest.raises(OSError):
        atomic_write(str(tmp_path / "taken"), "text")
    assert open_fds() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cells", "taken"]


def test_cell_record_is_not_reused_for_other_graphs(tmp_path):
    # the cell key names the config, restarts and ids but not the graphs: a
    # second call with other targets under the same ids once returned the
    # rings' values [1.487, 4.570] for the stars instead of [-0.382, 1.651]
    cfg = TrainConfig(encoding_epochs=30, scoring_epochs=30)
    ring6, ring7, star6, star7 = make_ring(6), make_ring(7), make_star(6), make_star(7)
    cell_dir = str(tmp_path / "cells")
    embed_all([ring6], [ring6, ring7], cfg, cell_dir=cell_dir)
    fresh = embed_all([ring6], [star6, star7], cfg)
    for _ in range(2):  # rescored, then reused from the rewritten records
        stars = embed_all([ring6], [star6, star7], cfg, cell_dir=cell_dir)
        assert stars.values.tobytes() == fresh.values.tobytes()
    # a changed source under the same id is scored again too
    assert (embed_all([star6], [star6, star7], cfg, cell_dir=cell_dir).values.tobytes()
            == embed_all([star6], [star6, star7], cfg).values.tobytes())
    assert len(os.listdir(cell_dir)) == 2


def test_cell_record_is_not_reused_for_another_encoder(tmp_path):
    # cells were keyed by the source graph's digest, not by its encoder: with
    # source 1's output bias raised by 0.5 (same graph, same id), a warm run
    # returned column 1 as -1.377, 6.207, 2.992, 6.136 where a fresh run with
    # the new encoder gives -3.346, 2.712, -0.137, 2.705
    graphs = [random_graph(6 + i % 2, 0.5, i) for i in range(4)]
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30, scoring_epochs=30)
    first = train_source_encoders(graphs, cfg)
    params = {name: a.copy() for name, a in first[1].params.items()}
    params["output.bias"] += 0.5
    second = list(first)
    second[1] = SourceEncoder(graphs[1], 1, params, trained=True)
    embed = lambda encoders, cell_dir=None: embed_all(graphs, graphs, cfg, encoders=encoders,
                                                      cell_dir=cell_dir, restarts=1)
    embed(first, str(tmp_path))
    stat = lambda: {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
    before = stat()
    assert embed(second, str(tmp_path)).values.tobytes() == embed(second).values.tobytes()
    after = stat()
    assert sorted(name for name in before if after[name] != before[name]) == sorted(
        name for name in before if name.endswith("_s1.json"))
    assert len(before) == 16


# The cell format and the float.hex bits of the raw divergence every cell
# record of the pinned corpus stores, in (target, source) order. Cells are
# keyed by CELL_FORMAT, not by the code that fits them, so a change that moves
# these bits must bump CELL_FORMAT (a warm run would serve the old cells
# otherwise) and pin the new bits here. Format 1 fitted the attention in
# float64; format 2 fits it in float32; format 3 flushes the subnormals of
# the fit's S to 0, which left these bits as they were; format 4 moves them
# by changing the fit's arithmetic: one softmax shift per slice, axis sums as
# matmuls with ones vectors, S (g_pred w)^T as ((g_pred w) S^T)^T, one label
# penalty term per side and the BCE gradient computed in place.
CELL_PIN = (4, ["0x1.443376d105092p+3", "0x1.421c5f0d3c52dp+3", "0x1.5338e59b591e4p+3",
                "0x1.24ce4c4b755b3p+3", "0x1.2e384b1290465p+3", "0x1.2a94b652c334cp+3",
                "0x1.4558730f22d8cp+3", "0x1.2f9a1e21a53cap+3", "0x1.0628b953fcc01p+3"])


def test_cell_bits_are_pinned_to_the_cell_format(tmp_path, labeled_pair):
    # swapping the first two restart slots moved every cell, yet a warm run
    # into the same cell_dir served the old ones: nothing in a cell's key
    # named the fit's numerics. Two labeled 6-node graphs and an unlabeled
    # 5-node one: label penalties on and off, two stack shapes
    graphs = [*labeled_pair, random_graph(5, 0.5, 3)]
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30, scoring_epochs=30, rng_seed=0)
    embed_all(graphs, graphs, cfg, cell_dir=str(tmp_path), restarts=2)
    records = sorted((json.loads(p.read_text()) for p in tmp_path.iterdir()),
                     key=lambda r: (r["target_id"], r["source_id"]))
    assert (divergence.CELL_FORMAT, [float.hex(r["raw"]) for r in records]) == CELL_PIN


def test_embed_all_on_an_empty_edge_vocabulary():
    # edgeless graphs that carry edge_labels=[] once raised ZeroDivisionError
    # in the edge label matrices
    g = Graph(3, [], node_labels=[0, 1, 0], edge_labels=[])
    h = Graph(4, [], node_labels=[1, 1, 0, 0], edge_labels=[])
    table = embed_all([g, h], [g, h], quick_cfg(), restarts=1)
    assert np.array_equal(table.values, np.zeros((2, 2))) and not table.errors


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
        assert table.values[ti, 0] == raw_divergence([ae])[0] - positive_log_loss([src])[0]


def _poison_target(att, graph):
    """attention_loss_and_grads with every slice whose target is `graph` set
    to NaN loss at every recorded epoch, and a list that keeps each fitted
    problem (each fit)."""
    real = att.attention_loss_and_grads
    bad = graph.adjacency_matrix()
    problems = []

    def poisoned(problem, params, loss):
        losses, grads = real(problem, params, loss)
        if not any(p is problem for p in problems):
            problems.append(problem)
        if loss:
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

    def diverged(problem, params, loss):
        problems.append(problem)
        losses, grads = real(problem, params, loss)
        return np.full_like(losses, np.nan) if loss else None, grads

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

    expected = raw_divergence([alone])[0] - positive_log_loss([src])[0]
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

    alone = [_fit_record(train_encoder(g, cfg, graph_id=gid)) for g, gid in zip(graphs, ids)]
    for workers in (1, 2):
        fitted = train_source_encoders(graphs, cfg, source_ids=ids, workers=workers)
        assert [_fit_record(enc) for enc in fitted] == alone


def _fit_record(enc):
    """What a fitted encoder is: its graph id and graph, its params' names,
    shapes and bytes, and its loss trace."""
    return (enc.graph_id, enc.graph, enc.trained,
            [(name, a.shape, a.tobytes()) for name, a in enc.params.items()], enc.loss_trace)


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
        runs[workers] = [_fit_record(enc) for enc in fitted]
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
            assert tables[0].values[ti, si] == raw_divergence([ae])[0] - positive_log_loss([enc])[0]


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
    ae = AugmentedEncoder(AttentionPair(fwd.copy(), fwd.copy()), g, source_prob_matrix(src))
    assert raw_divergence([ae])[0] - positive_log_loss([src])[0] == pytest.approx(0.0, abs=1e-9)
