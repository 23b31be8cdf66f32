import hashlib
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (encoder_stack, encoder_stack_gradient_errors, fit_stack_calls,
                      fit_stack_every_epoch, loss_epochs, positive_log_loss_loop, same_bits)
from graphdiv import encoder, nn
from graphdiv.attention import source_prob_matrix
from graphdiv.encoder import (CheckpointError, SourceEncoder, TrainConfig, TrainingFault,
                              build_encoder, derive_seed, encoder_loss_and_grads, load_encoder,
                              positive_log_loss, fit_encoders, save_encoder, train_encoder)
from graphdiv.generators import make_barbell, make_ring, random_graph
from graphdiv.graphs import Graph


def reference_fit(graph, cfg, graph_id):
    """The per-graph encoder fit in plain 2-D numpy, one graph at a time:
    the oracle every slice of a stacked fit must match bit for bit. Its Adam
    steps each array with its own moments, apart from nn.fit_stack.
    Returns (params, loss trace)."""
    enc = build_encoder(graph, cfg, graph_id=graph_id)
    params = enc.params
    adjacency = graph.adjacency_matrix()
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    trace = []
    for epoch in range(cfg.encoding_epochs):
        h, tape = enc.embedding, []
        for layer in enc.layers:
            z = h @ layer.weight.T + layer.bias
            tape.append((h, z))
            h = np.maximum(z, 0.0) if layer is not enc.output else z
        trace.append(float(np.sum(np.maximum(h, 0.0) + np.log1p(np.exp(-np.abs(h)))
                                  - adjacency * h)))
        g = np.empty_like(h)
        pos = h >= 0
        g[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
        g[~pos] = np.exp(h[~pos]) / (1.0 + np.exp(h[~pos]))
        g -= adjacency
        layer_grads = []
        for layer, (h_in, z) in zip(enc.layers[::-1], tape[::-1]):
            gz = g * (z > 0) if layer is not enc.output else g
            layer_grads.insert(0, (gz.T @ h_in, gz.sum(axis=0)))
            g = gz @ layer.weight
        grads = {"embedding": g}
        for k in range(len(enc.hidden)):
            grads[f"hidden{k}.weight"], grads[f"hidden{k}.bias"] = layer_grads[k]
        grads["output.weight"], grads["output.bias"] = layer_grads[-1]
        for name, p in params.items():
            nn.adam_step(p, grads[name], *moments[name], epoch + 1, cfg.learning_rate)
    return params, trace


def assert_same_bits(enc, reference):
    """enc has the reference's params, and its losses at the recorded epochs."""
    params, trace = reference
    assert enc.trained
    assert enc.params.keys() == params.keys()
    for name, p in params.items():
        assert enc.params[name].tobytes() == p.tobytes(), name
    recorded = np.array(trace, dtype=float)[nn.recorded_epochs(len(trace))]
    assert np.array(enc.loss_trace).tobytes() == recorded.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(encoding_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(node_reg_coef=-0.5)
    for field in ("learning_rate", "node_reg_coef", "edge_reg_coef"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(**{field: value})


def test_config_hash_stable_and_sensitive():
    a, b = TrainConfig(), TrainConfig()
    assert a.hash() == b.hash()
    assert a.hash() != TrainConfig(embed_dim=16).hash()


def test_encoder_hash_reads_only_encoder_fields():
    base = TrainConfig()
    for change in ({"scoring_epochs": 5}, {"node_reg_coef": 0.0}, {"edge_reg_coef": 2.0}):
        assert TrainConfig(**change).encoder_hash() == base.encoder_hash()
    for change in ({"embed_dim": 4}, {"encoder_layers": 1}, {"learning_rate": 0.1},
                   {"encoding_epochs": 5}, {"rng_seed": 1}):
        assert TrainConfig(**change).encoder_hash() != base.encoder_hash()


def test_derive_seed_deterministic():
    assert derive_seed("a", 1, 2) == derive_seed("a", 1, 2)
    assert derive_seed("a", 1, 2) != derive_seed("a", 2, 1)


def test_zero_weight_encoder_loss(tiny_cfg, triangle):
    # all-zero parameters: every logit 0, BCE = n*n*ln2 (self column included)
    enc = build_encoder(triangle, tiny_cfg)
    for p in enc.params.values():
        p[...] = 0.0
    loss, _ = encoder_loss_and_grads(enc.params, triangle.adjacency_matrix())
    assert float(loss) == pytest.approx(9 * np.log(2))
    # positive-edge loss: 2E directed edges at sigma(0)=0.5
    assert positive_log_loss([enc])[0] == pytest.approx(6 * np.log(2))


def test_encoder_gradient_check():
    # the stacked loss over a stack of 2, every slice checked; rng_seed chosen
    # so no relu pre-activation sits within eps of its kink, where central
    # differences and the subgradient legitimately disagree
    cfg = TrainConfig(embed_dim=4, rng_seed=2)
    encs = [build_encoder(random_graph(6, 0.5, 3), cfg),
            build_encoder(random_graph(6, 0.5, 4), cfg, graph_id=1)]
    assert max(encoder_stack_gradient_errors(encs)) < 1e-4


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_stacked_fit_matches_reference(layers):
    # each slice reproduces the 2-D reference alone, in a group of 3, and with
    # the group's order reversed
    cfg = TrainConfig(embed_dim=4, encoder_layers=layers, encoding_epochs=25, rng_seed=1)
    graphs = [random_graph(7, p, s) for p, s in ((0.3, 1), (0.5, 2), (0.7, 3))]
    ids = [4, "b", 9]
    refs = [reference_fit(g, cfg, gid) for g, gid in zip(graphs, ids)]
    alone = [train_encoder(g, cfg, graph_id=gid) for g, gid in zip(graphs, ids)]
    group = fit_encoders(graphs, cfg, ids)
    reverse = fit_encoders(graphs[::-1], cfg, ids[::-1])[::-1]
    for fits in (alone, group, reverse):
        for enc, ref in zip(fits, refs):
            assert_same_bits(enc, ref)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 10_000))
def test_fit_encoders_keep_every_epoch_loop_bits(epochs, slices, seed):
    # the loss is asked for at the recorded epochs alone, and the params and
    # recorded losses are those of the loop that computes it every epoch
    cfg = TrainConfig(embed_dim=3, encoder_layers=1, encoding_epochs=epochs,
                      learning_rate=5e-2, rng_seed=seed)
    graphs = [random_graph(5, 0.5, seed + k) for k in range(slices)]
    with fit_stack_calls() as calls:
        encs = fit_encoders(graphs, cfg, list(range(slices)))
    [(inits, lrs, flags)] = calls
    recorded = loss_epochs(epochs)
    assert len(flags) == epochs
    assert [e for e, loss in enumerate(flags) if loss] == recorded
    adjacency = np.stack([g.adjacency_matrix() for g in graphs])
    params, trace = fit_stack_every_epoch(
        inits, lambda p, loss: encoder_loss_and_grads(p, adjacency, loss=loss), lrs, epochs)
    for g, enc in enumerate(encs):
        assert enc.fault is None
        for name, a in params.items():
            assert enc.params[name].tobytes() == a[g].tobytes(), name
        assert np.array(enc.loss_trace).tobytes() == trace[recorded, g].tobytes()


def test_stack_needs_one_node_count(tiny_cfg):
    with pytest.raises(ValueError):
        fit_encoders([random_graph(5, 0.5, 1), random_graph(6, 0.5, 1)], tiny_cfg, [0, 1])


def test_nonfinite_slice_names_its_graph(monkeypatch, tiny_cfg):
    # a NaN in one slice's init faults that slice at epoch 0, naming its
    # graph id and no other
    build = encoder.build_encoder

    def poisoned(graph, cfg, graph_id=0):
        enc = build(graph, cfg, graph_id=graph_id)
        if graph_id == "bad":
            enc.embedding[0, 0] = np.nan
        return enc

    monkeypatch.setattr(encoder, "build_encoder", poisoned)
    graphs = [random_graph(5, 0.5, s) for s in (1, 2, 3)]
    fits = fit_encoders(graphs, tiny_cfg, [7, "bad", 8])
    assert [enc.fault and str(enc.fault) for enc in fits] == [
        None, "loss diverged (non-finite) at epoch 0 for graph id(s) ['bad']", None]
    with pytest.raises(TrainingFault, match=r"epoch 0 for graph id\(s\) \['bad'\]$"):
        nn.raise_faults(fits)


def test_two_node_graph_converges():
    g = Graph(2, [(0, 1)])
    cfg = TrainConfig(embed_dim=4, encoder_layers=2, learning_rate=1e-2,
                      encoding_epochs=300, rng_seed=3)
    enc = train_encoder(g, cfg)
    assert enc.loss_trace[-1] < 0.05
    assert enc.loss_trace[-1] < enc.loss_trace[0]


def test_training_separates_neighbors(tiny_cfg):
    g = make_barbell(5)
    cfg = TrainConfig(encoding_epochs=300, rng_seed=0)
    enc = train_encoder(g, cfg)
    # for each node, its true neighbors should outscore non-neighbors
    probs = source_prob_matrix(enc)
    for u in range(g.node_count):
        nbrs = set(np.flatnonzero(g.adjacency_matrix()[u]))
        others = [v for v in range(g.node_count) if v != u and v not in nbrs]
        assert min(probs[u, sorted(nbrs)]) > max(probs[u, others])


def test_training_deterministic(tiny_cfg):
    g = random_graph(8, 0.4, 1)
    e1 = train_encoder(g, tiny_cfg, graph_id=5)
    e2 = train_encoder(g, tiny_cfg, graph_id=5)
    for a, b in zip(e1.params.values(), e2.params.values()):
        assert np.array_equal(a, b)
    e3 = train_encoder(g, tiny_cfg, graph_id=6)
    assert any(not np.array_equal(a, b)
               for a, b in zip(e1.params.values(), e3.params.values()))


def test_loss_is_permutation_covariant(tiny_cfg):
    # node u of g is node perm[u] of g2; moving the embedding rows and the
    # output rows and bias the same way gives the same loss, and the
    # embedding and output gradients come back permuted
    g = random_graph(7, 0.4, 2)
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    g2 = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
    enc = train_encoder(g, tiny_cfg)
    moved = build_encoder(g2, tiny_cfg)
    for name, p in enc.params.items():
        q = moved.params[name]
        if name in ("embedding", "output.weight", "output.bias"):
            q[perm] = p
        else:
            q[...] = p
    stack = encoder_stack([enc, moved])
    adjacency = np.stack([g.adjacency_matrix(), g2.adjacency_matrix()])
    losses, grads = encoder_loss_and_grads(stack, adjacency)
    assert losses[1] == pytest.approx(losses[0], rel=1e-12)
    for name in ("embedding", "output.weight", "output.bias"):
        assert np.allclose(grads[name][1][perm], grads[name][0], rtol=1e-12, atol=1e-15)


def test_zero_epochs_leaves_init():
    # alone and in a group of 3, every slice comes back as its init, trained
    cfg = TrainConfig(embed_dim=4, encoding_epochs=0)
    graphs = [random_graph(5, p, 0) for p in (0.3, 0.5, 0.7)]
    fits = [train_encoder(graphs[1], cfg, graph_id=1)] + fit_encoders(graphs, cfg, [0, 1, 2])
    for enc in fits:
        assert enc.loss_trace == []
        assert_same_bits(enc, (build_encoder(enc.graph, cfg, enc.graph_id).params, []))


def test_encode_node_bounds(tiny_cfg, triangle):
    # every node gets one neighbor probability per node of its graph
    enc = train_encoder(triangle, tiny_cfg)
    probs = source_prob_matrix(enc)
    assert probs.shape == (3, 3)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_empty_graph_rejected(tiny_cfg):
    with pytest.raises(ValueError):
        build_encoder(Graph(0, []), tiny_cfg)


def test_encoder_checkpoint_roundtrip(tmp_path, tiny_cfg, triangle):
    enc = train_encoder(triangle, tiny_cfg, graph_id=9)
    path = tmp_path / "enc.json"
    save_encoder(enc, tiny_cfg, path)
    back = load_encoder(path)
    assert back.trained
    assert back.graph == triangle
    for a, b in zip(back.params.values(), enc.params.values()):
        assert np.array_equal(a, b)
    adjacency = triangle.adjacency_matrix()
    assert (encoder_loss_and_grads(back.params, adjacency)[0]
            == encoder_loss_and_grads(enc.params, adjacency)[0])


@pytest.mark.parametrize("layers", [1, 2])
def test_parameter_names_and_order(tmp_path, triangle, layers):
    # a checkpoint stores enc.params in order, so a reorder would change the
    # bytes of every checkpoint; built, fitted and reloaded encoders agree
    cfg = TrainConfig(embed_dim=4, encoder_layers=layers, encoding_epochs=3)
    names = (["embedding"] + [f"hidden{k}.{part}" for k in range(layers)
                              for part in ("weight", "bias")] + ["output.weight", "output.bias"])
    fitted = train_encoder(triangle, cfg)
    path = tmp_path / "enc.json"
    save_encoder(fitted, cfg, path)
    with open(path) as f:
        assert list(json.load(f)["shapes"]) == names
    for enc in (build_encoder(triangle, cfg), fitted, load_encoder(path)):
        assert list(enc.params) == names


@pytest.mark.parametrize("name", ["embedding", "hidden0.weight", "hidden0.bias", "hidden1.weight",
                                  "hidden1.bias", "output.weight", "output.bias"])
def test_source_encoder_checks_each_shape(triangle, name):
    # each array has the shape build_encoder gives it for the graph; one more
    # row in any of them raises, naming that array
    params = build_encoder(triangle, TrainConfig(embed_dim=4)).params
    params[name] = np.zeros((params[name].shape[0] + 1,) + params[name].shape[1:])
    with pytest.raises(nn.ShapeError, match=re.escape(f"('{name}', ")):
        SourceEncoder(triangle, 0, params)


def test_source_encoder_checks_names_and_order(triangle):
    # the names, their order and one 2-D (1-D for biases) array each, as a
    # checkpoint stores them; nn.forward checks only input widths
    params = build_encoder(triangle, TrainConfig(embed_dim=4)).params
    names = list(params)
    for bad in ({name: params[name] for name in names[::-1]},
                {name: a for name, a in params.items() if name != "hidden1.bias"},
                dict(params, extra=params["output.bias"]),
                {name.replace("hidden", "layer"): a for name, a in params.items()},
                {name: a[None] for name, a in params.items()},
                dict(params, embedding=params["embedding"].T)):
        with pytest.raises(nn.ShapeError):
            SourceEncoder(triangle, 0, bad)
    assert SourceEncoder(triangle, 0, params).params is params


def test_checkpoint_with_a_transposed_shape_fails_to_load(tmp_path, triangle):
    # the checksum covers the values, not the shapes: a transposed embedding
    # shape once loaded, and its encoder failed only in its first forward
    cfg = TrainConfig(embed_dim=4)
    path = tmp_path / "enc.json"
    ckpt = json.loads(_saved_text(build_encoder(triangle, cfg), cfg, path))
    ckpt["shapes"]["embedding"] = [4, 3]
    path.write_text(json.dumps(ckpt))
    with pytest.raises(CheckpointError, match="embedding"):
        load_encoder(path)


def test_edgeless_graph_self_loss_is_zero(tiny_cfg):
    # no edge, no positive-edge term: the baseline is exactly 0.0, not positive
    assert positive_log_loss([train_encoder(Graph(4, []), tiny_cfg)])[0] == 0.0


def test_checkpoint_keeps_label_vocabulary(tmp_path, tiny_cfg):
    # labels {0, 1} under a vocabulary of 3 node and 2 edge labels: a reload
    # must not narrow the vocabulary to the labels in use
    g = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0], edge_labels=[0, 0],
              num_node_labels=3, num_edge_labels=2)
    path = tmp_path / "enc.json"
    save_encoder(train_encoder(g, tiny_cfg), tiny_cfg, path)
    back = load_encoder(path)
    assert (back.graph.num_node_labels, back.graph.num_edge_labels) == (3, 2)


def _saved_text(enc, cfg, path):
    save_encoder(enc, cfg, path)
    return path.read_text()


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    cfg = TrainConfig(embed_dim=3, encoder_layers=2)
    enc = build_encoder(random_graph(5, 0.5, 3), cfg, graph_id="g3")
    rng = np.random.default_rng(3)
    for a in enc.params.values():
        a[...] = rng.normal(size=a.shape)
    text = _saved_text(enc, cfg, tmp_path / "enc.json")
    back = load_encoder(tmp_path / "enc.json")
    assert json.loads(text)["meta"]["graph_id"] == "g3" and back.graph_id == "g3"
    assert back.graph == enc.graph and not back.trained
    assert list(back.params) == list(enc.params)
    for name, a in enc.params.items():
        assert back.params[name].shape == a.shape
        assert back.params[name].tobytes() == a.tobytes()


def test_checkpoint_checksum_detects_corruption(tmp_path, triangle):
    cfg = TrainConfig(embed_dim=2)
    path = tmp_path / "enc.json"
    text = _saved_text(build_encoder(triangle, cfg), cfg, path)
    first = json.loads(text)["values"]["embedding"][0]
    path.write_text(text.replace(f'"{first}"', f'"{float(2.0).hex()}"', 1))
    with pytest.raises(CheckpointError, match="checksum"):
        load_encoder(path)


def test_checkpoint_rejects_unknown_version(tmp_path, triangle):
    cfg = TrainConfig(embed_dim=2)
    path = tmp_path / "enc.json"
    text = _saved_text(build_encoder(triangle, cfg), cfg, path)
    assert text.startswith('{"version": 1, ')
    path.write_text(text.replace('"version": 1', '"version": 99', 1))
    with pytest.raises(CheckpointError, match="version"):
        load_encoder(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_checkpoint_roundtrip_property(seed):
    # any magnitude, 1e-8 to 1e8, comes back bit for bit
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(embed_dim=3, encoder_layers=1)
    enc = build_encoder(make_ring(3), cfg)
    for a in enc.params.values():
        a[...] = rng.normal(size=a.shape) * 10.0 ** float(rng.integers(-8, 8))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "enc.json")
        save_encoder(enc, cfg, path)
        back = load_encoder(path)
    for name, a in enc.params.items():
        assert back.params[name].tobytes() == a.tobytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the format's bytes: top-level keys, meta fields and their order, float.hex
    # per element and the checksum's JSON; a reload saves back to the same bytes
    cfg = TrainConfig(embed_dim=2, encoder_layers=1)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_encoder(build_encoder(make_ring(4), cfg, graph_id=0), cfg, first)
    ckpt = json.loads(first.read_text())
    assert list(ckpt) == ["version", "shapes", "values", "checksum", "meta"]
    assert list(ckpt["meta"]) == ["graph_id", "config_hash", "node_count", "embed_dim",
                                  "hidden_layers", "trained", "graph"]
    assert (hashlib.sha256(first.read_bytes()).hexdigest()
            == "040cb3aa6384a95ecd74f666951cbde5362fc52e8bbb720dd59d6be1e090aa83")
    save_encoder(load_encoder(first), cfg, second)
    assert second.read_bytes() == first.read_bytes()


# The checkpoint version and the digest (SourceEncoder.digest: graph, param
# names, shapes and bytes) of one trained encoder. The CLI reuses a checkpoint
# by its version, config and graph, not by the code that trained it, so a
# change that moves these bits must bump CHECKPOINT_VERSION (a warm run would
# reuse the old encoders otherwise) and pin the new digest here. The cell pin
# in test_divergence trains its encoders, so CELL_FORMAT is bumped with it.
TRAINED_PIN = (1, "3cf874362670457ce5aa91be5fbcf3926813a2688867560e5a1162825245ef00")


def test_trained_encoder_is_pinned_to_the_checkpoint_version(tmp_path):
    # test_checkpoint_bytes_are_pinned saves an untrained encoder, so a change
    # to encoder training alone could not fail it; a reload keeps the digest
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], node_labels=[0, 1, 0, 1, 2])
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30)
    enc = train_encoder(g, cfg, graph_id=0)
    assert (encoder.CHECKPOINT_VERSION, enc.digest) == TRAINED_PIN
    save_encoder(enc, cfg, tmp_path / "enc.json")
    assert load_encoder(tmp_path / "enc.json").digest == enc.digest


def test_positive_log_loss_matches_edge_loop(tiny_cfg):
    for s in range(4):
        enc = train_encoder(random_graph(4 + 3 * s, 0.5, 30 + s), tiny_cfg)
        logits, _ = nn.forward(enc.layers, enc.embedding)
        assert same_bits(positive_log_loss([enc])[0], positive_log_loss_loop(logits, enc.graph.edges))


def test_batched_self_losses_match_lone_forwards(tiny_cfg):
    # one stacked forward per node count and parameter shapes, and each loss
    # keeps the bits of its own encoder's lone 2-D forward, in input order
    graphs = [random_graph(n, 0.5, 40 + i) for i, n in enumerate([5, 7, 5, 9, 7, 5])]
    encs = [train_encoder(g, tiny_cfg, graph_id=i) for i, g in enumerate(graphs)]
    encs += [train_encoder(Graph(5, []), tiny_cfg, graph_id=6),
             build_encoder(graphs[0], TrainConfig(embed_dim=3), graph_id=7)]
    losses = positive_log_loss(encs)
    assert len(losses) == len(encs)
    for enc, loss in zip(encs, losses):
        logits, _ = nn.forward(enc.layers, enc.embedding)
        assert same_bits(loss, positive_log_loss_loop(logits, enc.graph.edges))


def test_positive_log_loss_strictly_positive(tiny_cfg):
    g = random_graph(6, 0.5, 4)
    enc = train_encoder(g, tiny_cfg)
    assert positive_log_loss([enc])[0] > 0.0
