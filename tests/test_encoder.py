import json

import numpy as np
import pytest

from conftest import (encoder_stack, encoder_stack_gradient_errors, positive_log_loss_loop,
                      same_bits)
from graphdiv import encoder, nn
from graphdiv.attention import source_prob_matrix
from graphdiv.encoder import (TrainConfig, TrainingFault, build_encoder, derive_seed,
                              encoder_loss_and_grads, load_encoder, positive_log_loss,
                              fit_encoders, save_encoder, train_encoder)
from graphdiv.generators import make_barbell, random_graph
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
    params, trace = reference
    assert enc.trained
    assert enc.params.keys() == params.keys()
    for name, p in params.items():
        assert enc.params[name].tobytes() == p.tobytes(), name
    assert np.array(enc.loss_trace).tobytes() == np.array(trace).tobytes()


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
    assert positive_log_loss(enc) == pytest.approx(6 * np.log(2))


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


def test_edgeless_graph_self_loss_is_zero(tiny_cfg):
    # no edge, no positive-edge term: the baseline is exactly 0.0, not positive
    assert positive_log_loss(train_encoder(Graph(4, []), tiny_cfg)) == 0.0


def test_checkpoint_keeps_label_vocabulary(tmp_path, tiny_cfg):
    # labels {0, 1} under a vocabulary of 3 node and 2 edge labels: a reload
    # must not narrow the vocabulary to the labels in use
    g = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0], edge_labels=[0, 0],
              num_node_labels=3, num_edge_labels=2)
    path = tmp_path / "enc.json"
    save_encoder(train_encoder(g, tiny_cfg), tiny_cfg, path)
    back = load_encoder(path)
    assert (back.graph.num_node_labels, back.graph.num_edge_labels) == (3, 2)


def test_positive_log_loss_matches_edge_loop(tiny_cfg):
    for s in range(4):
        enc = train_encoder(random_graph(4 + 3 * s, 0.5, 30 + s), tiny_cfg)
        logits, _ = nn.forward(enc.layers, enc.embedding)
        assert same_bits(positive_log_loss(enc), positive_log_loss_loop(logits, enc.graph.edges))


def test_positive_log_loss_strictly_positive(tiny_cfg):
    g = random_graph(6, 0.5, 4)
    enc = train_encoder(g, tiny_cfg)
    assert positive_log_loss(enc) > 0.0
