import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gradient_check, neighbor_probs, structural_loss
from graphdiv import nn
from graphdiv.attention import (_RESTART_SCHEDULE, AlignmentProblem, AttentionPair,
                                AugmentedEncoder, argmax_alignment,
                                attention_loss_and_grads, attention_matrix,
                                init_attention,
                                source_prob_matrix, train_attention, train_attentions)
from graphdiv.encoder import (ContractViolation, TrainConfig, TrainingFault,
                              build_encoder, derive_seed, encoder_loss_and_grads,
                              train_encoder)
from graphdiv.generators import make_barbell, random_graph
from graphdiv.graphs import (Graph, GraphError, edge_attr_matrix,
                             neighborhood_attr_matrix, node_label_onehot)


def hard_pair(n, perm=None):
    """Attention logits that softmax to a (near-exact) permutation matrix."""
    if perm is None:
        perm = list(range(n))
    fwd = np.full((n, n), -50.0)
    rev = np.full((n, n), -50.0)
    for u, v in enumerate(perm):
        fwd[v, u] = 50.0
        rev[u, v] = 50.0
    return AttentionPair(fwd, rev)


@pytest.fixture
def small_source(tiny_cfg):
    g = random_graph(5, 0.5, 11)
    return train_encoder(g, tiny_cfg, graph_id=0)


def test_pair_shape_validation():
    with pytest.raises(nn.ShapeError):
        AttentionPair(np.zeros((3, 4)), np.zeros((3, 4)))
    pair = AttentionPair(np.zeros((3, 4)), np.zeros((4, 3)))
    assert pair.forward.shape == (3, 4) and pair.reverse.shape == (4, 3)


def test_augmented_encoder_shape_check(triangle):
    # forward logits map the source_probs' nodes onto the target's
    pair = AttentionPair(np.zeros((3, 4)), np.zeros((4, 3)))
    target = random_graph(4, 0.5, 1)
    assert AugmentedEncoder(pair, target, np.zeros((3, 3))).attention is pair
    with pytest.raises(nn.ShapeError):
        AugmentedEncoder(pair, target, np.zeros((4, 4)))
    with pytest.raises(nn.ShapeError):
        AugmentedEncoder(pair, triangle, np.zeros((3, 3)))


def test_zero_logits_give_uniform_dist():
    pair = AttentionPair(np.zeros((4, 2)), np.zeros((2, 4)))
    assert np.allclose(attention_matrix(pair), 0.25)


def test_attention_columns_sum_to_one():
    rng = np.random.default_rng(0)
    pair = AttentionPair(rng.normal(size=(5, 7)), rng.normal(size=(7, 5)))
    assert np.allclose(attention_matrix(pair).sum(axis=0), 1.0, atol=1e-9)


def test_identity_attention_is_exact_pass_through(small_source):
    # identity alignment on the source's own graph reproduces the source's
    # predictions, so the structural loss equals the source self-loss
    g = small_source.graph
    s = source_prob_matrix(small_source)
    ae = AugmentedEncoder(hard_pair(g.node_count), g, s)
    assert np.allclose(neighbor_probs(ae), s, atol=1e-12)
    loss, _ = encoder_loss_and_grads(small_source.params, g.adjacency_matrix())
    assert structural_loss(ae) == pytest.approx(loss, rel=1e-9)


def test_fit_scores_with_its_own_source_probs(small_source):
    # the fitted encoder carries the fit's S, equal to a fresh forward pass
    ae = train_attention(small_source, random_graph(4, 0.5, 2), TrainConfig(embed_dim=4))
    assert ae.source_probs.tobytes() == source_prob_matrix(small_source).tobytes()


def test_zero_attention_predicts_global_mean(small_source):
    # uniform mixture both ways: every prediction is the mean source probability
    g = small_source.graph
    n = g.node_count
    s = source_prob_matrix(small_source)
    ae = AugmentedEncoder(AttentionPair(np.zeros((n, n)), np.zeros((n, n))), g, s)
    assert np.allclose(neighbor_probs(ae), s.mean(), atol=1e-12)


def test_zero_encoder_zero_attention_oracle(tiny_cfg):
    # all-zero source weights predict 1/2 everywhere; any convex mixture stays
    # 1/2, so the full structural BCE is |V_T|^2 ln 2 exactly
    g = random_graph(5, 0.5, 3)
    src = train_encoder(g, tiny_cfg)
    for p in src.params.values():
        p[...] = 0.0
    target = random_graph(4, 0.6, 4)
    ae = AugmentedEncoder(AttentionPair(np.zeros((5, 4)), np.zeros((4, 5))), target,
                          source_prob_matrix(src))
    assert structural_loss(ae) == pytest.approx(16 * np.log(2))


def gradient_error(problem, pair):
    """Gradient-check error of attention_loss_and_grads on a stack of one."""
    params = {name: a[None].copy() for name, a in pair.items()}

    def loss_and_grads(p):
        losses, grads = attention_loss_and_grads(problem, p)
        return float(losses[0]), grads

    return gradient_check(params, loss_and_grads)


def test_attention_gradient_check_structural(tiny_cfg, small_source):
    target = random_graph(6, 0.5, 4)
    rng = np.random.default_rng(7)
    pair = init_attention(small_source, target, rng, scale=0.5)
    cfg = TrainConfig(node_reg_coef=0.0, edge_reg_coef=0.0)
    assert gradient_error(AlignmentProblem([small_source], [target], cfg), pair) < 1e-4


def test_attention_gradient_check_with_regularizers(tiny_cfg, labeled_pair):
    g1, g2 = labeled_pair
    src = train_encoder(g1, tiny_cfg, graph_id=1)
    rng = np.random.default_rng(3)
    cfg = TrainConfig(node_reg_coef=1.0, edge_reg_coef=1.5)
    pair = init_attention(src, g2, rng, scale=0.5)
    assert gradient_error(AlignmentProblem([src], [g2], cfg), pair) < 1e-4


def test_stacked_loss_matches_stacks_of_one(tiny_cfg, labeled_pair):
    # slice c * R + r of a (cells x restarts) stack gets the bits a stack of
    # one gives cell c with init r alone
    g1, g2 = labeled_pair
    g3 = Graph(6, [(0, 2), (1, 3), (2, 4), (3, 5)], node_labels=[0, 0, 1, 1, 0, 1],
               edge_labels=[1, 2, 0, 1], num_node_labels=2, num_edge_labels=3)
    targets = [g2, g1, g3]
    src = train_encoder(g1, tiny_cfg, graph_id=1)
    cfg = TrainConfig(node_reg_coef=1.0, edge_reg_coef=1.5)
    problem = AlignmentProblem([src] * 3, targets, cfg, restarts=2)
    # the source probabilities are a per-slice stack, like the adjacencies
    assert problem.adjacency.shape == (6, 6, 6) and problem.source_probs.shape == (6, 6, 6)
    rng = np.random.default_rng(5)
    pairs = [init_attention(src, g2, rng, scale=s) for s in (1e-2, 0.3, 2.0, 1e-2, 0.5, 1.0)]
    losses, grads = attention_loss_and_grads(
        problem, {name: np.stack([p[name] for p in pairs]) for name in ("forward", "reverse")})
    for b, pair in enumerate(pairs):
        one, one_grads = attention_loss_and_grads(
            AlignmentProblem([src], [targets[b // 2]], cfg),
            {name: a[None] for name, a in pair.items()})
        assert losses[b:b + 1].tobytes() == one.tobytes()
        for name in ("forward", "reverse"):
            assert grads[name][b:b + 1].tobytes() == one_grads[name].tobytes()


def test_stack_rejects_mixed_targets(tiny_cfg, labeled_pair):
    g1, g2 = labeled_pair
    src = train_encoder(g1, tiny_cfg)
    with pytest.raises(nn.ShapeError):
        AlignmentProblem([src] * 2, [g2, random_graph(5, 0.5, 1)], TrainConfig())
    with pytest.raises(GraphError, match="which labels"):
        AlignmentProblem([src] * 2, [g2, random_graph(6, 0.5, 1)], TrainConfig())


def test_cross_source_stack_matches_pairs_alone(tiny_cfg, labeled_pair, monkeypatch):
    # two same-size sources whose label matrices differ, against 3 targets
    # with 2 restarts each, as one 12-slice stack: every cell gets the bits
    # train_attention gives that pair alone
    import graphdiv.attention as att

    g1, g2 = labeled_pair
    g3 = Graph(6, [(0, 2), (1, 3), (2, 4), (3, 5)], node_labels=[0, 0, 1, 1, 0, 1],
               edge_labels=[1, 2, 0, 1], num_node_labels=2, num_edge_labels=3)
    sources = [train_encoder(g1, tiny_cfg, graph_id=1), train_encoder(g2, tiny_cfg, graph_id=2)]
    assert node_label_onehot(g1).tobytes() != node_label_onehot(g2).tobytes()
    assert edge_attr_matrix(g1).tobytes() != edge_attr_matrix(g2).tobytes()
    cfg = TrainConfig(scoring_epochs=30, node_reg_coef=1.0, edge_reg_coef=1.5)
    cells = [(src, target, tid) for src in sources for target, tid in zip((g2, g1, g3), "abc")]
    built = []
    real = att.source_prob_matrix
    monkeypatch.setattr(att, "source_prob_matrix", lambda enc: built.append(enc) or real(enc))
    stacked = train_attentions([c[0] for c in cells], [c[1] for c in cells], cfg,
                               [c[2] for c in cells], restarts=2)
    # S is built once per distinct source, not once per cell or slice
    assert built == sources
    for (src, target, tid), ae in zip(cells, stacked):
        alone = train_attention(src, target, cfg, target_graph_id=tid, restarts=2)
        assert ae.target_graph is target
        assert ae.attention.forward.tobytes() == alone.attention.forward.tobytes()
        assert ae.attention.reverse.tobytes() == alone.attention.reverse.tobytes()
        assert np.array(ae.loss_trace).tobytes() == np.array(alone.loss_trace).tobytes()
        assert ae.source_probs.tobytes() == alone.source_probs.tobytes()


def test_stack_rejects_mixed_sources(tiny_cfg, labeled_pair):
    g1, g2 = labeled_pair
    labeled = train_encoder(g1, tiny_cfg, graph_id=1)
    smaller = train_encoder(random_graph(5, 0.5, 1), tiny_cfg, graph_id=2)
    unlabeled = train_encoder(random_graph(6, 0.5, 1), tiny_cfg, graph_id=3)
    with pytest.raises(nn.ShapeError, match="sources"):
        AlignmentProblem([labeled, smaller], [g2, g2], TrainConfig())
    with pytest.raises(GraphError, match="sources differ in which labels"):
        AlignmentProblem([labeled, unlabeled], [g2, g2], TrainConfig())
    with pytest.raises(ValueError, match="one source encoder per target"):
        AlignmentProblem([labeled], [g2, g2], TrainConfig())


def label_penalty(source, target, pair, node_reg_coef=1.0, edge_reg_coef=0.0):
    """The label-penalty part of the training loss of one pair: the loss with
    the given coefficients minus the loss with both at 0, on a stack of one."""
    params = {"forward": pair.forward[None], "reverse": pair.reverse[None]}

    def loss(node, edge):
        cfg = TrainConfig(node_reg_coef=node, edge_reg_coef=edge)
        return float(attention_loss_and_grads(AlignmentProblem([source], [target], cfg), params)[0][0])

    return loss(node_reg_coef, edge_reg_coef) - loss(0.0, 0.0)


def test_node_attr_inferred_one_hot_and_uniform(tiny_cfg):
    # the forward penalty is the cross-entropy of each target node's label
    # against the label distribution its attention column infers. On a
    # 4-cycle labeled [0, 1, 0, 1] every neighborhood is one-hot, so an
    # identity reverse map costs 0 and the forward side is all that remains.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], node_labels=[0, 1, 0, 1])
    src = train_encoder(g, tiny_cfg)
    reverse = hard_pair(4).reverse
    # one-hot attention of target node u on source node u + 2, which carries
    # the same label, infers that label exactly
    shifted = AttentionPair(hard_pair(4, perm=[2, 3, 0, 1]).forward, reverse)
    assert label_penalty(src, g, shifted) == pytest.approx(0.0, abs=1e-6)
    # uniform attention over labels {0, 1, 0, 1} infers (1/2, 1/2): ln 2
    uniform = AttentionPair(np.zeros((4, 4)), reverse)
    assert label_penalty(src, g, uniform) == pytest.approx(np.log(2))


def test_reg_loss_uniform_attention_is_ln2(tiny_cfg):
    # a 4-cycle labeled [0, 1, 0, 1]: every neighborhood holds the other label
    # only. Uniform forward attention infers [1/2, 1/2] for every target node,
    # and so does a uniform reverse map, so each side costs exactly ln 2.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], node_labels=[0, 1, 0, 1])
    src = train_encoder(g, tiny_cfg)
    uniform = AttentionPair(np.zeros((4, 4)), np.zeros((4, 4)))
    assert label_penalty(src, g, uniform) == pytest.approx(2 * np.log(2))


def test_reg_loss_perfect_alignment_is_zero(tiny_cfg):
    # identity on the 4-cycle: both sides reproduce one-hot rows, cost 0
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], node_labels=[0, 1, 0, 1])
    src = train_encoder(g, tiny_cfg)
    assert label_penalty(src, g, hard_pair(4)) == pytest.approx(0.0, abs=1e-6)
    # on a path labeled [0, 1, 2, 3] the forward side is still 0, while the
    # reverse side compares neighborhood label distributions and reaches its
    # floor, their mean entropy: the endpoints see one label (0), the middle
    # nodes two (ln 2 each), so ln 2 / 2 over four source nodes
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], node_labels=[0, 1, 2, 3])
    src = train_encoder(g, tiny_cfg)
    assert label_penalty(src, g, hard_pair(4)) == pytest.approx(np.log(2) / 2, abs=1e-6)


def test_reg_loss_hand_computed_three_nodes(tiny_cfg):
    # source path 0-1-2 labeled [0, 1, 1]; each target node's attention
    # column is hand-set, the reverse logits are zero
    g = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 1])
    src = train_encoder(g, tiny_cfg)
    target = Graph(2, [(0, 1)], node_labels=[0, 1], num_node_labels=2)
    a = np.array([[0.7, 0.1], [0.2, 0.3], [0.1, 0.6]])  # columns sum to 1
    pair = AttentionPair(np.log(a), np.zeros((2, 3)))
    # forward: inferred label dists are node 0 -> (0.7, 0.3), node 1 -> (0.1, 0.9)
    forward = -(np.log(0.7) + np.log(0.9)) / 2.0
    # reverse: the uniform map infers (1/2, 1/2) for every source node; their
    # neighborhoods (0, 1), (1/2, 1/2), (0, 1) each cost ln 2
    reverse = np.log(2)
    assert label_penalty(src, target, pair) == pytest.approx(forward + reverse, rel=1e-9)


def test_node_attr_inferred_requires_shared_vocab(tiny_cfg):
    g = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0], edge_labels=[0, 1])
    src = train_encoder(g, tiny_cfg)
    wider_nodes = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0], num_node_labels=3)
    with pytest.raises(GraphError, match="node label vocabularies differ"):
        AlignmentProblem([src], [wider_nodes], TrainConfig())
    wider_edges = Graph(3, [(0, 1), (1, 2)], edge_labels=[0, 1], num_edge_labels=3)
    with pytest.raises(GraphError, match="edge label vocabularies differ"):
        AlignmentProblem([src], [wider_edges], TrainConfig())
    # an unlabeled side turns the penalty off rather than failing
    assert AlignmentProblem([src], [Graph(3, [(0, 1)])], TrainConfig()).penalties == []


def test_train_requires_trained_source(tiny_cfg, triangle):
    enc = build_encoder(triangle, tiny_cfg)
    with pytest.raises(ContractViolation):
        train_attention(enc, triangle, tiny_cfg)
    with pytest.raises(ValueError):
        train_attention(train_encoder(triangle, tiny_cfg), triangle, tiny_cfg, restarts=0)


def test_source_frozen_during_attention(tiny_cfg, small_source):
    before = {k: v.copy() for k, v in small_source.params.items()}
    train_attention(small_source, random_graph(4, 0.5, 2), tiny_cfg, target_graph_id=1)
    for k, v in small_source.params.items():
        assert np.array_equal(v, before[k])


def test_zero_epochs_keeps_init(small_source):
    cfg = TrainConfig(embed_dim=4, scoring_epochs=0)
    target = random_graph(4, 0.5, 2)
    ae = train_attention(small_source, target, cfg, target_graph_id=3)
    expected = init_attention(
        small_source, target,
        np.random.default_rng(__import__("graphdiv.encoder", fromlist=["derive_seed"])
                              .derive_seed("attention", 0, 3, cfg.rng_seed, 0)))
    assert np.array_equal(ae.attention.forward, expected["forward"])
    assert np.array_equal(ae.attention.reverse, expected["reverse"])


def test_training_reduces_loss_and_is_deterministic(tiny_cfg, small_source):
    target = random_graph(6, 0.5, 5)
    cfg = TrainConfig(embed_dim=4, scoring_epochs=150, learning_rate=5e-2)
    ae1 = train_attention(small_source, target, cfg, target_graph_id=2)
    ae2 = train_attention(small_source, target, cfg, target_graph_id=2)
    assert ae1.loss_trace[-1] < ae1.loss_trace[0]
    assert ae1.loss_trace == ae2.loss_trace
    assert np.array_equal(ae1.attention.forward, ae2.attention.forward)


def test_restarts_never_hurt(small_source):
    target = random_graph(7, 0.4, 9)
    cfg = TrainConfig(scoring_epochs=200, learning_rate=5e-2)
    one = train_attention(small_source, target, cfg, target_graph_id=4, restarts=1)
    three = train_attention(small_source, target, cfg, target_graph_id=4, restarts=3)
    assert three.loss_trace[-1] <= one.loss_trace[-1] + 1e-12


def test_labeled_barbell_recovers_identity():
    g = make_barbell(5, labeled=True)
    cfg = TrainConfig(rng_seed=0, learning_rate=5e-2, scoring_epochs=800)
    src = train_encoder(g, cfg)
    ae = train_attention(src, g, cfg, target_graph_id=0, restarts=3)
    align = argmax_alignment(ae)
    assert np.sum(align == np.arange(10)) >= 8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_augmented_probs_are_convex_mixtures(seed):
    # every augmented prediction lies inside the hull of source probabilities
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=5, rng_seed=seed % 7)
    g = random_graph(5, 0.5, seed % 13)
    src = train_encoder(g, cfg)
    target = random_graph(4, 0.5, seed % 11)
    pair = init_attention(src, target, rng, scale=2.0)
    s = source_prob_matrix(src)
    pred = neighbor_probs(AugmentedEncoder(AttentionPair(**pair), target, s))
    assert np.all(pred >= s.min() - 1e-12)
    assert np.all(pred <= s.max() + 1e-12)


# --- reference oracle: one restart at a time, as the fit ran before stacking --
#
# A plain per-restart loop over 2-D matrices with a dict-loop Adam. The
# stacked fit must reproduce its bits exactly: every restart slice runs the
# same elementwise operations in the same order, with per-slice reductions.

def _reference_loss_and_grads(source, target, cfg, forward, reverse):
    s_graph, n_t, n_s = source.graph, target.node_count, source.node_count
    terms = []
    if cfg.node_reg_coef > 0 and s_graph.node_labels is not None and target.node_labels is not None:
        terms.append(("forward", cfg.node_reg_coef, node_label_onehot(s_graph),
                      node_label_onehot(target)))
        terms.append(("reverse", cfg.node_reg_coef, neighborhood_attr_matrix(target, "node"),
                      neighborhood_attr_matrix(s_graph, "node")))
    if cfg.edge_reg_coef > 0 and s_graph.edge_labels is not None and target.edge_labels is not None:
        terms.append(("forward", cfg.edge_reg_coef, edge_attr_matrix(s_graph),
                      edge_attr_matrix(target)))
        terms.append(("reverse", cfg.edge_reg_coef, neighborhood_attr_matrix(target, "edge"),
                      neighborhood_attr_matrix(s_graph, "edge")))

    def ce(observed, q, coef, rows):
        qc = np.maximum(q, 1e-12)
        loss = -coef * np.sum(observed * np.log(qc)) / rows
        return loss, np.where(q > 1e-12, -(coef / rows) * observed / qc, 0.0)

    a = target.adjacency_matrix()
    p = nn.softmax(forward, axis=0)
    s = source_prob_matrix(source)
    w = nn.softmax(reverse, axis=1)
    mixrows = p.T @ s
    pred = mixrows @ w.T
    pc = np.clip(pred, 1e-9, 1.0 - 1e-9)
    loss = float(-np.sum(a * np.log(pc) + (1.0 - a) * np.log1p(-pc)))
    inside = (pred > 1e-9) & (pred < 1.0 - 1e-9)
    g_pred = np.where(inside, (pc - a) / (pc * (1.0 - pc)), 0.0)
    g_w = g_pred.T @ mixrows
    g_reverse = w * (g_w - np.sum(w * g_w, axis=1, keepdims=True))
    g_p = s @ (g_pred @ w).T
    p_rev = None
    g_p_rev = np.zeros_like(reverse)
    for side, coef, feats, observed in terms:
        if side == "forward":
            term, gq = ce(observed, p.T @ feats, coef, n_t)
            loss += term
            g_p += feats @ gq.T
        else:
            if p_rev is None:
                p_rev = nn.softmax(reverse, axis=0)
            term, gq = ce(observed, p_rev.T @ feats, coef, n_s)
            loss += term
            g_p_rev += feats @ gq.T
    g_forward = p * (g_p - np.sum(p * g_p, axis=0, keepdims=True))
    if p_rev is not None:
        g_reverse = g_reverse + p_rev * (g_p_rev - np.sum(p_rev * g_p_rev, axis=0, keepdims=True))
    return float(loss), {"forward": g_forward, "reverse": g_reverse}


def _reference_adam(params, grads, state, lr):
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m += (1 - 0.9) * (g - m)
        v += (1 - 0.999) * (g * g - v)
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_train_attention(source, target, cfg, target_graph_id, restarts):
    """(forward, reverse, loss trace) of the winning restart, fitted one by one."""
    best = None
    for restart in range(restarts):
        scale, lr_mult = _RESTART_SCHEDULE[restart % len(_RESTART_SCHEDULE)]
        rng = np.random.default_rng(
            derive_seed("attention", source.graph_id, target_graph_id, cfg.rng_seed, restart))
        params = init_attention(source, target, rng, scale=scale)
        state = {"t": 0, "m": {}, "v": {}}
        trace = []
        for _ in range(cfg.scoring_epochs):
            loss, grads = _reference_loss_and_grads(source, target, cfg,
                                                    params["forward"], params["reverse"])
            trace.append(loss)
            _reference_adam(params, grads, state, cfg.learning_rate * lr_mult)
        final = trace[-1] if trace else float("inf")
        if best is None or final < best[0]:
            best = (final, params["forward"], params["reverse"], trace)
    return best[1:]


@pytest.mark.parametrize("epochs", [0, 1, 25])
@pytest.mark.parametrize("restarts", [1, 3, 6])
@pytest.mark.parametrize("labeled", [False, True])
def test_stacked_fit_matches_reference(labeled_pair, labeled, restarts, epochs):
    # restarts=6 wraps past the five-entry restart schedule
    g1, g2 = labeled_pair
    if not labeled:
        g1, g2 = random_graph(7, 0.5, 21), random_graph(5, 0.6, 22)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30, scoring_epochs=epochs,
                      learning_rate=5e-2, node_reg_coef=1.0, edge_reg_coef=1.5, rng_seed=3)
    src = train_encoder(g1, cfg, graph_id=2)
    ae = train_attention(src, g2, cfg, target_graph_id=9, restarts=restarts)
    forward, reverse, trace = reference_train_attention(src, g2, cfg, 9, restarts)
    assert ae.attention.forward.tobytes() == forward.tobytes()
    assert ae.attention.reverse.tobytes() == reverse.tobytes()
    assert np.array(ae.loss_trace).tobytes() == np.array(trace).tobytes()


def test_diverging_restart_raises_training_fault(small_source, monkeypatch):
    import graphdiv.attention as att

    real = att.attention_loss_and_grads

    def poisoned(problem, params):
        losses, grads = real(problem, params)
        losses[-1] = np.nan
        return losses, grads

    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    # the last restart of target 1 diverges; the fault names that target once
    with pytest.raises(TrainingFault, match=r"epoch 0 for graph id\(s\) \[1\]$"):
        train_attention(small_source, random_graph(4, 0.5, 2), TrainConfig(embed_dim=4),
                        target_graph_id=1, restarts=2)


def test_stacked_fault_names_only_diverged_targets(small_source, monkeypatch):
    import graphdiv.attention as att

    real = att.attention_loss_and_grads

    def poisoned(problem, params):
        losses, grads = real(problem, params)
        losses[[2, 3, 5]] = np.nan  # both restarts of target 6, one of target 7
        return losses, grads

    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    targets = [random_graph(4, 0.5, s) for s in (2, 3, 4)]
    fitted = train_attentions([small_source] * 3, targets, TrainConfig(embed_dim=4), [5, 6, 7],
                              restarts=2)
    assert [ae.fault and str(ae.fault) for ae in fitted] == [
        None,
        "loss diverged (non-finite) at epoch 0 for graph id(s) [6]",
        "loss diverged (non-finite) at epoch 0 for graph id(s) [7]"]


@pytest.mark.parametrize("poison_epoch", [4, 9])
def test_gradient_fault_stays_in_its_cell(small_source, monkeypatch, poison_epoch):
    # a NaN gradient in one restart of target 6 while every loss stays finite:
    # that cell faults at the next epoch (at `scoring_epochs`, read off its
    # fitted arrays, when the fault comes at the last step), and the other
    # cells keep the bits of a clean fit
    import graphdiv.attention as att

    real = att.attention_loss_and_grads
    calls = []

    def poisoned(problem, params):
        losses, grads = real(problem, params)
        if len(calls) == poison_epoch:
            grads["reverse"][3, 0, 0] = np.nan  # cell 1 (target 6), restart 1
        calls.append(None)
        return losses, grads

    cfg = TrainConfig(embed_dim=4, scoring_epochs=10)
    targets = [random_graph(4, 0.5, s) for s in (2, 3, 4)]
    clean = train_attentions([small_source] * 3, targets, cfg, [5, 6, 7], restarts=2)
    monkeypatch.setattr(att, "attention_loss_and_grads", poisoned)
    fitted = train_attentions([small_source] * 3, targets, cfg, [5, 6, 7], restarts=2)
    assert str(fitted[1].fault) == (
        f"loss diverged (non-finite) at epoch {poison_epoch + 1} for graph id(s) [6]")
    for c in (0, 2):
        assert fitted[c].fault is None
        assert fitted[c].attention.forward.tobytes() == clean[c].attention.forward.tobytes()
        assert fitted[c].attention.reverse.tobytes() == clean[c].attention.reverse.tobytes()
        assert np.array(fitted[c].loss_trace).tobytes() == np.array(clean[c].loss_trace).tobytes()
