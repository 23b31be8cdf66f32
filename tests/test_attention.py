import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (fit_stack_calls, fit_stack_every_epoch, gradient_check, loss_epochs,
                      neighbor_probs, structural_loss)
from graphdiv import attention, encoder, nn
from graphdiv.attention import (_LOG_FLOOR, _PROB_FLOOR, _RESTART_SCHEDULE, AlignmentProblem,
                                AttentionPair, AugmentedEncoder, argmax_alignment,
                                attention_loss_and_grads, attention_matrix,
                                init_attention,
                                source_prob_matrix, train_attention, train_attentions)
from graphdiv.encoder import (ContractViolation, SourceEncoder, TrainConfig, TrainingFault,
                              build_encoder, derive_seed, encoder_loss_and_grads,
                              fit_encoders, train_encoder)
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


def fit_constants(problem):
    """The arrays attention_loss_and_grads reads from the problem."""
    return ([problem.adjacency, problem.non_adjacency, problem.fit_source_probs,
             problem.fit_source_probs_t, *problem.ones.values()]
            + [a for term in problem.penalties for a in term[1:]])


def test_fit_runs_in_float32_and_scoring_reads_float64(labeled_pair):
    # the fit's inits and constants are float32, S excepted; each cell hands
    # scoring its winning logits as float64 (exact float32 values) and the
    # float64 S of its source, not an upcast of the fit's copy
    g1, g2 = labeled_pair
    cfg = TrainConfig(embed_dim=4, encoding_epochs=20, scoring_epochs=20, rng_seed=1)
    src = train_encoder(g1, cfg, graph_id=0)
    with fit_stack_calls() as calls:
        fitted = train_attentions([src, src], [g1, g2], cfg, [0, 1], restarts=2)
    [(inits, _, _)] = calls
    assert {a.dtype for init in inits for a in init.values()} == {np.dtype(np.float32)}
    problem = AlignmentProblem([src, src], [g1, g2], cfg, 2, np.float32)
    constants = fit_constants(problem)
    # A, 1 - A, S, S^T, one ones vector (both graphs have 6 nodes) and the
    # features and weights of the forward and the reverse penalty
    assert len(constants) == 9 and {a.dtype for a in constants} == {np.dtype(np.float32)}
    stacked = {name: np.stack([init[name] for init in inits]) for name in inits[0]}
    losses, grads = attention_loss_and_grads(problem, stacked)
    assert {a.dtype for a in [losses, *grads.values()]} == {np.dtype(np.float32)}
    for ae in fitted:
        for logits in (ae.attention.forward, ae.attention.reverse):
            assert logits.dtype == np.float64
            assert logits.astype(np.float32).astype(np.float64).tobytes() == logits.tobytes()
        assert ae.source_probs.dtype == np.float64
        assert ae.source_probs.tobytes() == source_prob_matrix(src).tobytes()


def with_tiny_probs(source):
    """A trained copy of source whose output bias is lowered by 95 at the odd
    columns and by 720 at column 0. Trained logits spread over tens, so S
    gets entries near e^-95, many of them float32 subnormals, and near
    e^-720, some of them float64 subnormals, as the benchmark's encoders do."""
    params = dict(source.params)
    bias = params["output.bias"].copy()
    bias[1::2] -= 95.0
    bias[0] -= 720.0
    params["output.bias"] = bias
    return SourceEncoder(source.graph, source.graph_id, params, trained=True)


def test_fit_source_probs_hold_no_subnormal(labeled_pair):
    # a matmul over float32 subnormals runs tens of times slower, so the
    # fit's S sets every entry below the dtype's smallest normal to 0 and
    # keeps the rest; the AugmentedEncoder keeps the unflushed float64 S
    g1, g2 = labeled_pair
    cfg = TrainConfig(embed_dim=4, encoding_epochs=20, scoring_epochs=5, rng_seed=1)
    src = with_tiny_probs(train_encoder(g1, cfg, graph_id=0))
    s = source_prob_matrix(src)
    for dtype in (attention.FIT_DTYPE, np.float64):
        cast, tiny = s.astype(dtype), np.finfo(dtype).tiny
        assert ((cast > 0) & (cast < tiny)).any()
        problem = AlignmentProblem([src, src], [g1, g2], cfg, 2, dtype)
        fit_s = problem.fit_source_probs
        assert fit_s.dtype == dtype and fit_s.shape == (4, 6, 6)
        assert ((fit_s == 0) | (fit_s >= tiny)).all()
        flushed = np.where(cast < tiny, 0, cast).astype(dtype)
        assert all(sl.tobytes() == flushed.tobytes() for sl in fit_s)
        assert all(sl.tobytes() == s.tobytes() for sl in problem.source_probs)
    fitted = train_attentions([src, src], [g1, g2], cfg, [0, 1], restarts=2)
    assert all(ae.source_probs.tobytes() == s.tobytes() for ae in fitted)


def test_no_float32_subnormal_reaches_an_epoch(monkeypatch):
    # a matmul or elementwise pass over float32 subnormals runs many times
    # slower. In a small fit at the benchmark's settings (encoders trained at
    # lr 5e-2, 60 scoring epochs, 2 restarts) over mutated family graphs and
    # labeled graphs of 10 to 34 nodes, no epoch's p, w, reverse column
    # softmax or logit gradients hold one
    import graphdiv.attention as att
    from graphdiv.divergence import embed_all
    from graphdiv.generators import karate_club, make_ring, mutate_family

    tiny = np.finfo(np.float32).tiny
    graphs = (mutate_family(karate_club(), steps=50, mutation_count=2, rng_seed=1000)
              + mutate_family(make_ring(20), steps=50, mutation_count=1, rng_seed=1001)
              + [_labeled(random_graph(n, 0.25, n), n) for n in (10, 12, 12, 17)])
    counts = dict.fromkeys(("p", "w", "reverse column softmax", "epochs"), 0)
    current = {}
    real_softmax, real_loss = AlignmentProblem.softmax, att.attention_loss_and_grads

    def check(name, a):
        assert a.dtype == np.float32 and not ((a != 0) & (np.abs(a) < tiny)).any(), name

    def softmax(problem, z, axis):
        q = real_softmax(problem, z, axis)
        name = "p" if z is current["forward"] else "w" if axis == -1 else "reverse column softmax"
        check(name, q)
        counts[name] += 1
        return q

    def loss_and_grads(problem, params, loss):
        current.update(params)
        losses, grads = real_loss(problem, params, loss)
        for name, g in grads.items():
            check(f"{name} logit gradient", g)
        counts["epochs"] += 1
        return losses, grads

    monkeypatch.setattr(AlignmentProblem, "softmax", softmax)
    monkeypatch.setattr(att, "attention_loss_and_grads", loss_and_grads)
    cfg = TrainConfig(rng_seed=0, learning_rate=5e-2, scoring_epochs=60)
    table = embed_all(graphs, graphs, cfg, workers=1, restarts=2)
    assert not table.errors
    # every stacked epoch ran p and w; the labeled pairs ran the reverse map
    assert counts["p"] == counts["w"] == counts["epochs"] > 0
    assert 0 < counts["reverse column softmax"] < counts["epochs"]


def test_gradient_checks_run_in_float64(tiny_cfg, labeled_pair):
    # criterion 1 and the gradient checks here build their problem at the
    # default dtype and pass float64 inits, so they check the float64 math
    g1, g2 = labeled_pair
    src = train_encoder(g1, tiny_cfg, graph_id=1)
    problem = AlignmentProblem([src], [g2], TrainConfig(node_reg_coef=1.0, edge_reg_coef=1.0))
    constants = fit_constants(problem)
    assert {a.dtype for a in constants} == {np.dtype(np.float64)}
    pair = init_attention(src, g2, np.random.default_rng(3), scale=0.5)
    losses, grads = attention_loss_and_grads(problem, {n: a[None] for n, a in pair.items()})
    assert {a.dtype for a in [losses, *grads.values()]} == {np.dtype(np.float64)}


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


def test_a_wide_slice_shifts_per_axis_and_keeps_its_lone_bits(tiny_cfg, labeled_pair):
    # the fit's softmax shifts a slice by its maximum only while the slice
    # spreads at most max_spread; slice 1's forward column 0 and reverse row
    # 0 sit 100 below the rest, where exp(z - slice max) is a float32
    # subnormal, so it is shifted per column or row. Stacked beside a narrow
    # slice it keeps the losses and gradients of its lone fit
    g1, g2 = labeled_pair
    src = train_encoder(g1, tiny_cfg, graph_id=1)
    cfg = TrainConfig(node_reg_coef=1.0, edge_reg_coef=1.5)
    rng = np.random.default_rng(4)
    pairs = [init_attention(src, g2, rng, scale=0.5) for _ in range(2)]
    pairs[1]["forward"][:, 0] -= 100.0
    pairs[1]["reverse"][0, :] -= 100.0
    params = {name: np.stack([pair[name] for pair in pairs]).astype(np.float32)
              for name in ("forward", "reverse")}
    problem = AlignmentProblem([src, src], [g2, g2], cfg, dtype=np.float32)
    for z in params.values():
        spread = z.max(axis=(1, 2)) - z.min(axis=(1, 2))
        assert spread[0] < 2 < 80 < problem.max_spread < 87 < 100 < spread[1]
        assert (np.exp(z[1] - z[1].max()) < np.finfo(np.float32).tiny).any()
    for name, axis in (("forward", -2), ("reverse", -1), ("reverse", -2)):
        z = params[name]
        q = problem.softmax(z, axis)
        assert np.isfinite(q).all() and np.allclose(q.sum(axis=axis), 1.0, atol=1e-6)
        for b, shift in ((0, z[0].max()), (1, z[1].max(axis=axis, keepdims=True))):
            e = np.exp(z[b] - shift)[None]
            assert q[b:b + 1].tobytes() == (e / problem.axis_sum(e, axis)).tobytes()
    losses, grads = attention_loss_and_grads(problem, params)
    alone = AlignmentProblem([src], [g2], cfg, dtype=np.float32)
    for b in range(2):
        one, one_grads = attention_loss_and_grads(alone, {n: a[b:b + 1] for n, a in params.items()})
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


def test_one_penalty_term_per_side_equals_the_four_kind_terms(tiny_cfg, labeled_pair):
    # in float64 the merged penalties (one term per side, both kinds' columns
    # side by side, coefficients folded into the weights) add the loss and
    # logit gradients of the four per-kind terms (node forward, node reverse,
    # edge forward, edge reverse) as they were computed one by one, to 1e-12:
    # the objective is the same, only the rounding moves
    g1, g2 = labeled_pair
    src = train_encoder(g1, tiny_cfg, graph_id=1)
    cfg = TrainConfig(node_reg_coef=1.0, edge_reg_coef=1.5)
    problem = AlignmentProblem([src], [g2], cfg)
    bare = AlignmentProblem([src], [g2], TrainConfig(node_reg_coef=0.0, edge_reg_coef=0.0))
    assert len(problem.penalties) == 2 and bare.penalties == []
    for seed in range(5):
        pair = init_attention(src, g2, np.random.default_rng(seed), scale=2.0)
        params = {name: a[None] for name, a in pair.items()}
        losses, grads = attention_loss_and_grads(problem, params)
        structural, expected = attention_loss_and_grads(bare, params)
        maps = {"forward": nn.softmax(pair["forward"], axis=0),
                "reverse": nn.softmax(pair["reverse"], axis=0)}
        g_maps = {side: np.zeros_like(q) for side, q in maps.items()}
        loss = float(structural[0])
        for coef, own, kind in ((1.0, node_label_onehot, "node"), (1.5, edge_attr_matrix, "edge")):
            for side, rows, feats, observed in (
                    ("forward", 6, own(g1), own(g2)),
                    ("reverse", 6, neighborhood_attr_matrix(g2, kind),
                     neighborhood_attr_matrix(g1, kind))):
                inferred = maps[side].T @ feats
                qc = np.maximum(inferred, _LOG_FLOOR)
                loss -= coef * np.sum(observed * np.log(qc)) / rows
                g_maps[side] += feats @ np.where(inferred > _LOG_FLOOR,
                                                 -(coef / rows) * observed / qc, 0.0).T
        assert abs(losses[0] - loss) <= 1e-12 * max(1.0, abs(loss))
        for side, q in maps.items():
            g = expected[side][0] + q * (g_maps[side] - (q * g_maps[side]).sum(axis=0))
            assert np.abs(grads[side][0] - g).max() <= 1e-12 * max(1.0, np.abs(g).max())


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
    # the init as the float32 fit holds it, handed out as float64
    cfg = TrainConfig(embed_dim=4, scoring_epochs=0)
    target = random_graph(4, 0.5, 2)
    ae = train_attention(small_source, target, cfg, target_graph_id=3)
    expected = init_attention(
        small_source, target,
        np.random.default_rng(derive_seed("attention", 0, 3, cfg.rng_seed, 0)))
    for name in ("forward", "reverse"):
        kept = expected[name].astype(np.float32).astype(np.float64)
        assert getattr(ae.attention, name).tobytes() == kept.tobytes()


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


def test_alignment_recovers_random_permutations():
    # 24 random 12-node graphs, each aligned against its copy with node u
    # renamed perm[u], at the default config and 3 restarts; the right answer
    # for target node perm[u] is source node u. Measured: median exact
    # recovery 1.0, mean 0.872, mean edges preserved 0.958 (worst pair
    # 0.737); with 1 restart the means fall to 0.826 and 0.949
    cfg = TrainConfig(rng_seed=0)
    sources = [random_graph(12, 0.35, 500 + s) for s in range(24)]
    perms = [np.random.default_rng(s).permutation(12) for s in range(24)]
    targets = [Graph(12, [(perm[u], perm[v]) for u, v in g.edges])
               for g, perm in zip(sources, perms)]
    encoders = fit_encoders(sources, cfg, list(range(24)))
    fitted = train_attentions(encoders, targets, cfg, [100 + s for s in range(24)], restarts=3)
    exact, edges = [], []
    for g, t, perm, ae in zip(sources, targets, perms, fitted):
        align = argmax_alignment(ae)
        exact.append(np.mean(align == np.argsort(perm)))
        edges.append(np.mean([tuple(sorted((align[a], align[b]))) in g.edges for a, b in t.edges]))
    assert np.median(exact) == 1.0
    assert np.mean(edges) >= 0.93
    assert np.mean(exact) >= 0.85  # a lost best-of-3 reads 0.826


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
# A plain per-restart loop over 2-D matrices with a dict-loop Adam, in
# float32: the inits are cast to it, and each constant is built in float64
# and cast once, S with its subnormals then set to 0. Its softmax shifts the
# matrix by its maximum unless the matrix spreads wider than the bound
# AlignmentProblem.softmax states, and sums over an axis as a product with a
# ones vector; the label penalties are one term per side, the node columns
# then the edge ones. The stacked fit must reproduce its bits exactly: every
# restart slice runs the same elementwise operations in the same order,
# with per-slice reductions and matrix products.

def _reference_loss_and_grads(source, target, cfg, forward, reverse):
    s_graph, n_t, n_s = source.graph, target.node_count, source.node_count
    dtype = forward.dtype
    fit = lambda a: a.astype(dtype)
    ones = {0: np.ones((1, n_s), dtype), 1: np.ones((1, n_t), dtype)}
    max_spread = np.log(1.0 / (max(n_s, n_t) * np.finfo(dtype).tiny)) - 1.0

    def softmax(z, axis, n_key):
        # axis 0 normalises each column, axis 1 each row; ones[n_key] spans that axis
        wide = z.max() - z.min() > max_spread
        e = np.exp(z - (z.max(axis=axis, keepdims=True) if wide else z.max()))
        return e / (ones[n_key] @ e if axis == 0 else e @ ones[n_key].T)

    terms = {"forward": [], "reverse": []}
    for kind, coef, own in (("node", cfg.node_reg_coef, node_label_onehot),
                            ("edge", cfg.edge_reg_coef, edge_attr_matrix)):
        if coef > 0 and None not in (getattr(g, f"{kind}_labels") for g in (s_graph, target)):
            terms["forward"].append((own(s_graph), -(coef / n_t) * own(target)))
            terms["reverse"].append((neighborhood_attr_matrix(target, kind),
                                     -(coef / n_s) * neighborhood_attr_matrix(s_graph, kind)))

    a = fit(target.adjacency_matrix())
    p = softmax(forward, 0, 0)
    s = fit(source_prob_matrix(source))
    s[s < np.finfo(s.dtype).tiny] = 0.0
    w = softmax(reverse, 1, 0)
    mixrows = p.T @ s
    pred = mixrows @ w.T
    pc = np.clip(pred, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    loss = -np.sum(a * np.log(pc) + (1.0 - a) * np.log1p(-pc))
    g_pred = (pc - a) / ((1.0 - pc) * pc)
    g_pred[pc != pred] = 0.0
    g_w = g_pred.T @ mixrows
    g_reverse = w * (g_w - (w * g_w) @ ones[0].T)
    g_p = ((g_pred @ w) @ np.ascontiguousarray(s.T)).T
    p_rev = None
    g_p_rev = np.zeros_like(reverse)
    for side, columns in terms.items():
        if not columns:
            continue
        feats, weights = (fit(np.concatenate(m, axis=1)) for m in zip(*columns))
        if side == "forward":
            q, g_q = p, g_p
        else:
            p_rev = softmax(reverse, 0, 1)
            q, g_q = p_rev, g_p_rev
        inferred = q.T @ feats
        qc = np.maximum(inferred, _LOG_FLOOR)
        loss += np.sum(weights * np.log(qc))
        g_q += feats @ np.where(inferred > _LOG_FLOOR, weights / qc, 0.0).T
    g_forward = p * (g_p - ones[0] @ (p * g_p))
    if p_rev is not None:
        g_reverse = g_reverse + p_rev * (g_p_rev - ones[1] @ (p_rev * g_p_rev))
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
    """(forward, reverse, loss trace) of the winning restart, fitted one by one
    in float32; the logits come out as float64."""
    best = None
    for restart in range(restarts):
        scale, lr_mult = _RESTART_SCHEDULE[restart % len(_RESTART_SCHEDULE)]
        rng = np.random.default_rng(
            derive_seed("attention", source.graph_id, target_graph_id, cfg.rng_seed, restart))
        params = {name: a.astype(np.float32)
                  for name, a in init_attention(source, target, rng, scale=scale).items()}
        state = {"t": 0, "m": {}, "v": {}}
        trace = []
        for _ in range(cfg.scoring_epochs):
            loss, grads = _reference_loss_and_grads(source, target, cfg,
                                                    params["forward"], params["reverse"])
            trace.append(loss)
            _reference_adam(params, grads, state, cfg.learning_rate * lr_mult)
        final = trace[-1] if trace else float("inf")
        if best is None or final < best[0]:
            best = (final, params["forward"].astype(float), params["reverse"].astype(float), trace)
    return best[1:]


@pytest.mark.parametrize("epochs", [0, 1, 25])
@pytest.mark.parametrize("restarts", [1, 3, 6])
@pytest.mark.parametrize("labeled", [False, True, "node", "edge"])
def test_stacked_fit_matches_reference(labeled_pair, labeled, restarts, epochs):
    # restarts=6 wraps past the five-entry restart schedule; "node" and
    # "edge" keep one label kind, so only that kind's two terms run
    g1, g2 = labeled_pair
    if not labeled:
        g1, g2 = random_graph(7, 0.5, 21), random_graph(5, 0.6, 22)
    elif labeled in ("node", "edge"):
        kept = f"{labeled}_labels"
        g1, g2 = (Graph(g.node_count, g.edges, **{kept: getattr(g, kept)}) for g in (g1, g2))
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30, scoring_epochs=epochs,
                      learning_rate=5e-2, node_reg_coef=1.0, edge_reg_coef=1.5, rng_seed=3)
    src = train_encoder(g1, cfg, graph_id=2)
    # one forward and one reverse term, each kind's columns side by side,
    # node then edge, with weights -(coef / rows) * observed
    kinds = {False: [], "node": ["node"], "edge": ["edge"], True: ["node", "edge"]}[labeled]
    problem = AlignmentProblem([src], [g2], cfg)
    assert [term[0] for term in problem.penalties] == ["forward", "reverse"][:2 * len(kinds)]
    own = {"node": (node_label_onehot, 1.0), "edge": (edge_attr_matrix, 1.5)}
    for side, feats, weights in problem.penalties:
        pieces = [(own[k][0](g1), -(own[k][1] / 6) * own[k][0](g2)) if side == "forward" else
                  (neighborhood_attr_matrix(g2, k),
                   -(own[k][1] / 6) * neighborhood_attr_matrix(g1, k)) for k in kinds]
        assert feats[0].tobytes() == np.hstack([f for f, _ in pieces]).tobytes()
        assert weights[0].tobytes() == np.hstack([w for _, w in pieces]).tobytes()
    assert_matches_reference(src, g2, cfg, restarts)


def assert_matches_reference(src, target, cfg, restarts):
    ae = train_attention(src, target, cfg, target_graph_id=9, restarts=restarts)
    forward, reverse, trace = reference_train_attention(src, target, cfg, 9, restarts)
    assert ae.attention.forward.tobytes() == forward.tobytes()
    assert ae.attention.reverse.tobytes() == reverse.tobytes()
    recorded = np.array(trace, dtype=float)[nn.recorded_epochs(cfg.scoring_epochs)]
    assert np.array(ae.loss_trace).tobytes() == recorded.tobytes()


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("labeled", [False, True])
def test_stacked_fit_matches_reference_on_subnormal_source_probs(labeled_pair, labeled,
                                                                 restarts):
    # the cases above never put a float32 subnormal in S; here some of S is
    # float32 subnormal and some exactly 0 when cast, and the reference
    # flushes its own S to 0 below the smallest normal
    g1, g2 = labeled_pair
    if not labeled:
        g1, g2 = random_graph(7, 0.5, 21), random_graph(5, 0.6, 22)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=30, scoring_epochs=25,
                      learning_rate=5e-2, node_reg_coef=1.0, edge_reg_coef=1.5, rng_seed=3)
    src = with_tiny_probs(train_encoder(g1, cfg, graph_id=2))
    s = source_prob_matrix(src).astype(np.float32)
    assert ((s > 0) & (s < np.finfo(np.float32).tiny)).any()
    assert_matches_reference(src, g2, cfg, restarts)


def test_diverging_restart_raises_training_fault(small_source, monkeypatch):
    import graphdiv.attention as att

    real = att.attention_loss_and_grads

    def poisoned(problem, params, loss):
        losses, grads = real(problem, params, loss)
        if loss:  # every recorded epoch, the first of them 0
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

    def poisoned(problem, params, loss):
        losses, grads = real(problem, params, loss)
        if loss:  # both restarts of target 6, one of target 7, at every recorded epoch
            losses[[2, 3, 5]] = np.nan
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

    def poisoned(problem, params, loss):
        losses, grads = real(problem, params, loss)
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


def _labeled(graph, seed):
    """graph with seeded node and edge labels from two-label vocabularies."""
    rng = np.random.default_rng(seed)
    return Graph(graph.node_count, graph.edges,
                 node_labels=rng.integers(0, 2, graph.node_count).tolist(),
                 edge_labels=rng.integers(0, 2, len(graph.edges)).tolist(),
                 num_node_labels=2, num_edge_labels=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 40),
       st.sampled_from([(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3), (1, 4)]),
       st.booleans(), st.integers(0, 10_000))
def test_train_attentions_keep_every_epoch_loop_bits(epochs, shape, labeled, seed):
    # stacks of 1-4 slices (cells x restarts): the loss is asked for at the
    # recorded epochs alone, and each cell's winning restart has the params
    # and recorded losses of that restart in the loop that computes the loss
    # every epoch, whose final losses choose the same restart
    cells, restarts = shape
    cfg = TrainConfig(embed_dim=3, encoder_layers=1, encoding_epochs=5, scoring_epochs=epochs,
                      learning_rate=5e-2, rng_seed=seed)
    graphs = [random_graph(5, 0.6, seed + k) for k in range(cells + 1)]
    if labeled:
        graphs = [_labeled(g, seed + k) for k, g in enumerate(graphs)]
    source = train_encoder(graphs[0], cfg, graph_id=0)
    sources, targets = [source] * cells, graphs[1:]
    with fit_stack_calls() as calls:
        fitted = train_attentions(sources, targets, cfg, list(range(1, cells + 1)), restarts)
    [(inits, lrs, flags)] = calls
    recorded = loss_epochs(epochs)
    assert len(flags) == epochs
    assert [e for e, loss in enumerate(flags) if loss] == recorded
    assert {a.dtype for init in inits for a in init.values()} == {np.dtype(np.float32)}
    problem = AlignmentProblem(sources, targets, cfg, restarts, np.float32)
    assert bool(problem.penalties) == labeled
    params, trace = fit_stack_every_epoch(
        inits, lambda p, loss: attention_loss_and_grads(problem, p, loss), lrs, epochs)
    for c, ae in enumerate(fitted):
        first = c * restarts
        best = first + (int(np.argmin(trace[-1, first:first + restarts])) if epochs else 0)
        assert ae.fault is None
        assert ae.attention.forward.tobytes() == params["forward"][best].astype(float).tobytes()
        assert ae.attention.reverse.tobytes() == params["reverse"][best].astype(float).tobytes()
        assert np.array(ae.loss_trace).tobytes() == trace[recorded, best].tobytes()


def _counted(monkeypatch, owner, name, counts):
    """Replace owner.name by a wrapper that counts its calls in counts[name]."""
    real = getattr(owner, name)
    counts[name] = 0

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("epochs", [60, 300])
def test_loss_work_runs_only_at_recorded_epochs(monkeypatch, labeled_pair, epochs):
    # per fit, the gradient path runs every epoch and the loss math (the
    # encoder's softplus; the attention BCE's log1p and, per penalty side, a
    # log) only at the 3 recorded epochs, whatever the epoch count
    recorded = len(loss_epochs(epochs))
    assert recorded == 3
    cfg = TrainConfig(embed_dim=4, encoding_epochs=epochs, scoring_epochs=epochs, rng_seed=1)
    g1, g2 = labeled_pair
    counts = {}
    for owner, name in ((encoder, "encoder_loss_and_grads"), (nn, "softplus")):
        _counted(monkeypatch, owner, name, counts)
    [source] = fit_encoders([g1], cfg, [0])
    assert counts == {"encoder_loss_and_grads": epochs, "softplus": recorded}

    problem = AlignmentProblem([source], [g2], cfg)
    assert len(problem.penalties) == 2
    counts = {}
    for owner, name in ((attention, "attention_loss_and_grads"), (np, "log"), (np, "log1p")):
        _counted(monkeypatch, owner, name, counts)
    train_attentions([source], [g2], cfg, [1], restarts=2)
    assert counts == {"attention_loss_and_grads": epochs, "log": recorded * 3, "log1p": recorded}
