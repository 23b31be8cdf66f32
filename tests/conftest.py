import numpy as np
import pytest

from graphdiv import nn
from graphdiv.attention import _bce_probs, augmented_probs
from graphdiv.encoder import TrainConfig, encoder_loss_and_grads
from graphdiv.graphs import Graph


@pytest.fixture
def tiny_cfg():
    """Small but nontrivial training config for fast unit tests."""
    return TrainConfig(embed_dim=4, encoding_epochs=40, scoring_epochs=40, rng_seed=0)


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def labeled_pair():
    """Two 6-node labeled graphs sharing both vocabularies."""
    edges1 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    edges2 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)]
    g1 = Graph(6, edges1, node_labels=[0, 1, 0, 1, 0, 1],
               edge_labels=[0, 1, 2, 0, 1, 2, 0], num_node_labels=2, num_edge_labels=3)
    g2 = Graph(6, edges2, node_labels=[1, 0, 1, 0, 1, 0],
               edge_labels=[2, 1, 0, 2, 1, 0], num_node_labels=2, num_edge_labels=3)
    return g1, g2


def assert_close(a, b, tol=1e-9):
    assert abs(float(a) - float(b)) <= tol, f"{a} != {b} (tol {tol})"


def gradient_check(params, loss_and_grads, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `loss_and_grads(params) -> (loss, {name: grad})`; every parameter entry is
    perturbed, so keep the models small.
    """
    _, analytic = loss_and_grads(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lo_plus, _ = loss_and_grads(params)
            flat[i] = orig - eps
            lo_minus, _ = loss_and_grads(params)
            flat[i] = orig
            numeric = (lo_plus - lo_minus) / (2 * eps)
            err = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def encoder_stack(encs):
    """The named arrays of same-size encoders, each with a leading stack
    axis: the stacked form encoder_loss_and_grads takes."""
    return {name: np.stack([e.params[name] for e in encs]) for name in encs[0].params}


def encoder_stack_gradient_errors(encs):
    """Gradient-check error of each slice's loss in the stacked encoder loss.

    Every entry of the whole stack is perturbed for each slice, with the
    other slices' analytic gradients zero, so a slice whose loss leaked into
    another's would fail too.
    """
    stack = encoder_stack(encs)
    adjacency = np.stack([e.graph.adjacency_matrix() for e in encs])
    others = [np.arange(len(encs)) != g for g in range(len(encs))]

    def slice_loss_and_grads(g):
        losses, grads = encoder_loss_and_grads(stack, adjacency)
        for grad in grads.values():
            grad[others[g]] = 0.0
        return float(losses[g]), grads

    return [gradient_check(stack, lambda _: slice_loss_and_grads(g))
            for g in range(len(encs))]


def neighbor_probs(ae):
    """The target neighbor probabilities of one augmented encoder."""
    return augmented_probs(ae.attention.forward, ae.attention.reverse, ae.source_probs)[-1]


def structural_loss(ae):
    """Target BCE under the augmented encoder, without label penalties."""
    adjacency = ae.target_graph.adjacency_matrix()
    loss, _ = _bce_probs(neighbor_probs(ae), adjacency, 1.0 - adjacency)
    return float(loss)


# --- edge-sum oracles: the per-edge loops raw_divergence and
# positive_log_loss ran before their edge sums became array sums; the array
# form must give their bits, the order bench/refs.py checks ----------------

def raw_divergence_loop(p, edges):
    """-sum log p over both orientations of every edge, one edge at a time."""
    total = 0.0
    for u, v in edges:
        total -= np.log(p[u, v]) + np.log(p[v, u])
    return float(total)


def positive_log_loss_loop(logits, edges):
    """sum softplus(-logit) over both orientations of every edge, one edge
    at a time."""
    total = 0.0
    for u, v in edges:
        total += nn.softplus(-logits[u, v]) + nn.softplus(-logits[v, u])
    return float(total)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()
