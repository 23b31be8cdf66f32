"""Cross-graph attention: align target nodes onto a frozen source encoder.

The forward map sends each target node to a softmax distribution over source
nodes and takes the matching mixture of the frozen source's neighbor
probabilities (a differentiable relaxation of routing each target node to one
source node); a row-stochastic reverse map then carries those source-neighbor
probabilities back to target-neighbor probabilities. Every augmented
prediction is a convex mixture of the source's own predictions, so the
augmented encoder can never predict sharper than the source it wraps.
Label-consistency penalties (node and edge, on both maps) pull the alignment
toward label-preserving ones; they exist only inside the training loss.

Training is a stacked fit. A cell is one (source, target) pair; cells whose
sources share a node count and label kinds, and whose targets do too, times
the R restarts of each, share their shapes, so they train as one problem:
forward logits (C*R, |V_S|, |V_T|), reverse logits (C*R, |V_T|, |V_S|), one
loss/gradient call and one Adam step per epoch, with a per-slice learning
rate. Slices are cell-major: slices c*R to c*R + R - 1 are the restarts of
cell c. Everything that does not change during a fit lives in one
AlignmentProblem built once per stack: each source-side constant (the frozen
source probabilities S, the node one-hots, the edge-attribute and
neighbourhood matrices) and each target-side one (adjacency, 1 - A, target
label penalties) is built once per distinct source or target and gathered
to a per-slice stack. Nothing is padded or masked. Each slice runs the same
elementwise operations in the same order, with its reductions and matrix
products taken over that slice alone, so a cell trains to the same bits
whichever cells share its stack, and each cell keeps its own seeds,
learning rates and best restart. The fitted AugmentedEncoder keeps its
slice of the problem's frozen source probabilities, so scoring it reads
them instead of running the source encoder again.
"""

import numpy as np

from . import nn
from .encoder import ContractViolation, derive_seed
from .graphs import (GraphError, edge_attr_matrix, neighborhood_attr_matrix,
                     node_label_onehot)

_LOG_FLOOR = 1e-12
_PROB_FLOOR = 1e-9


class AttentionPair:
    """Logit matrices of the two alignment maps for one (target, source) pair."""

    def __init__(self, forward, reverse):
        # forward: |V_S| x |V_T|; column u is the logit vector of target node u
        # reverse: |V_T| x |V_S|; row j holds the mixture logits of target node j
        if forward.shape != reverse.shape[::-1]:
            raise nn.ShapeError(f"forward {forward.shape} incompatible with reverse {reverse.shape}")
        self.forward = forward
        self.reverse = reverse

    @property
    def source_nodes(self):
        return self.forward.shape[0]

    @property
    def target_nodes(self):
        return self.forward.shape[1]


class AugmentedEncoder:
    """A frozen source encoder, with its source_probs, wrapped by an attention pair."""

    def __init__(self, source, attention, target_graph, source_probs):
        if attention.source_nodes != source.node_count:
            raise nn.ShapeError("attention rows do not match source node count")
        if attention.target_nodes != target_graph.node_count:
            raise nn.ShapeError("attention cols do not match target node count")
        self.source = source
        self.source_probs = source_probs
        self.attention = attention
        self.target_graph = target_graph
        self.loss_trace = []


def init_attention(source, target_graph, rng, scale=1e-2):
    """Near-uniform start by default: tiny noise breaks symmetric-node ties."""
    n_s, n_t = source.node_count, target_graph.node_count
    fwd = rng.uniform(-1, 1, size=(n_s, n_t)) * scale
    rev = rng.uniform(-1, 1, size=(n_t, n_s)) * scale
    return AttentionPair(fwd, rev)


# (init scale, learning-rate multiplier) cycled over restarts; the mix of
# near-uniform and spread-out starts escapes collapsed many-to-one alignments
_RESTART_SCHEDULE = ((1e-2, 1.0), (0.3, 3.0), (1e-2, 3.0), (0.3, 1.0), (0.1, 2.0))


def attention_matrix(pair):
    """Column-stochastic alignment: entry (v, u) = Pr(source v | target u)."""
    return nn.softmax(pair.forward, axis=0)


def source_prob_matrix(source):
    """The frozen source's own neighbor probabilities, |V_S| x |V_S|."""
    scores, _ = nn.forward(source.layers, source.embedding)
    return nn.sigmoid(scores)


def augmented_probs(forward, reverse, source_probs):
    """The augmented encoder's forward map, for one pair or a stack of pairs:
    (p, w, p^T S, probs = p^T S w^T), with p the column softmax of the forward
    logits and w the row softmax of the reverse ones. Row u of probs holds
    target node u's neighbor probabilities, each a convex combination of
    frozen source probabilities, so it is never sharper than the source."""
    p = nn.softmax(forward, axis=-2)
    w = nn.softmax(reverse, axis=-1)
    mixrows = p.swapaxes(-1, -2) @ source_probs
    return p, w, mixrows, mixrows @ w.swapaxes(-1, -2)


def _bce_probs(pred, target, non_target):
    """Full BCE on probabilities with a clip floor, one loss per trailing
    matrix; the gradient is masked where the clip is active so it stays the
    exact derivative of the clipped loss. non_target is 1 - target."""
    p = np.clip(pred, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    loss = -(target * np.log(p) + non_target * np.log1p(-p)).sum(axis=(-2, -1))
    inside = (pred > _PROB_FLOOR) & (pred < 1.0 - _PROB_FLOOR)
    grad = np.where(inside, (p - target) / (p * (1.0 - p)), 0.0)
    return loss, grad


def stack_key(graph):
    """What the sources of one stack, and its targets, must share: the node
    count and which kinds of labels the graph carries."""
    return graph.node_count, graph.node_labels is None, graph.edge_labels is None


class AlignmentProblem:
    """The constants of one stacked alignment: cell c pairs the frozen source
    encoder sources[c] with targets[c], and each cell is repeated for
    `restarts`. The sources must share a node count and the kinds of labels
    they carry, and so must the targets.

    Every constant is a (C*R, ., .) stack with one slice per (cell, restart),
    built once per distinct graph or encoder and gathered to its slices: the
    target adjacencies A and 1 - A, the frozen sources' neighbor
    probabilities S, and the active label penalties as (side, coef, rows,
    features, observed, -(coef / rows) * observed) tuples in the order their
    losses are summed. Raises ShapeError when the sources or the targets
    differ in node count, and GraphError when they differ in which labels
    they carry or when a label vocabulary is not shared by all of them.
    """

    def __init__(self, sources, targets, cfg, restarts=1):
        if len(sources) != len(targets):
            raise ValueError("a stack needs one source encoder per target")
        source_graphs = [enc.graph for enc in sources]
        for side, graphs in (("sources", source_graphs), ("targets", targets)):
            if any(g.node_count != graphs[0].node_count for g in graphs):
                raise nn.ShapeError(f"stacked {side} must have the same node count")
            if any(stack_key(g) != stack_key(graphs[0]) for g in graphs):
                raise GraphError(f"stacked {side} differ in which labels they carry")
        s, t = source_graphs[0], targets[0]
        both = source_graphs + list(targets)

        def stack(items, build):
            # build once per distinct item, then one copy per (cell, restart)
            slot = {}
            for item in items:
                slot.setdefault(id(item), (len(slot), item))
            built = np.stack([build(item) for _, item in slot.values()])
            return built[np.repeat([slot[id(item)][0] for item in items], restarts)]

        self.adjacency = stack(targets, lambda g: g.adjacency_matrix())
        self.non_adjacency = 1.0 - self.adjacency
        self.source_probs = stack(sources, source_prob_matrix)
        terms = []
        if cfg.node_reg_coef > 0 and s.node_labels is not None and t.node_labels is not None:
            if len({g.num_node_labels for g in both}) > 1:
                raise GraphError("node label vocabularies differ between sources and targets")
            terms.append(("forward", cfg.node_reg_coef, stack(source_graphs, node_label_onehot),
                          stack(targets, node_label_onehot)))
            terms.append(("reverse", cfg.node_reg_coef,
                          stack(targets, lambda g: neighborhood_attr_matrix(g, "node")),
                          stack(source_graphs, lambda g: neighborhood_attr_matrix(g, "node"))))
        if cfg.edge_reg_coef > 0 and s.edge_labels is not None and t.edge_labels is not None:
            if len({g.num_edge_labels for g in both}) > 1:
                raise GraphError("edge label vocabularies differ between sources and targets")
            terms.append(("forward", cfg.edge_reg_coef, stack(source_graphs, edge_attr_matrix),
                          stack(targets, edge_attr_matrix)))
            terms.append(("reverse", cfg.edge_reg_coef,
                          stack(targets, lambda g: neighborhood_attr_matrix(g, "edge")),
                          stack(source_graphs, lambda g: neighborhood_attr_matrix(g, "edge"))))
        self.penalties = []
        for side, coef, feats, observed in terms:
            # forward penalties average over target nodes, reverse over source nodes
            rows = t.node_count if side == "forward" else s.node_count
            self.penalties.append((side, coef, rows, feats, observed, -(coef / rows) * observed))
        self.has_reverse_penalty = any(term[0] == "reverse" for term in self.penalties)


def _ce_loss_and_gq(q, coef, rows, observed, scaled_observed):
    """Per-slice penalty -coef * sum(observed * log q) / rows and its gradient
    wrt q, for a stack of inferred label matrices q."""
    qc = np.maximum(q, _LOG_FLOOR)
    loss = -coef * (observed * np.log(qc)).sum(axis=(-2, -1)) / rows
    gq = np.where(q > _LOG_FLOOR, scaled_observed / qc, 0.0)
    return loss, gq


def attention_loss_and_grads(problem, params):
    """Training losses and analytic gradients for a stack of attention pairs.

    params["forward"] is (B, |V_S|, |V_T|) and params["reverse"] is
    (B, |V_T|, |V_S|), where B is the problem's cells times restarts; a
    single pair is a stack of one. Returns the B per-slice losses and
    {"forward", "reverse"} gradients of the same shapes.
    Each loss is structural BCE on the target adjacency plus the weighted
    label penalties; slices never mix, so slice r's loss and gradients are
    those of pair r alone. The source encoders are constants here; nothing
    propagates into them.
    """
    forward, reverse = params["forward"], params["reverse"]
    s = problem.source_probs

    # structural path; s is constant because the sources are frozen
    p, w, mixrows, pred = augmented_probs(forward, reverse, s)
    p_t = p.swapaxes(-1, -2)
    loss, g_pred = _bce_probs(pred, problem.adjacency, problem.non_adjacency)
    g_w = g_pred.swapaxes(-1, -2) @ mixrows
    g_reverse = w * (g_w - (w * g_w).sum(axis=-1, keepdims=True))
    g_p = s @ (g_pred @ w).swapaxes(-1, -2)

    # forward-side penalties act on the softmax alignment p, reverse-side
    # ones on the column softmax of the reverse logits
    if problem.has_reverse_penalty:
        p_rev = nn.softmax(reverse, axis=-2)
        p_rev_t = p_rev.swapaxes(-1, -2)
        g_p_rev = np.zeros_like(reverse)
    for side, coef, rows, feats, observed, scaled in problem.penalties:
        if side == "forward":
            term, gq = _ce_loss_and_gq(p_t @ feats, coef, rows, observed, scaled)
            loss += term
            g_p += feats @ gq.swapaxes(-1, -2)
        else:
            term, gq = _ce_loss_and_gq(p_rev_t @ feats, coef, rows, observed, scaled)
            loss += term
            g_p_rev += feats @ gq.swapaxes(-1, -2)

    # softmax (per column) backward for both maps
    g_forward = p * (g_p - (p * g_p).sum(axis=-2, keepdims=True))
    if problem.has_reverse_penalty:
        g_reverse = g_reverse + p_rev * (g_p_rev - (p_rev * g_p_rev).sum(axis=-2, keepdims=True))

    return loss, {"forward": g_forward, "reverse": g_reverse}


def train_attention(source, target_graph, cfg, target_graph_id=None, restarts=1):
    """Fit the attention pair of one target against a frozen source encoder:
    a stack of one in train_attentions, with the same bits; raises its fault."""
    (ae,) = train_attentions([source], [target_graph], cfg, [target_graph_id], restarts)
    if ae.fault:
        raise ae.fault
    return ae


def train_attentions(sources, targets, cfg, target_graph_ids, restarts=1):
    """Fit one attention pair per cell (sources[c], targets[c]), each source a
    frozen encoder.

    The sources must share a node count and label kinds, and so must the
    targets; the cells train side by side as one stacked problem of
    len(targets) * restarts slices. Runs scoring_epochs of full-batch Adam on
    the attention matrices only. The alignment objective is non-convex; with
    restarts > 1 several seeded inits per cell, each with its own init scale
    and learning rate from _RESTART_SCHEDULE, train at once, and the one with
    the lowest final training loss wins (the first on ties). Each cell's fit
    is deterministic given (its source's graph_id, its target graph id,
    cfg.rng_seed), and bit-identical to fitting it alone. Returns one
    AugmentedEncoder per cell, in order, whose `fault` is None or, if a
    restart went non-finite, the nn.TrainingFault of the cell's lone fit.
    """
    if not all(source.trained for source in sources):
        raise ContractViolation("source encoder must be trained and frozen before alignment")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    problem = AlignmentProblem(sources, targets, cfg, restarts)
    inits, lrs = [], []
    for source, target, target_graph_id in zip(sources, targets, target_graph_ids):
        for restart in range(restarts):
            scale, lr_mult = _RESTART_SCHEDULE[restart % len(_RESTART_SCHEDULE)]
            rng = np.random.default_rng(
                derive_seed("attention", source.graph_id, target_graph_id, cfg.rng_seed, restart))
            pair = init_attention(source, target, rng, scale=scale)
            inits.append({"forward": pair.forward, "reverse": pair.reverse})
            lrs.append(cfg.learning_rate * lr_mult)
    params, trace, faults = nn.fit_stack(inits, lambda p: attention_loss_and_grads(problem, p),
                                         lrs, cfg.scoring_epochs, target_graph_ids, restarts)

    fitted = []
    for c, (source, target) in enumerate(zip(sources, targets)):
        first = c * restarts
        best = first + (int(np.argmin(trace[-1, first:first + restarts]))
                        if cfg.scoring_epochs else 0)
        pair = AttentionPair(params["forward"][best].copy(), params["reverse"][best].copy())
        ae = AugmentedEncoder(source, pair, target, problem.source_probs[first])
        ae.loss_trace = trace[:, best].tolist()
        ae.fault = faults[c]
        fitted.append(ae)
    return fitted


def argmax_alignment(ae):
    """Hard alignment: for each target node, its strongest source node."""
    return np.argmax(attention_matrix(ae.attention), axis=0)
