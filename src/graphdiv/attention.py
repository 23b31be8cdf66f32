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
AlignmentProblem built once per stack, each constant once per distinct
source or target. Nothing is padded or masked. Each slice runs the same
elementwise operations in the same order, with its reductions and matrix
products taken over that slice alone, so a cell trains to the same bits
whichever cells share its stack, and each cell keeps its own seeds,
learning rates and best restart. A fitted cell (AugmentedEncoder) is its
arrays: the winning logits as an AttentionPair named tuple and its slice of
the problem's frozen source probabilities, which scoring reads instead of
running the source encoder again.

Two dtypes. A fit runs at the dtype of its inits and problem: train_attentions
casts its inits to FIT_DTYPE (float32) and builds its problem in it, which
halves the bytes of every elementwise pass of the gradient path and Adam.
Everything else is float64: the source encoders, S as the AugmentedEncoder
keeps it (not an upcast of the fit's float32 copy), and scoring, which reads
the winning logits copied out as float64 (each value exactly a float32).
Float64 inits on a problem built in float64, as the gradient checks use,
run in float64. At either dtype the fit's copy of S holds no subnormal:
trained sources push many non-edge logits below -87, where the sigmoid falls
under float32's smallest normal, and a float32 matmul over subnormals runs
tens of times slower.

The fit's arithmetic is its own, tuned for numpy's per-call cost on these
small stacks (AlignmentProblem.softmax and axis_sum, one label penalty term
per side); scoring keeps nn.softmax and numpy's sums, whose bits the
benchmark's reference reproduces.
"""

import math
from collections import namedtuple
from functools import partial

import numpy as np

from . import nn
from .encoder import ContractViolation, _layers, derive_seed
from .graphs import (GraphError, edge_attr_matrix, neighborhood_attr_matrix,
                     node_label_onehot)

FIT_DTYPE = np.float32
# Both floors hold in float32 as in float64. The label penalties take
# log(max(q, _LOG_FLOOR)): 1e-12 is a normal float32 (the smallest is
# 1.2e-38), and the gradient it bounds, coef * observed / (rows * q), stays
# below 1e12 * coef. The BCE clips probabilities to [_PROB_FLOOR,
# 1 - _PROB_FLOOR], which keeps log1p(-p) and the gradient 1 / (p (1 - p))
# finite only if 1 - _PROB_FLOOR rounds below 1. In float32 1 - 1e-9 rounds
# to 1.0; 1 - 1e-6 rounds to 1 - 9.5e-7, 16 float32 steps below 1, so the
# upper clip sits within 5% of the lower one and the gradient stays near 1e6.
_LOG_FLOOR = 1e-12
_PROB_FLOOR = 1e-6


# The logits of the two alignment maps of one (target, source) pair: forward
# (|V_S|, |V_T|), whose column u is the logit vector of target node u, and
# reverse (|V_T|, |V_S|), whose row j holds the mixture logits of target node j
AttentionPair = namedtuple("AttentionPair", "forward reverse")


class AugmentedEncoder:
    """A fitted attention pair over the frozen source probabilities it was
    fitted against (source_probs, |V_S| x |V_S|), for one target graph; raises
    nn.ShapeError unless both maps fit S and the target (see AttentionPair)."""

    def __init__(self, attention, target_graph, source_probs):
        n_s, n_t = len(source_probs), target_graph.node_count
        got = tuple(np.shape(a) for a in (source_probs, *attention))
        if got != ((n_s, n_s), (n_s, n_t), (n_t, n_s)):
            raise nn.ShapeError(f"S, forward and reverse are {got}; the target has {n_t} nodes")
        self.source_probs = source_probs
        self.attention = attention
        self.target_graph = target_graph
        self.loss_trace = []


def init_attention(source, target_graph, rng, scale=1e-2):
    """The {"forward", "reverse"} logits nn.fit_stack starts a pair from.
    Near-uniform by default: tiny noise breaks symmetric-node ties."""
    n_s, n_t = source.node_count, target_graph.node_count
    return {"forward": rng.uniform(-1, 1, size=(n_s, n_t)) * scale,
            "reverse": rng.uniform(-1, 1, size=(n_t, n_s)) * scale}


# (init scale, learning-rate multiplier) cycled over restarts; the mix of
# near-uniform and spread-out starts escapes collapsed many-to-one alignments
_RESTART_SCHEDULE = ((1e-2, 1.0), (0.3, 3.0), (1e-2, 3.0), (0.3, 1.0), (0.1, 2.0))


def attention_matrix(pair):
    """Column-stochastic alignment: entry (v, u) = Pr(source v | target u)."""
    return nn.softmax(pair.forward, axis=0)


def source_prob_matrix(source):
    """The frozen source's own neighbor probabilities, |V_S| x |V_S|."""
    scores, _ = nn.forward(_layers(source.params), source.embedding)
    return nn.sigmoid(scores)


def augmented_probs(forward, reverse, source_probs, softmax=nn.softmax):
    """The augmented encoder's forward map, for one pair or a stack of pairs:
    (p, w, p^T S, probs = p^T S w^T), with p the column softmax of the forward
    logits and w the row softmax of the reverse ones. Row u of probs holds
    target node u's neighbor probabilities, each a convex combination of
    frozen source probabilities, so it is never sharper than the source.
    Scoring takes nn.softmax; the fit passes AlignmentProblem.softmax."""
    p = softmax(forward, axis=-2)
    w = softmax(reverse, axis=-1)
    mixrows = p.swapaxes(-1, -2) @ source_probs
    return p, w, mixrows, mixrows @ w.swapaxes(-1, -2)


def _bce_probs(pred, target, non_target, loss=True):
    """Full BCE on probabilities with a clip floor, one loss per trailing
    matrix (None when loss is False); the gradient (p - t) / ((1 - p) p) is
    0 where the clip moved pred (a NaN pred included), so it stays a
    derivative of the clipped loss. non_target is 1 - target."""
    p = np.clip(pred, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    value = (-(target * np.log(p) + non_target * np.log1p(-p)).sum(axis=(-2, -1))
             if loss else None)
    den = 1.0 - p
    den *= p
    grad = p - target
    grad /= den
    grad[p != pred] = 0.0
    return value, grad


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
    built in float64 once per distinct graph or encoder, gathered to its
    slices and cast once to `dtype`, the dtype of the fit: the target
    adjacencies A and 1 - A, fit_source_probs (the frozen sources' neighbor
    probabilities S with every entry below the dtype's smallest normal set
    to 0; source_probs keeps them unflushed in float64 for scoring) and its
    contiguous transpose fit_source_probs_t, and the label penalties, as
    (side, features, weights) tuples: none, or a forward term (own label
    matrices) and a reverse term (neighbourhood matrices). Each label kind
    both sides carry at a positive coefficient adds its columns to both
    terms, node then edge, with weights -(coef / rows) * observed, rows the
    node count the side averages over. The problem also holds what
    softmax and axis_sum use: a (1, n) ones vector per node count and the
    widest slice spread the one-shift softmax takes. Raises ShapeError when
    the sources or the targets differ in node count, and GraphError when
    they differ in which labels they carry or when a label vocabulary is
    not shared by all of them.
    """

    def __init__(self, sources, targets, cfg, restarts=1, dtype=np.float64):
        if len(sources) != len(targets):
            raise ValueError("a stack needs one source encoder per target")
        source_graphs = [enc.graph for enc in sources]
        for side, graphs in (("sources", source_graphs), ("targets", targets)):
            if any(g.node_count != graphs[0].node_count for g in graphs):
                raise nn.ShapeError(f"stacked {side} must have the same node count")
            if any(stack_key(g) != stack_key(graphs[0]) for g in graphs):
                raise GraphError(f"stacked {side} differ in which labels they carry")
        s, t = source_graphs[0], targets[0]

        def stack(items, build):
            # build once per distinct item, then one copy per (cell, restart)
            slot = {}
            for item in items:
                slot.setdefault(id(item), (len(slot), item))
            built = np.stack([build(item) for _, item in slot.values()])
            return built[np.repeat([slot[id(item)][0] for item in items], restarts)]

        self.adjacency = stack(targets, lambda g: g.adjacency_matrix()).astype(dtype, copy=False)
        self.non_adjacency = 1.0 - self.adjacency
        self.source_probs = stack(sources, source_prob_matrix)
        fit_s = self.source_probs.astype(dtype)
        # S is a sigmoid, so never negative: flushing what lies below the
        # smallest normal leaves every entry 0 or normal
        fit_s[fit_s < np.finfo(dtype).tiny] = 0.0
        self.fit_source_probs = fit_s
        self.fit_source_probs_t = np.ascontiguousarray(fit_s.swapaxes(-1, -2))
        self.ones = {n: np.ones((1, n), dtype) for n in (s.node_count, t.node_count)}
        # see softmax: every softmax axis here has at most n entries, and one
        # e-fold of headroom covers the few ulps exp and the division round by
        n = max(s.node_count, t.node_count)
        self.max_spread = math.log(1.0 / (n * np.finfo(dtype).tiny)) - 1.0
        terms = {"forward": [], "reverse": []}
        # the builders are read on each call, not from a module-level table, so patches apply
        for kind, coef, own in (("node", cfg.node_reg_coef, node_label_onehot),
                                ("edge", cfg.edge_reg_coef, edge_attr_matrix)):
            if not coef > 0 or None in (getattr(g, f"{kind}_labels") for g in (s, t)):
                continue
            if len({getattr(g, f"num_{kind}_labels") for g in source_graphs + list(targets)}) > 1:
                raise GraphError(f"{kind} label vocabularies differ between sources and targets")
            hood = partial(neighborhood_attr_matrix, kind=kind)
            # forward terms average over target nodes, reverse ones over source nodes
            for side, rows, feats, observed in (
                    ("forward", t.node_count, stack(source_graphs, own), stack(targets, own)),
                    ("reverse", s.node_count, stack(targets, hood), stack(source_graphs, hood))):
                terms[side].append((feats, -(coef / rows) * observed))
        self.penalties = [(side,) + tuple(np.concatenate(m, axis=-1).astype(dtype)
                                          for m in zip(*columns))
                          for side, columns in terms.items() if columns]

    def axis_sum(self, x, axis):
        """x (B, ., .) summed over axis -2 or -1, kept with length 1, as a
        matmul with a ones vector: several times faster than x.sum(axis) on
        these small stacks, with the additions in BLAS's order."""
        if axis == -2:
            return self.ones[x.shape[-2]] @ x
        return x @ self.ones[x.shape[-1]].T

    def softmax(self, z, axis):
        """The fit's softmax of a (B, ., .) stack of logits over axis -2 (per
        column) or -1 (per row), normalised by axis_sum.

        Each slice is shifted by its own maximum: one reduction over the
        slice, where nn.softmax takes one per column or row. Over a slice of
        spread d (max - min), every exp(z - max) is at least e^-d, and an
        entry normalised by a sum of at most n terms, each at most 1, is at
        least e^-d / n. Both stay at or above the dtype's smallest normal
        tiny while d <= ln(1 / (n tiny)) - 1 (max_spread, with n the larger
        node count): in float32 about 86.3 - ln n, so 82.4 at n = 49. A
        slice wider than that is shifted by the maximum of each column or
        row instead, as nn.softmax does, which leaves a 1 in each and so a
        sum of at least 1. The choice reads the slice alone, so a cell gets
        the bits of its lone fit in any stack.
        """
        shift = z.max(axis=(-2, -1), keepdims=True, initial=-np.inf)
        wide = shift - z.min(axis=(-2, -1), keepdims=True, initial=np.inf) > self.max_spread
        if wide.any():
            shift = np.where(wide, z.max(axis=axis, keepdims=True), shift)
        e = np.exp(z - shift)
        e /= self.axis_sum(e, axis)
        return e


def _ce_loss_and_gq(q, weights, loss=True):
    """Per-slice penalty sum(weights * log q) (None when loss is False) and
    its gradient wrt q, for a stack of inferred label matrices q."""
    qc = np.maximum(q, _LOG_FLOOR)
    value = (weights * np.log(qc)).sum(axis=(-2, -1)) if loss else None
    gq = np.where(q > _LOG_FLOOR, weights / qc, 0.0)
    return value, gq


def attention_loss_and_grads(problem, params, loss=True):
    """Training losses and analytic gradients for a stack of attention pairs.

    params["forward"] is (B, |V_S|, |V_T|) and params["reverse"] is
    (B, |V_T|, |V_S|), where B is the problem's cells times restarts; a
    single pair is a stack of one. Returns the B per-slice losses (None when
    loss is False: then no log is taken) and {"forward", "reverse"}
    gradients of the same shapes, whose bits do not depend on loss.
    Each loss is structural BCE on the target adjacency plus the weighted
    label penalties; slices never mix, so slice r's loss and gradients are
    those of pair r alone. The source encoders are constants here; nothing
    propagates into them.
    """
    forward, reverse = params["forward"], params["reverse"]

    # structural path; S is constant because the sources are frozen
    p, w, mixrows, pred = augmented_probs(forward, reverse, problem.fit_source_probs,
                                          problem.softmax)
    losses, g_pred = _bce_probs(pred, problem.adjacency, problem.non_adjacency, loss)
    g_w = g_pred.swapaxes(-1, -2) @ mixrows
    g_reverse = w * (g_w - problem.axis_sum(w * g_w, -1))
    # S (g_pred w)^T, as ((g_pred w) S^T)^T: numpy's batched matmul runs a
    # transposed right operand about half as fast, and one transposing copy
    # costs less than the elementwise backward over mixed layouts
    g_p = np.ascontiguousarray(((g_pred @ w) @ problem.fit_source_probs_t).swapaxes(-1, -2))

    # side -> (the column softmax its penalty acts on, the gradient wrt it);
    # each label kind adds to both terms, so any term needs the reverse map
    maps = {"forward": (p, g_p)}
    if problem.penalties:
        maps["reverse"] = (problem.softmax(reverse, axis=-2), np.zeros_like(reverse))
    for side, feats, weights in problem.penalties:
        q, g_q = maps[side]
        term, gq = _ce_loss_and_gq(q.swapaxes(-1, -2) @ feats, weights, loss)
        if loss:
            losses += term
        g_q += feats @ gq.swapaxes(-1, -2)

    # softmax (per column) backward of each map; the reverse one adds to the
    # structural gradient of the reverse logits
    grads = {"reverse": g_reverse}
    for side, (q, g_q) in maps.items():
        g_logits = q * (g_q - problem.axis_sum(q * g_q, -2))
        grads[side] = grads[side] + g_logits if side in grads else g_logits
    return losses, grads


def train_attention(source, target_graph, cfg, target_graph_id=None, restarts=1):
    """Fit the attention pair of one target against a frozen source encoder:
    a stack of one in train_attentions, with the same bits; raises its fault."""
    return nn.raise_faults(
        train_attentions([source], [target_graph], cfg, [target_graph_id], restarts))[0]


def train_attentions(sources, targets, cfg, target_graph_ids, restarts=1):
    """Fit one attention pair per cell (sources[c], targets[c]), each source a
    frozen encoder.

    The sources must share a node count and label kinds, and so must the
    targets; the cells train side by side as one stacked problem of
    len(targets) * restarts slices. Runs scoring_epochs of full-batch Adam on
    the attention matrices only, in FIT_DTYPE. The alignment objective is
    non-convex; with restarts > 1 several seeded inits per cell, each with
    its own init scale and learning rate from _RESTART_SCHEDULE, train at
    once, and the one with the lowest final training loss wins (the first on
    ties). Each cell's fit is deterministic given (its source's graph_id, its
    target graph id, cfg.rng_seed), and bit-identical to fitting it alone.
    Returns one AugmentedEncoder per cell, in order: the winning restart's
    logits as float64 with the float64 S, a loss_trace of that restart's
    losses at nn.recorded_epochs, and a `fault` that is None or, if a
    restart went non-finite, the nn.TrainingFault of the cell's lone fit.
    """
    if not all(source.trained for source in sources):
        raise ContractViolation("source encoder must be trained and frozen before alignment")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    problem = AlignmentProblem(sources, targets, cfg, restarts, FIT_DTYPE)
    inits, lrs = [], []
    for source, target, target_graph_id in zip(sources, targets, target_graph_ids):
        for restart in range(restarts):
            scale, lr_mult = _RESTART_SCHEDULE[restart % len(_RESTART_SCHEDULE)]
            rng = np.random.default_rng(
                derive_seed("attention", source.graph_id, target_graph_id, cfg.rng_seed, restart))
            init = init_attention(source, target, rng, scale=scale)
            inits.append({name: a.astype(FIT_DTYPE) for name, a in init.items()})
            lrs.append(cfg.learning_rate * lr_mult)
    params, trace, faults = nn.fit_stack(
        inits, lambda p, loss: attention_loss_and_grads(problem, p, loss),
        lrs, cfg.scoring_epochs, target_graph_ids, restarts)

    fitted = []
    for c, target in enumerate(targets):
        first = c * restarts
        best = first + (int(np.argmin(trace[-1, first:first + restarts]))
                        if cfg.scoring_epochs else 0)
        pair = AttentionPair(params["forward"][best].astype(float),
                             params["reverse"][best].astype(float))
        ae = AugmentedEncoder(pair, target, problem.source_probs[first])
        ae.loss_trace = trace[:, best].tolist()
        ae.fault = faults[c]
        fitted.append(ae)
    return fitted


def argmax_alignment(ae):
    """Hard alignment: for each target node, its strongest source node."""
    return np.argmax(attention_matrix(ae.attention), axis=0)
