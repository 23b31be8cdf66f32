"""Per-graph structure encoder: one-hot node in, neighbor scores out.

Training minimizes full binary cross-entropy against the adjacency matrix
(non-neighbors count as negative targets, including the self column).
Same-size graphs train as one stack (fit_encoders); a slice's bytes do not
depend on its group. Scoring uses only the positive edge terms (positive_log_loss).
"""

import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .graphs import Graph, atomic_write, edge_pair_sum
from .nn import DenseLayer, TrainingFault  # noqa: F401 (TrainingFault is re-exported)


class ContractViolation(RuntimeError):
    pass


@dataclass
class TrainConfig:
    embed_dim: int = 8
    encoder_layers: int = 2
    learning_rate: float = 1e-2
    encoding_epochs: int = 300
    scoring_epochs: int = 300
    node_reg_coef: float = 1.0
    edge_reg_coef: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.embed_dim <= 0 or self.encoder_layers <= 0:
            raise ValueError("embed_dim and encoder_layers must be positive")
        # chained comparisons, so that NaN fails them too
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.encoding_epochs < 0 or self.scoring_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if not (0 <= self.node_reg_coef < math.inf and 0 <= self.edge_reg_coef < math.inf):
            raise ValueError("regularizer coefficients must be finite and >= 0")

    def hash(self, fields=None):
        """Short digest of the named fields, or of the whole config."""
        config = asdict(self)
        blob = json.dumps({k: config[k] for k in fields or config}, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def encoder_hash(self):
        """Digest of the fields an encoder fit reads; it keys the checkpoints."""
        return self.hash(("embed_dim", "encoder_layers", "learning_rate", "encoding_epochs",
                          "rng_seed"))


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary string/int parts."""
    h = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class SourceEncoder:
    """One graph's encoder: embedding table + relu hidden stack + linear output
    over |V| logits. `params` is its one store: the named arrays nn.fit_stack
    returns and a checkpoint carries, in order "embedding" (|V| x d),
    "hidden{k}.weight" and ".bias" per hidden layer, "output.weight" and
    ".bias". embedding, layers, hidden and output are views of them."""

    def __init__(self, graph, graph_id, params, trained=False):
        self.graph = graph
        self.graph_id = graph_id
        self.params = params
        self.trained = trained
        self.embedding = params["embedding"]
        self.layers = _layers(params)
        *self.hidden, self.output = self.layers
        self.loss_trace = []
        self.fault = None               # set by fit_encoders

    @property
    def node_count(self):
        return self.graph.node_count


def build_encoder(graph, cfg, graph_id=0):
    """Seeded random init; deterministic for a given (graph_id, cfg)."""
    if graph.node_count == 0:
        raise ValueError("cannot build an encoder for an empty graph")
    rng = np.random.default_rng(derive_seed("encoder", graph_id, cfg.rng_seed))
    d = cfg.embed_dim
    n = graph.node_count
    bound = 1.0 / np.sqrt(n)
    params = {"embedding": rng.uniform(-bound, bound, size=(n, d))}
    for k in range(cfg.encoder_layers):
        params[f"hidden{k}.weight"], params[f"hidden{k}.bias"] = nn.init_dense(d, d, rng)
    params["output.weight"], params["output.bias"] = nn.init_dense(n, d, rng)
    return SourceEncoder(graph, graph_id, params)


def _layers(params):
    """The DenseLayers over named parameter arrays (see SourceEncoder),
    hidden first: the one path from the arrays to layers."""
    names = [f"hidden{k}" for k in range((len(params) - 3) // 2)] + ["output"]
    return [DenseLayer(params[f"{name}.weight"], params[f"{name}.bias"]) for name in names]


def encoder_loss_and_grads(params, adjacency, layers=None):
    """Full-batch BCE against the adjacency matrix, with analytic gradients,
    for named parameter arrays (see SourceEncoder) and their layers
    (built from them unless given). The arrays may be a stack (a leading
    axis G, as fit_encoders trains) against a (G, n, n) adjacency: one loss
    per slice, each slice's loss and gradients the bits it would get alone."""
    layers = layers or _layers(params)
    logits, tape = nn.forward(layers, params["embedding"])
    loss, g_logits = nn.multilabel_bce_loss(logits, adjacency)
    layer_grads, g_input = nn.backward(layers, tape, g_logits)
    grads = {"embedding": g_input}
    for k, (g_weight, g_bias) in enumerate(layer_grads):
        name = f"hidden{k}" if k < len(layers) - 1 else "output"
        grads[f"{name}.weight"], grads[f"{name}.bias"] = g_weight, g_bias
    return loss, grads


def positive_log_loss(enc):
    """-sum log sigma(logit) over both orientations of every edge of the
    encoder's own graph: the self-divergence baseline. For finite parameters
    it is positive when the graph has an edge, and 0.0 when it has none."""
    logits, _ = nn.forward(enc.layers, enc.embedding)
    return edge_pair_sum(enc.graph, nn.softplus, -logits)


def fit_encoders(graphs, cfg, graph_ids):
    """Fit one encoder per graph; the graphs must share a node count.

    They train as one stacked problem in nn.fit_stack: encoding_epochs of
    full-batch Adam, one forward, backward and Adam step per epoch. Each
    slice starts from build_encoder's init for its graph id, and its params
    and loss trace are the bits of a fit of that graph alone. Returns the
    encoders in order, each with `fault` None or, if its slice went
    non-finite, the nn.TrainingFault of its lone fit.
    """
    if len({g.node_count for g in graphs}) != 1:
        raise ValueError("a stack of encoders needs graphs of one node count")
    inits = [build_encoder(g, cfg, graph_id=gid).params for g, gid in zip(graphs, graph_ids)]
    adjacency = np.stack([g.adjacency_matrix() for g in graphs])
    layers = []

    def loss_and_grads(params):
        layers[:] = layers or _layers(params)  # the views stay put: build their layers once
        return encoder_loss_and_grads(params, adjacency, layers)

    params, trace, faults = nn.fit_stack(inits, loss_and_grads, [cfg.learning_rate] * len(inits),
                                         cfg.encoding_epochs, graph_ids)
    encs = [SourceEncoder(graph, gid, {name: a[g] for name, a in params.items()}, trained=True)
            for g, (graph, gid) in enumerate(zip(graphs, graph_ids))]
    for g, enc in enumerate(encs):
        enc.loss_trace, enc.fault = trace[:, g].tolist(), faults[g]
    return encs


def train_encoder(graph, cfg, graph_id=0):
    """Fit one graph's encoder: a stack of one in fit_encoders; raises its fault."""
    return nn.raise_faults(fit_encoders([graph], cfg, [graph_id]))[0]


# --- checkpointing -----------------------------------------------------------

def encoder_to_checkpoint(enc, cfg):
    meta = {"graph_id": str(enc.graph_id), "config_hash": cfg.encoder_hash(),
            "node_count": enc.node_count, "embed_dim": enc.embedding.shape[1],
            "hidden_layers": len(enc.hidden), "trained": enc.trained,
            "graph": enc.graph.to_json_dict()}
    return nn.params_to_checkpoint(enc.params, meta=meta)


def encoder_from_checkpoint(ckpt):
    meta, params = ckpt["meta"], nn.params_from_checkpoint(ckpt)
    return SourceEncoder(Graph.from_json_dict(meta["graph"]), meta["graph_id"], params,
                         trained=bool(meta["trained"]))


def save_encoder(enc, cfg, path):
    atomic_write(path, json.dumps(encoder_to_checkpoint(enc, cfg)))


def load_encoder(path):
    with open(path) as f:
        return encoder_from_checkpoint(json.load(f))
