"""Per-graph structure encoder: one-hot node in, neighbor scores out.

Training minimizes full binary cross-entropy against the adjacency matrix
(non-neighbors count as negative targets, including the self column).
Same-size graphs train as one stack (fit_encoders); a slice's bytes do not
depend on its group. Scoring uses only the positive edge terms (positive_log_loss).
"""

import hashlib
import json
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.encoding_epochs < 0 or self.scoring_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.node_reg_coef < 0 or self.edge_reg_coef < 0:
            raise ValueError("regularizer coefficients must be >= 0")

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
    """Embedding table + relu hidden stack + linear output over |V| logits.
    In a stacked fit (fit_encoders) every array has a leading axis G."""

    def __init__(self, graph, graph_id, embedding, hidden, output):
        self.graph = graph
        self.graph_id = graph_id
        self.embedding = embedding      # |V| x d
        self.hidden = hidden            # list of DenseLayer (relu)
        self.output = output            # DenseLayer to |V| logits
        self.trained = False
        self.loss_trace = []
        self.fault = None               # set by fit_encoders

    @property
    def node_count(self):
        return self.graph.node_count

    @property
    def embed_dim(self):
        return self.embedding.shape[1]

    @property
    def layers(self):
        return self.hidden + [self.output]

    def params(self):
        p = {"embedding": self.embedding}
        for k, layer in enumerate(self.hidden):
            p[f"hidden{k}.weight"] = layer.weight
            p[f"hidden{k}.bias"] = layer.bias
        p["output.weight"] = self.output.weight
        p["output.bias"] = self.output.bias
        return p


def build_encoder(graph, cfg, graph_id=0):
    """Seeded random init; deterministic for a given (graph_id, cfg)."""
    if graph.node_count == 0:
        raise ValueError("cannot build an encoder for an empty graph")
    rng = np.random.default_rng(derive_seed("encoder", graph_id, cfg.rng_seed))
    d = cfg.embed_dim
    n = graph.node_count
    bound = 1.0 / np.sqrt(n)
    embedding = rng.uniform(-bound, bound, size=(n, d))
    hidden = [nn.init_dense(d, d, rng) for _ in range(cfg.encoder_layers)]
    output = nn.init_dense(n, d, rng)
    return SourceEncoder(graph, graph_id, embedding, hidden, output)


def _assemble(graph, graph_id, params, hidden_layers):
    """A SourceEncoder over named parameter arrays (see SourceEncoder.params)."""
    hidden = [DenseLayer(params[f"hidden{k}.weight"], params[f"hidden{k}.bias"])
              for k in range(hidden_layers)]
    output = DenseLayer(params["output.weight"], params["output.bias"])
    return SourceEncoder(graph, graph_id, params["embedding"], hidden, output)


def encoder_loss_and_grads(enc, adjacency):
    """Full-batch BCE against the adjacency matrix, with analytic gradients.
    enc may be a stack (arrays with a leading axis G, as fit_encoders
    builds) against a (G, n, n) adjacency: one loss per slice, each slice's
    loss and gradients the bits it would get alone."""
    logits, tape = nn.forward(enc.layers, enc.embedding)
    loss, g_logits = nn.multilabel_bce_loss(logits, adjacency)
    layer_grads, g_input = nn.backward(enc.layers, tape, g_logits)
    grads = {"embedding": g_input}
    for k in range(len(enc.hidden)):
        grads[f"hidden{k}.weight"], grads[f"hidden{k}.bias"] = layer_grads[k]
    grads["output.weight"], grads["output.bias"] = layer_grads[-1]
    return loss, grads


def positive_log_loss(enc):
    """-sum log sigma(logit) over both orientations of every edge of the
    encoder's own graph: the self-divergence baseline, strictly positive for
    any finite parameters."""
    logits, _ = nn.forward(enc.layers, enc.embedding)
    return edge_pair_sum(enc.graph, nn.softplus, -logits)


def fit_encoders(graphs, cfg, graph_ids):
    """Fit one encoder per graph; the graphs must share a node count.

    They train as one stacked problem in nn.train_stack: encoding_epochs of
    full-batch Adam, one forward, backward and Adam step per epoch. Each
    slice starts from build_encoder's init for its graph id, and its params
    and loss trace are the bits of a fit of that graph alone. Returns the
    encoders in order, each with `fault` None or, if its slice went
    non-finite, the nn.TrainingFault of its lone fit.
    """
    if len({g.node_count for g in graphs}) != 1:
        raise ValueError("a stack of encoders needs graphs of one node count")
    encs = [build_encoder(g, cfg, graph_id=gid) for g, gid in zip(graphs, graph_ids)]
    inits = [enc.params() for enc in encs]
    # every stacked array is a view into one flat buffer, so one Adam step
    # updates the whole stack in a single pass over it
    stacked = [np.stack([init[name] for init in inits]) for name in inits[0]]
    flat = np.concatenate([a.ravel() for a in stacked])
    views = np.split(flat, np.cumsum([a.size for a in stacked])[:-1])
    params = {name: v.reshape(a.shape) for name, v, a in zip(inits[0], views, stacked)}
    stack = _assemble(None, list(graph_ids), params, cfg.encoder_layers)
    adjacency = np.stack([g.adjacency_matrix() for g in graphs])

    def loss_and_grads(_):
        losses, grads = encoder_loss_and_grads(stack, adjacency)
        return losses, {"encoder": np.concatenate([grads[name].ravel() for name in params])}

    trace = nn.train_stack(loss_and_grads, {"encoder": flat}, cfg.learning_rate,
                           cfg.encoding_epochs, len(graphs))
    faults = nn.stack_faults(trace, params.values(), graph_ids)
    for g, (enc, init) in enumerate(zip(encs, inits)):
        for name, p in init.items():
            p[...] = params[name][g]
        enc.trained = True
        enc.loss_trace = trace[:, g].tolist()
        enc.fault = faults[g]
    return encs


def train_encoder(graph, cfg, graph_id=0):
    """Fit one graph's encoder: a stack of one in fit_encoders; raises its fault."""
    return nn.raise_faults(fit_encoders([graph], cfg, [graph_id]))[0]


# --- checkpointing -----------------------------------------------------------

def encoder_to_checkpoint(enc, cfg):
    meta = {"graph_id": str(enc.graph_id), "config_hash": cfg.encoder_hash(),
            "node_count": enc.node_count, "embed_dim": enc.embed_dim,
            "hidden_layers": len(enc.hidden), "trained": enc.trained,
            "graph": enc.graph.to_json_dict()}
    return nn.params_to_checkpoint(enc.params(), meta=meta)


def encoder_from_checkpoint(ckpt):
    meta = ckpt["meta"]
    enc = _assemble(Graph.from_json_dict(meta["graph"]), meta["graph_id"],
                    nn.params_from_checkpoint(ckpt), meta["hidden_layers"])
    enc.trained = bool(meta["trained"])
    return enc


def save_encoder(enc, cfg, path):
    atomic_write(path, json.dumps(encoder_to_checkpoint(enc, cfg)))


def load_encoder(path):
    with open(path) as f:
        return encoder_from_checkpoint(json.load(f))
