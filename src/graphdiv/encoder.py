"""Per-graph structure encoder: one-hot node in, neighbor scores out. An
encoder is its named arrays, checked against its graph where they enter.

Training minimizes full binary cross-entropy against the adjacency matrix
(non-neighbors count as negative targets, including the self column).
Same-size graphs train as one stack (fit_encoders); a slice's bytes do not
depend on its group. Scoring uses only the positive edge terms (positive_log_loss).
"""

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import zip_longest

import numpy as np

from . import nn
from .graphs import Graph, atomic_write, edge_pair_sum
from .nn import TrainingFault  # noqa: F401 (re-exported)


class ContractViolation(RuntimeError):
    pass


# the TrainConfig fields an encoder fit reads; their digest keys the checkpoints
ENCODER_FIELDS = ("embed_dim", "encoder_layers", "learning_rate", "encoding_epochs", "rng_seed")


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
        return _digest({k: config[k] for k in fields or config})[:12]

    def encoder_hash(self):
        """Digest of the fields an encoder fit reads; it keys the checkpoints."""
        return self.hash(ENCODER_FIELDS)


def _digest(obj):
    """SHA-256 hex digest of obj as sorted-key JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary string/int parts."""
    h = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


Layer = namedtuple("Layer", "weight bias")


class SourceEncoder:
    """One graph's encoder: embedding table + relu hidden stack + linear output
    over |V| logits. `params` is its one store: the named arrays nn.fit_stack
    returns and a checkpoint carries, in order "embedding" (|V|, d),
    "hidden{k}.weight" (d, d) and ".bias" (d,) per hidden layer,
    "output.weight" (|V|, d) and ".bias" (|V|,); any other names, order or
    shapes raise nn.ShapeError. embedding and the Layers in layers (hidden,
    then output) are views of them."""

    def __init__(self, graph, graph_id, params, trained=False):
        n, d = graph.node_count, np.shape(params.get("embedding"))[-1:]
        layout = ([("embedding", (n, *d))]
                  + [(f"hidden{k}.{part}", shape) for k in range((len(params) - 3) // 2)
                     for part, shape in (("weight", d + d), ("bias", d))]
                  + [("output.weight", (n, *d)), ("output.bias", (n,))])
        for k, (got, want) in enumerate(zip_longest(
                [(name, np.shape(a)) for name, a in params.items()], layout)):
            if got != want:
                raise nn.ShapeError(f"param {k} is {got} where a {n}-node encoder has {want}")
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

    @cached_property
    def digest(self):
        """SHA-256 of the graph's digest and each param's name, shape and bytes;
        it keys the cells scored with this encoder, which is frozen once fitted."""
        parts = [f"{name}{a.shape}".encode() + a.tobytes() for name, a in self.params.items()]
        return hashlib.sha256(self.graph.digest.encode() + b"".join(parts)).hexdigest()


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
    """The Layers over named parameter arrays (see SourceEncoder), hidden
    first: the one path from the arrays to layers."""
    names = [f"hidden{k}" for k in range((len(params) - 3) // 2)] + ["output"]
    return [Layer(params[f"{name}.weight"], params[f"{name}.bias"]) for name in names]


def encoder_loss_and_grads(params, adjacency, loss=True):
    """Full-batch BCE against the adjacency matrix, with analytic gradients
    under the params' own names (see SourceEncoder). The arrays may be a
    stack (a leading axis G, as fit_encoders trains) against a (G, n, n)
    adjacency: one loss per slice, each slice's loss and gradients the bits
    it would get alone. With loss False the loss is None and only the
    gradients are computed."""
    layers = _layers(params)
    logits, tape = nn.forward(layers, params["embedding"])
    loss, g_logits = nn.multilabel_bce_loss(logits, adjacency, loss)
    layer_grads, g_input = nn.backward(layers, tape, g_logits)
    return loss, dict(zip(params, [g_input] + [g for pair in layer_grads for g in pair]))


def positive_log_loss(encoders):
    """-sum log sigma(logit) over both orientations of every edge of each
    encoder's own graph: the self-divergence baseline, one per encoder. The
    encoders of one node count and parameter shapes run one stacked forward,
    and each loss has the bits of its lone forward, its edge sum in edge
    order. For finite parameters a loss is positive when the graph has an
    edge, and 0.0 when it has none."""
    groups = {}
    for i, enc in enumerate(encoders):
        groups.setdefault(tuple((name, a.shape) for name, a in enc.params.items()), []).append(i)
    losses = [None] * len(encoders)
    for idx in groups.values():
        params = {name: np.array([encoders[i].params[name] for i in idx])
                  for name in encoders[idx[0]].params}
        logits, _ = nn.forward(_layers(params), params["embedding"])
        for i, z in zip(idx, logits):
            losses[i] = edge_pair_sum(encoders[i].graph, nn.softplus, -z)
    return losses


def fit_encoders(graphs, cfg, graph_ids):
    """Fit one encoder per graph; the graphs must share a node count.

    They train as one stacked problem in nn.fit_stack: encoding_epochs of
    full-batch Adam, one forward, backward and Adam step per epoch, the loss
    only at nn.recorded_epochs. Each slice starts from build_encoder's init
    for its graph id, and its params and loss trace (the recorded losses) are
    the bits of a fit of that graph alone. Returns the encoders in order,
    each with `fault` None or, if its slice went non-finite, the
    nn.TrainingFault of its lone fit.
    """
    if len({g.node_count for g in graphs}) != 1:
        raise ValueError("a stack of encoders needs graphs of one node count")
    inits = [build_encoder(g, cfg, graph_id=gid).params for g, gid in zip(graphs, graph_ids)]
    adjacency = np.stack([g.adjacency_matrix() for g in graphs])
    params, trace, faults = nn.fit_stack(
        inits, lambda params, loss: encoder_loss_and_grads(params, adjacency, loss),
        [cfg.learning_rate] * len(inits), cfg.encoding_epochs, graph_ids)
    encs = [SourceEncoder(graph, gid, {name: a[g] for name, a in params.items()}, trained=True)
            for g, (graph, gid) in enumerate(zip(graphs, graph_ids))]
    for g, enc in enumerate(encs):
        enc.loss_trace, enc.fault = trace[:, g].tolist(), faults[g]
    return encs


def train_encoder(graph, cfg, graph_id=0):
    """Fit one graph's encoder: a stack of one in fit_encoders; raises its fault."""
    return nn.raise_faults(fit_encoders([graph], cfg, [graph_id]))[0]


# --- checkpoints -------------------------------------------------------------

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_encoder(enc, cfg, path):
    """Write enc's checkpoint, versioned JSON: its params' shapes, then their
    values as float.hex strings (exact, so a reload is bit-identical), the
    values' checksum, and the meta load_encoder rebuilds the encoder from."""
    values = {name: [float(x).hex() for x in a.reshape(-1)] for name, a in enc.params.items()}
    atomic_write(path, json.dumps({
        "version": CHECKPOINT_VERSION,
        "shapes": {name: list(a.shape) for name, a in enc.params.items()},
        "values": values, "checksum": _digest(values),
        "meta": {"graph_id": str(enc.graph_id), "config_hash": cfg.encoder_hash(),
                 "node_count": enc.node_count, "embed_dim": enc.embedding.shape[1],
                 "hidden_layers": len(enc.hidden), "trained": enc.trained,
                 "graph": enc.graph.to_json_dict()}}))


def load_encoder(path):
    """The encoder of a save_encoder checkpoint, bit for bit; CheckpointError
    for another version, values that fail the checksum or params that do not
    fit the layout of its graph (see SourceEncoder)."""
    with open(path) as f:
        ckpt = json.load(f)
    if ckpt.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {ckpt.get('version')!r}")
    if _digest(ckpt["values"]) != ckpt.get("checksum"):
        raise CheckpointError("checkpoint checksum mismatch (corrupted file)")
    params = {name: np.array([float.fromhex(h) for h in ckpt["values"][name]]).reshape(shape)
              for name, shape in ckpt["shapes"].items()}
    meta = ckpt["meta"]
    try:
        return SourceEncoder(Graph.from_json_dict(meta["graph"]), meta["graph_id"], params,
                             trained=bool(meta["trained"]))
    except nn.ShapeError as exc:
        raise CheckpointError(f"checkpoint params do not fit its graph: {exc}") from None
