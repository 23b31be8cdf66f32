"""Dense layer stacks (relu after every layer but the last), losses and Adam
on numpy arrays.

A fit runs at the dtype of its inits: fit_stack keeps its buffers, moments
and learning rates in that dtype, so the stacked attention fits run in
float32 (attention.train_attentions casts their inits) and the encoders, their
checkpoints and all scoring in float64. The losses fit_stack records are
float64 either way, which holds a float32 loss exactly.

Gradients are hand-derived per layer; there is no autodiff. Everything is a
pure function over caller-owned buffers, so independent trainings can run in
parallel processes without shared state. No file format lives here: the
checkpoint is written and read in encoder (save_encoder, load_encoder).
"""

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class TrainingFault(RuntimeError):
    """A fit went non-finite; see diverged."""


def sigmoid(z):
    # piecewise form avoids overflow in exp for large |z|: exp(-|z|) is
    # exp(-z) where z >= 0 and exp(z) elsewhere, and never exceeds 1
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def softplus(z):
    """log(1 + exp(z)), overflow-safe."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softmax(z, axis=-1):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    e /= e.sum(axis=axis, keepdims=True)
    return e


@dataclass
class DenseLayer:
    """y = x W^T + b; weight is (out, in), inputs are batched row-wise. A stack
    of G layers has weight (G, out, in) and bias (G, out). forward applies
    relu after every layer but the last."""
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim not in (2, 3) or self.bias.shape != self.weight.shape[:-1]:
            raise ShapeError("weight must be (out, in) or (G, out, in) with bias (out,) or (G, out)")

    @property
    def in_dim(self):
        return self.weight.shape[-1]


def init_dense(out_dim, in_dim, rng):
    """(weight, bias): weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim)), np.zeros(out_dim)


def forward(layers, x):
    """Run a layer stack (relu after all but the last layer) over a batch, or
    G stacked layer stacks over G batches; returns (output, tape for
    backward). Each slice gets the bits it would get alone."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    tape = []
    for k, layer in enumerate(layers):
        if h.shape[-1] != layer.in_dim:
            raise ShapeError(f"layer {k}: input width {h.shape[-1]} != expected {layer.in_dim}")
        z = h @ layer.weight.swapaxes(-1, -2) + layer.bias[..., None, :]
        tape.append((h, z))
        h = np.maximum(z, 0.0) if k < len(layers) - 1 else z
    return h, tape


def backward(layers, tape, grad_out):
    """Backprop grad_out through the stack, as forward ran it.

    Returns (per-layer [(grad_weight, grad_bias)], grad_input).
    """
    grads = [None] * len(layers)
    g = grad_out
    for k in range(len(layers) - 1, -1, -1):
        h, z = tape[k]
        gz = g * (z > 0) if k < len(layers) - 1 else g
        grads[k] = (gz.swapaxes(-1, -2) @ h, gz.sum(axis=-2))
        g = gz @ layers[k].weight
    return grads, g


def multilabel_bce_loss(logits, targets, loss=True):
    """Binary cross-entropy from logits, summed over the last two axes (one
    loss per slice of a stack), or None when loss is False; grad wrt logits
    is sigma(z) - t either way."""
    z = np.asarray(logits, dtype=float)
    t = np.asarray(targets, dtype=float)
    if z.shape != t.shape:
        raise ShapeError(f"logits {z.shape} vs targets {t.shape}")
    value = (softplus(z) - t * z).sum(axis=(-2, -1)) if loss else None
    return value, sigmoid(z) - t


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
# a normal number in float32 too; it only counts where sqrt(v_hat) is near 0
ADAM_EPSILON = 1e-8


def adam_step(p, g, m, v, t, lr):
    """Adam step t (with bias correction) on params p with gradient g and
    moments m, v, all updated in place; lr is a scalar or one rate per
    element. Every operation is elementwise, so each element moves exactly
    as it would alone and a non-finite gradient stays where it lands."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # m += (1 - b1) * (g - m); v += (1 - b2) * (g * g - v)
    buf = g - m
    buf *= 1 - b1
    m += buf
    np.multiply(g, g, out=buf)
    buf -= v
    buf *= 1 - b2
    v += buf
    # p -= lr * m_hat / (sqrt(v_hat) + epsilon)
    np.divide(v, 1 - b2 ** t, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPSILON
    step = m / (1 - b1 ** t)
    step *= lr
    step /= buf
    p -= step


def recorded_epochs(epochs):
    """The epochs whose loss fit_stack computes and keeps, in order: the
    first, the start of the last tenth and the last (none for no epochs)."""
    return sorted({0, epochs - math.ceil(epochs / 10), epochs - 1}) if epochs else []


def fit_stack(inits, loss_and_grads, lrs, epochs, ids, group=1):
    """The package's training loop: `epochs` full-batch Adam steps on a stack
    of independent problems, slice k starting from the named arrays inits[k]
    (every slice with the same names and shapes) at learning rate lrs[k].

    The slices are stacked into (G, ...) views of one flat buffer, so one
    adam_step moves them all. loss_and_grads(params, loss) takes those views
    and returns (one loss per slice, a gradient per name); it is asked for
    the loss (loss True) only at the recorded_epochs, and may return None
    for it elsewhere. As long as it keeps the slices apart, each slice gets
    the bits of its lone fit, and a slice that goes non-finite runs on
    alone. Returns (params, the (len(recorded_epochs), G) loss trace,
    faults): per run of `group` slices, for graph id ids[k], None if clean,
    else the fault (see diverged) at the first epoch whose incoming
    parameters are non-finite (`epochs` for the fitted arrays) or whose
    recorded loss is. A loss finite on finite parameters faults at the same
    epoch as its first non-finite loss.
    """
    stacked = {name: np.stack([init[name] for init in inits]) for name in inits[0]}
    flat = np.concatenate([a.ravel() for a in stacked.values()])
    views = np.split(flat, np.cumsum([a.size for a in stacked.values()])[:-1])
    params = {name: view.reshape(a.shape) for (name, a), view in zip(stacked.items(), views)}
    # in the buffer's dtype, so step *= lr does not compute in float64
    lr = np.concatenate([np.repeat(np.asarray(lrs, flat.dtype), a[0].size)
                         for a in stacked.values()])
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    rows = {epoch: row for row, epoch in enumerate(recorded_epochs(epochs))}
    trace = np.empty((len(rows), len(inits)))
    bad = np.zeros((epochs + 1, len(inits)), dtype=bool)

    def non_finite_slices():
        return ~np.all([np.isfinite(view).reshape(len(inits), -1).all(axis=1)
                        for view in views], axis=0)

    for epoch in range(epochs):
        if not np.isfinite(flat).all():
            bad[epoch] = non_finite_slices()
        row = rows.get(epoch)
        losses, grads = loss_and_grads(params, row is not None)
        if row is not None:
            trace[row] = losses
            bad[epoch] |= ~np.isfinite(losses)
        adam_step(flat, np.concatenate([grads[name].ravel() for name in params]), m, v,
                  epoch + 1, lr)
    bad[epochs] = non_finite_slices()
    bad = bad.reshape(epochs + 1, -1, group).any(axis=2)
    faults = [diverged(int(e), [i]) if b else None
              for e, b, i in zip(bad.argmax(axis=0), bad.any(axis=0), ids)]
    return params, trace, faults


def diverged(epoch, ids):
    """The fault of a fit whose slices for graph ids `ids` went bad at `epoch`."""
    fault = TrainingFault(f"loss diverged (non-finite) at epoch {epoch} for graph id(s) {ids}")
    fault.epoch, fault.ids = epoch, list(ids)
    return fault


def raise_faults(fitted):
    """fitted, unless some of its items carry a `fault`: then one fault
    naming each of their graph ids, in order, at the earliest epoch."""
    faults = [item.fault for item in fitted if item.fault]
    if faults:
        raise diverged(min(f.epoch for f in faults), [i for f in faults for i in f.ids])
    return fitted

