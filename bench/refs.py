"""Independent references for the benchmark's correctness checks.

Plain numpy, written apart from graphdiv: nothing here imports the program.
test_refs.py checks each function on tiny inputs computed by hand.
"""

import numpy as np


def pairwise_sq_dist(x):
    """Squared Euclidean distance between every pair of rows, by broadcasting."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def class_separation(x, classes):
    """Mean between-class over mean within-class squared distance of the rows."""
    classes = np.asarray(classes)
    upper = np.triu_indices(len(classes), k=1)
    d = pairwise_sq_dist(x)[upper]
    same = (classes[:, None] == classes[None, :])[upper]
    return float(d[~same].mean() / d[same].mean())


def average_linkage_fault(dist, merges, rel_tol=1e-9):
    """Check a dendrogram against average linkage computed independently.

    Keeps the sum of leaf-to-leaf distances between every pair of clusters,
    so a cluster distance is a plain mean, with no recurrence. Returns None
    when every merge joins a closest pair of active clusters and its height
    equals that pair's mean distance; otherwise a message naming the merge.
    """
    d = np.asarray(dist, dtype=float)
    n = len(d)
    total = max(2 * n - 1, 1)
    sums = np.zeros((total, total))
    sums[:n, :n] = d
    size = np.zeros(total)
    size[:n] = 1.0
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    if len(merges) != n - 1:
        return f"{len(merges)} merges for {n} leaves"
    for m, (a, b, height) in enumerate(merges):
        if a == b or not (active[a] and active[b]):
            return f"merge {m} joins ({a}, {b}), not two distinct active clusters"
        idx = np.flatnonzero(active)
        means = sums[np.ix_(idx, idx)] / np.outer(size[idx], size[idx])
        np.fill_diagonal(means, np.inf)
        closest = means.min()
        mean_ab = sums[a, b] / (size[a] * size[b])
        tol = rel_tol * max(1.0, abs(closest))
        if mean_ab > closest + tol:
            return f"merge {m} joins ({a}, {b}) at mean {mean_ab!r}; a closer pair has {closest!r}"
        if abs(height - mean_ab) > tol:
            return f"merge {m} has height {height!r}, mean leaf distance {mean_ab!r}"
        new = n + m
        sums[new, :] = sums[a, :] + sums[b, :]
        sums[:, new] = sums[new, :]
        sums[new, new] = 0.0
        size[new] = size[a] + size[b]
        active[[a, b]] = False
        active[new] = True
    return None


# --- positive-edge log-loss from fitted parameters ---------------------------
#
# The divergence table stores raw - self, both sums over edges of -log p. To
# reproduce a cell bit for bit these follow the same floating-point operation
# order as the method's definition: relu layers, then a linear output layer,
# a piecewise sigmoid, column softmax forward and row softmax reverse maps.

def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z, axis):
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def encoder_logits(embedding, hidden, output):
    """Neighbor logits of every node: relu layers `hidden` then `output`,
    each a (weight, bias) pair with weight shaped (out, in)."""
    h = np.asarray(embedding, dtype=float)
    for w, b in hidden:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = output
    return h @ w.T + b


def self_log_loss(logits, edges):
    """-sum log sigmoid(logit) over both orientations of every edge."""
    total = 0.0
    for u, v in edges:
        total += _softplus(-logits[u, v]) + _softplus(-logits[v, u])
    return float(total)


def augmented_log_loss(forward, reverse, logits, edges):
    """-sum log p(u, v) over both orientations of every target edge, where p
    mixes the source's neighbor probabilities through both alignment maps."""
    p = _softmax(forward, axis=0)
    w = _softmax(reverse, axis=1)
    probs = np.maximum((p.T @ _sigmoid(logits)) @ w.T, 1e-300)
    total = 0.0
    for u, v in edges:
        total -= np.log(probs[u, v]) + np.log(probs[v, u])
    return float(total)
