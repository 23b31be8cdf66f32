"""Downstream evaluation: cross-validated classification on the divergence
embeddings, agglomerative clustering of the embedding space, and the
source-sampling sweep.

Cross-validation fits the hinge classifiers of all folds whose training
splits share a size and a class set as one (F, n, d) problem. No row is
padded or masked and every matmul, reduction and update runs per slice, so
each fold's weights are the bits of its lone fit; a stratified plan gives
one or two such groups.
"""

from dataclasses import dataclass, field

import numpy as np

from .divergence import DivergenceTable, distance_matrix, embed_all


class EvalError(ValueError):
    pass


def _nonfinite_error(what, rows):
    return EvalError(f"{what} rows {rows.tolist()} are not finite (failed divergence cells)")


# --- fold plans --------------------------------------------------------------

@dataclass
class FoldPlan:
    fold_count: int
    assignments: np.ndarray  # graph index -> fold id
    stratified: bool
    rng_seed: int

    def test_indices(self, fold):
        return np.where(self.assignments == fold)[0]

    def train_indices(self, fold):
        return np.where(self.assignments != fold)[0]


def make_fold_plan(classes, fold_count=10, rng_seed=0):
    """Seeded stratified fold assignment: per-class counts per fold differ by
    at most 1."""
    classes = np.asarray(classes)
    n = len(classes)
    if fold_count < 2 or fold_count > n:
        raise EvalError(f"fold_count {fold_count} invalid for {n} items")
    rng = np.random.default_rng(rng_seed)
    assignments = np.empty(n, dtype=int)
    for c in np.unique(classes):
        idx = np.flatnonzero(classes == c)
        rng.shuffle(idx)
        assignments[idx] = np.arange(len(idx)) % fold_count
    return FoldPlan(fold_count, assignments, True, rng_seed)


# --- classifiers -------------------------------------------------------------

HINGE_LEARNING_RATE = 0.1
HINGE_EPOCHS = 500
HINGE_L2 = 1e-3
KNN_K = 5


class Standardizer:
    """Per-feature zero mean / unit variance, fit on the training split only."""

    def fit(self, x):
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        self.std = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x):
        return (x - self.mean) / self.std


class HingeClassifier:
    """Linear max-margin classifier, one-vs-rest per class.

    L2-regularized hinge loss by deterministic full-batch subgradient descent;
    the per-class problems train together as the columns of one weight matrix.
    fit also takes F same-size training splits, x (F, n, d) with y (F, n) or
    one (n,) vector; each slice gets the bits of its lone fit, and clf[k] is
    slice k's classifier.
    """

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        xs = x[None] if x.ndim == 2 else x
        ys = np.broadcast_to(np.asarray(y), xs.shape[:2])
        self.classes_ = np.unique(ys)
        if len(self.classes_) < 2:
            raise EvalError("training split contains a single class")
        if any(len(np.unique(row)) != len(self.classes_) for row in ys):
            raise EvalError("stacked training splits must hold the same classes")
        f, n, d = xs.shape
        targets = np.where(ys[..., None] == self.classes_, 1.0, -1.0)
        xt = xs.swapaxes(-1, -2)
        w = np.zeros((f, d, len(self.classes_)))
        b = np.zeros((f, 1, len(self.classes_)))
        # active holds only -1, 0 and +1, so its column sums are exact
        # integers (+0.0 when zero) in any order; a matmul with ones is a
        # faster column sum than a reduction over the row axis
        ones = np.ones((1, n))
        for t in range(HINGE_EPOCHS):
            lr = HINGE_LEARNING_RATE / (1.0 + 0.01 * t)
            active = np.where(targets * (xs @ w + b) < 1.0, targets, 0.0)
            gw = -(xt @ active) / n + 2.0 * HINGE_L2 * w
            gb = -(ones @ active) / n
            w -= lr * gw
            b -= lr * gb
        self.weights_, self.bias_ = (w[0], b[0, 0]) if x.ndim == 2 else (w, b[:, 0])
        return self

    def __getitem__(self, k):
        lone = HingeClassifier()
        lone.classes_, lone.weights_, lone.bias_ = self.classes_, self.weights_[k], self.bias_[k]
        return lone

    def decision(self, x):
        return x @ self.weights_ + self.bias_

    def predict(self, x):
        return self.classes_[np.argmax(self.decision(x), axis=1)]


def _knn_predict(train_x, train_y, test_x, k):
    """Majority vote of the k nearest training rows; equal distances rank the
    lower training index first and equal votes go to the smallest label."""
    d = distance_matrix(np.vstack([train_x, test_x]))[len(train_x):, :len(train_x)]
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    labels, codes = np.unique(train_y, return_inverse=True)
    votes = (codes[nearest][:, :, None] == np.arange(len(labels))).sum(axis=1)
    return labels[np.argmax(votes, axis=1)]


@dataclass
class CVResult:
    mean: float
    std: float
    fold_accuracies: list
    knn_mean: float
    knn_std: float
    knn_fold_accuracies: list
    fold_ids: list              # the plan's fold id of each accuracy
    skipped_folds: list = field(default_factory=list)


def classify_cv(table, classes, plan=None):
    """Stratified cross-validated accuracy of the embeddings.

    Standardization is fit per fold on the training split only. Reports the
    linear hinge classifier as the headline number plus a k-NN baseline, per
    evaluated fold in fold order. A fold with no test rows is left out and
    one whose training split holds a single class is skipped.
    """
    features = table.values if isinstance(table, DivergenceTable) else np.asarray(table, dtype=float)
    classes = np.asarray(classes)
    if len(features) != len(classes):
        raise EvalError("feature rows and class list must align")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise _nonfinite_error("feature", bad)
    if plan is None:
        plan = make_fold_plan(classes)
    if len(plan.assignments) != len(features):
        raise EvalError(f"fold plan assigns {len(plan.assignments)} items, "
                        f"the features have {len(features)} rows")

    folds, skipped, groups = [], [], {}
    for fold in range(plan.fold_count):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        if len(te) == 0:
            continue
        labels = np.unique(classes[tr])
        if len(labels) < 2:
            skipped.append(fold)
            continue
        scaler = Standardizer().fit(features[tr])
        groups.setdefault((len(tr), tuple(labels.tolist())), []).append(len(folds))
        folds.append((fold, tr, te, scaler.transform(features[tr]), scaler.transform(features[te])))
    if not folds:
        raise EvalError("no usable folds")

    # the folds of one training-split size and class set fit as one stack
    clfs = [None] * len(folds)
    for members in groups.values():
        stacked = HingeClassifier().fit(np.stack([folds[i][3] for i in members]),
                                        np.stack([classes[folds[i][1]] for i in members]))
        for k, i in enumerate(members):
            clfs[i] = stacked[k]

    accs, knn_accs = [], []
    for (fold, tr, te, xtr, xte), clf in zip(folds, clfs):
        accs.append(float(np.mean(clf.predict(xte) == classes[te])))
        knn = _knn_predict(xtr, classes[tr], xte, KNN_K)
        knn_accs.append(float(np.mean(knn == classes[te])))
    return CVResult(float(np.mean(accs)), float(np.std(accs)), accs,
                    float(np.mean(knn_accs)), float(np.std(knn_accs)), knn_accs,
                    [f[0] for f in folds], skipped)


# --- hierarchical clustering -------------------------------------------------

@dataclass
class Dendrogram:
    """Merge list of (cluster_a, cluster_b, height); leaves are 0..n-1 and the
    i-th merge creates cluster n+i. Heights are nondecreasing."""
    leaf_count: int
    merges: list

    def __post_init__(self):
        if len(self.merges) != max(self.leaf_count - 1, 0):
            raise EvalError("dendrogram must contain exactly leaves-1 merges")
        heights = [h for _, _, h in self.merges]
        if any(b < a - 1e-12 for a, b in zip(heights, heights[1:])):
            raise EvalError("merge heights must be nondecreasing")


def hier_cluster(distances):
    """Agglomerative clustering with average linkage.

    Ties break deterministically toward the pair containing the smallest leaf
    index (then the smallest leaf index on the other side).

    Generic algorithm with a nearest-neighbour cache (Muellner, "Modern
    hierarchical, agglomerative clustering algorithms", arXiv:1109.2378):
    each active cluster lives in the row of its smallest leaf and only
    columns to the right of a row count, so the tie-break is the first
    minimum in row-major order. Each row caches its first minimum; a merge
    takes the first minimum of the cached ones and keeps the merged cluster
    in the lower row. Only the rows whose cached neighbour was merged are
    re-scanned; the other rows above compare their cached minimum with their
    new distance to the merged cluster. O(n^2) in the typical case, O(n^3)
    at worst.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise EvalError("distance matrix must be square")
    nonfinite = (~np.isfinite(d)).sum(axis=1)
    if nonfinite.any():
        # a failed item is non-finite across its row, the others only in its column
        raise _nonfinite_error("distance", np.flatnonzero(nonfinite == nonfinite.max()))
    if not np.allclose(d, d.T, atol=1e-9):
        raise EvalError("distance matrix must be symmetric")
    if not np.allclose(np.diag(d), 0.0, atol=1e-12):
        raise EvalError("distance matrix must have a zero diagonal")

    n = d.shape[0]
    if n < 2:
        return Dendrogram(n, [])
    # symmetric copy of the upper triangle; merged-away rows and columns and
    # the diagonal hold inf
    dist = np.triu(d, 1)
    lower = np.tril_indices(n, -1)
    dist[lower] = d.T[lower]
    np.fill_diagonal(dist, np.inf)
    right = np.where(np.tri(n, dtype=bool), np.inf, dist)
    nearest = np.argmin(right, axis=1)        # first minimum right of each row
    nearest_d = right[np.arange(n), nearest]
    size = np.ones(n)
    cluster_id = list(range(n))

    merges = []
    for m in range(n - 1):
        a = int(nearest_d.argmin())
        b = int(nearest[a])
        lo, hi = sorted((cluster_id[a], cluster_id[b]))
        merges.append((lo, hi, float(nearest_d[a])))
        # Lance-Williams; the weighted sum commutes, so it equals the
        # lower-cluster-id-first form bit for bit
        row = (size[a] * dist[a] + size[b] * dist[b]) / (size[a] + size[b])
        dist[a], dist[:, a] = row, row
        dist[b], dist[:, b] = np.inf, np.inf
        size[a] += size[b]
        cluster_id[a] = n + m
        nearest_d[b] = np.inf

        # rows above b whose neighbour was merged; row a is one of them
        stale = (nearest[:b] == a) | (nearest[:b] == b)
        # in any other row above a, only the distance to row a changed
        new = dist[:a, a]
        closer = ~stale[:a] & ((new < nearest_d[:a])
                               | ((new == nearest_d[:a]) & (a < nearest[:a])))
        nearest[:a][closer] = a
        nearest_d[:a][closer] = new[closer]
        for r in (stale & (nearest_d[:b] < np.inf)).nonzero()[0].tolist():
            j = r + 1 + int(dist[r, r + 1:].argmin())
            nearest[r], nearest_d[r] = j, dist[r, j]
    return Dendrogram(n, merges)


def cut_clusters(dendrogram, k):
    """Flat assignment with k clusters: apply the first leaves-k merges.

    Clusters are numbered in the order of their first leaf.
    """
    n = dendrogram.leaf_count
    if not (1 <= k <= n):
        raise EvalError(f"cannot cut {n} leaves into {k} clusters")
    # a merge's root is known before its children's in a reverse pass
    root = list(range(2 * n - k))
    for m in range(n - k - 1, -1, -1):
        a, b, _ = dendrogram.merges[m]
        root[a] = root[b] = root[n + m]
    labels = {}
    return np.array([labels.setdefault(root[leaf], len(labels)) for leaf in range(n)])


def purity(assignments, true_families):
    """Fraction of items sitting in a cluster whose majority family is theirs."""
    assignments = np.asarray(assignments)
    families = np.asarray(true_families)
    if len(assignments) != len(families):
        raise EvalError("assignments and families must align")
    total = 0
    for c in np.unique(assignments):
        fams = families[assignments == c]
        _, counts = np.unique(fams, return_counts=True)
        total += counts.max()
    return float(total) / len(families)


# --- sampling study ----------------------------------------------------------

def sample_sources(num_graphs, fraction, rng_seed):
    """Deterministic uniform sample of source indices; fraction 1.0 keeps all."""
    if not (0.0 < fraction <= 1.0):
        raise EvalError(f"fraction must be in (0, 1], got {fraction}")
    count = int(round(fraction * num_graphs))
    if count == 0:
        raise EvalError(f"fraction {fraction} yields zero sources")
    if count >= num_graphs:
        return list(range(num_graphs))
    rng = np.random.default_rng(rng_seed)
    return sorted(rng.choice(num_graphs, size=count, replace=False).tolist())


def sampling_study(dataset, fractions, cfg, *, fold_count=10, sample_seed=0,
                   workers=1, cell_dir=None):
    """Accuracy as a function of the share of graphs used as sources.

    Each fraction draws its sources afresh from sample_seed, so the subsets
    are not nested: a source of a smaller fraction may be missing from a
    larger one. Per-cell seeds depend on global graph ids, so fraction 1.0
    reproduces the full-source run exactly.
    """
    results = []
    plan = make_fold_plan(dataset.graph_classes, fold_count=fold_count,
                          rng_seed=cfg.rng_seed)
    for fraction in fractions:
        src_idx = sample_sources(len(dataset), fraction, sample_seed)
        table = embed_all([dataset.graphs[i] for i in src_idx], dataset.graphs, cfg,
                          source_ids=src_idx, target_ids=list(range(len(dataset))),
                          workers=workers, cell_dir=cell_dir)
        res = classify_cv(table, dataset.graph_classes, plan)
        results.append((fraction, res))
    return results
