"""Downstream evaluation: cross-validated classification on the divergence
embeddings, agglomerative clustering of the embedding space, and the
source-sampling sweep.

Cross-validation standardizes the table once and fits the hinge classifiers
of all folds with one class set as one problem over that table: each fold
keeps its own training-split statistics and its iterate lives in the
table's coordinates (HingeClassifier), so every epoch is eight numpy calls
for all folds together, and a fold's bits do not depend on the others. A
fit is its arrays, each fold's weights and bias. The k-NN baseline ranks
each fold's test rows on the test x train block of its fold-standardized
distances.
"""

from dataclasses import dataclass, field

import numpy as np

from .divergence import DivergenceTable, embed_all


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


def _moments(x):
    """Per-feature mean and std of x's rows, a std at most 1e-12 read as 1:
    (x - mean) / std standardizes x, a constant feature to 0."""
    std = x.std(axis=0)
    return x.mean(axis=0), np.where(std > 1e-12, std, 1.0)


class HingeClassifier:
    """Linear max-margin classifiers, one-vs-rest per class, one per fold.

    L2-regularized hinge loss by deterministic full-batch subgradient descent;
    the per-class problems train as the columns of one weight matrix.
    fit(x, y, folds) trains one classifier per fold of x, fold k = (rows,
    mean, std) solving the fit on (x[rows] - mean) / std, and keeps classes_,
    weights_ (F, d, C) and bias_ (F, C): fold k's decisions on rows z of x
    are z @ weights_[k] + bias_[k]. A fold fitted alone gets the bits it gets
    among others. It stays a class with fit alone because the bench's
    traced span wraps HingeClassifier.fit by name.

    With A = [x, 1] and Q = [[diag(1/std), 0], [-(mean/std)^T, 1]], a fold's
    standardized iterate u = [w; b] is kept as V = Q u, so A @ V are its
    margins, and its subgradient step is V -= lr (-Q Q^T G / n + 2 l2 [W;
    -mean^T W]) over its n training rows, with G = A^T active. G's last row
    sums -1, 0 and +1: exact in any order. Each matmul runs per fold, batched
    over one table with no standardized copies; one matmul over all folds'
    columns would be faster at scale, but BLAS may round a column differently
    beside more columns, tying a fold's bits to the fold count.
    """

    def fit(self, x, y, folds):
        x, y = np.asarray(x, dtype=float), np.asarray(y)
        n, d = x.shape
        rows, mean, std = zip(*folds)
        self.classes_ = np.unique(y[np.concatenate(rows)])
        if len(self.classes_) < 2:
            raise EvalError("training split contains a single class")
        if any(len(np.unique(y[r])) != len(self.classes_) for r in rows):
            raise EvalError("every fold's training split must hold the same classes")
        f, mean, std = len(folds), np.stack(mean), np.stack(std)
        train = np.zeros((f, n, 1), dtype=bool)
        for k, r in enumerate(rows):
            train[k, r] = True
        # each fold's +-1 targets on its training rows, +0.0 on the others
        targets = np.where(train, np.where(y[:, None] == self.classes_, 1.0, -1.0), 0.0)
        q = np.zeros((f, d + 1, d + 1))
        q[:, range(d), range(d)] = 1.0 / std
        q[:, d, :d] = -mean / std
        q[:, d, d] = 1.0
        # a fold's step is step_matrix @ [G; V]
        step_matrix = np.zeros((f, d + 1, 2 * d + 2))
        step_matrix[:, :, :d + 1] = -(q @ q.swapaxes(1, 2)) / train.sum(axis=1)[:, :, None]
        step_matrix[:, range(d), range(d + 1, 2 * d + 1)] = 2.0 * HINGE_L2
        step_matrix[:, d, d + 1:-1] = -2.0 * HINGE_L2 * mean
        a = np.hstack([x, np.ones((n, 1))])
        gv = np.zeros((f, 2 * d + 2, len(self.classes_)))
        g, v = gv[:, :d + 1], gv[:, d + 1:]
        for t in range(HINGE_EPOCHS):
            lr = HINGE_LEARNING_RATE / (1.0 + 0.01 * t)
            active = np.where(targets * (a @ v) < 1.0, targets, 0.0)
            np.matmul(a.T, active, out=g)
            v -= lr * (step_matrix @ gv)
        self.weights_, self.bias_ = v[:, :d], v[:, d]
        return self


def _knn_predict(train_x, train_y, test_x, k):
    """Majority vote of the k nearest training rows by squared Euclidean
    distance, computed on the test x train block alone; equal distances rank
    the lower training index first and equal votes go to the smallest label."""
    d = np.maximum((test_x * test_x).sum(axis=1)[:, None] + (train_x * train_x).sum(axis=1)
                   - 2.0 * (test_x @ train_x.T), 0.0)
    # the k nearest are the rows within each test row's k-th distance, found
    # by a partition (linear per row, where a sort is not); rows tied at it
    # beyond k keep those of lowest index, as a stable sort would
    k = min(k, d.shape[1])
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    nearest = d <= kth
    # each row holds at least k of them, and more only when tied at the k-th
    if np.count_nonzero(nearest) > k * len(nearest):
        tied = nearest.sum(axis=1) > k
        rows, edge = d[tied], kth[tied]
        below, at = rows < edge, rows == edge
        room = k - below.sum(axis=1, keepdims=True)
        nearest[tied] = below | (at & (np.cumsum(at, axis=1) <= room))
    labels, codes = np.unique(train_y, return_inverse=True)
    votes = nearest @ (codes[:, None] == np.arange(len(labels))).astype(float)
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
    one whose training split holds a single class is skipped. The hinge
    classifiers of the folds with one class set train in one fit over the
    table standardized once, each fold with its own statistics mapped into
    the table's coordinates (see HingeClassifier), and predict the class of
    each standardized test row's largest decision.
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
        groups.setdefault(tuple(labels.tolist()), []).append(len(folds))
        folds.append((fold, tr, te, *_moments(features[tr])))
    if not folds:
        raise EvalError("no usable folds")

    # each fold's training statistics, mapped into the coordinates of the
    # table standardized once: its problem is still its own split's, and the
    # table is well scaled whatever the raw offsets
    mean, std = _moments(features)
    standardized = (features - mean) / std
    fits = [None] * len(folds)
    for members in groups.values():
        clf = HingeClassifier().fit(standardized, classes, [
            (tr, (mu - mean) / std, sigma / std)
            for _, tr, _, mu, sigma in (folds[i] for i in members)])
        for k, i in enumerate(members):
            fits[i] = clf.classes_, clf.weights_[k], clf.bias_[k]

    accs, knn_accs = [], []
    for (fold, tr, te, mu, sigma), (labels, weights, bias) in zip(folds, fits):
        decisions = standardized[te] @ weights + bias
        accs.append(float(np.mean(labels[np.argmax(decisions, axis=1)] == classes[te])))
        knn = _knn_predict((features[tr] - mu) / sigma, classes[tr],
                           (features[te] - mu) / sigma, KNN_K)
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
