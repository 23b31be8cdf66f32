"""Downstream evaluation: cross-validated classification on the divergence
embeddings, agglomerative clustering of the embedding space, and the
source-sampling sweep."""

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


def make_fold_plan(classes, fold_count=10, stratified=True, rng_seed=0):
    """Seeded fold assignment; stratified keeps per-class counts within 1."""
    classes = np.asarray(classes)
    n = len(classes)
    if fold_count < 2 or fold_count > n:
        raise EvalError(f"fold_count {fold_count} invalid for {n} items")
    rng = np.random.default_rng(rng_seed)
    assignments = np.empty(n, dtype=int)
    if stratified:
        for c in np.unique(classes):
            idx = np.where(classes == c)[0]
            rng.shuffle(idx)
            for pos, i in enumerate(idx):
                assignments[i] = pos % fold_count
    else:
        idx = np.arange(n)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            assignments[i] = pos % fold_count
    return FoldPlan(fold_count, assignments, stratified, rng_seed)


# --- classifiers -------------------------------------------------------------

@dataclass
class ClassifierConfig:
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-3
    knn_k: int = 5


class Standardizer:
    """Per-feature zero mean / unit variance, fit on the training split only."""

    def fit(self, x):
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        self.std = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x):
        return (x - self.mean) / self.std


def _fit_hinge_binary(x, y, cfg):
    """L2-regularized hinge loss by deterministic full-batch subgradient descent.

    y must be in {-1, +1}; returns (w, b).
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(cfg.epochs):
        lr = cfg.learning_rate / (1.0 + 0.01 * t)
        margin = y * (x @ w + b)
        active = margin < 1.0
        gw = -(x[active] * y[active, None]).sum(axis=0) / n + 2.0 * cfg.l2 * w
        gb = -y[active].sum() / n
        w -= lr * gw
        b -= lr * gb
    return w, b


class HingeClassifier:
    """Linear max-margin classifier, one-vs-rest above two classes."""

    def __init__(self, cfg=None):
        self.cfg = cfg or ClassifierConfig()

    def fit(self, x, y):
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise EvalError("training split contains a single class")
        self.models_ = []
        for c in self.classes_:
            yy = np.where(y == c, 1.0, -1.0)
            self.models_.append(_fit_hinge_binary(x, yy, self.cfg))
        return self

    def decision(self, x):
        return np.stack([x @ w + b for w, b in self.models_], axis=1)

    def predict(self, x):
        return self.classes_[np.argmax(self.decision(x), axis=1)]


def _knn_predict(train_x, train_y, test_x, k):
    d = distance_matrix(np.vstack([train_x, test_x]))[len(train_x):, :len(train_x)]
    preds = []
    for row in d:
        order = np.argsort(row, kind="stable")[:k]
        votes = train_y[order]
        vals, counts = np.unique(votes, return_counts=True)
        preds.append(vals[np.argmax(counts)])
    return np.array(preds)


@dataclass
class CVResult:
    mean: float
    std: float
    fold_accuracies: list
    knn_mean: float
    knn_std: float
    knn_fold_accuracies: list
    skipped_folds: list = field(default_factory=list)


def classify_cv(table, classes, plan=None, classifier_cfg=None):
    """Stratified cross-validated accuracy of the embeddings.

    Standardization is fit per fold on the training split only. Reports the
    linear hinge classifier as the headline number plus a k-NN baseline.
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
    cfg = classifier_cfg or ClassifierConfig()

    accs, knn_accs, skipped = [], [], []
    for fold in range(plan.fold_count):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        if len(te) == 0:
            continue
        if len(np.unique(classes[tr])) < 2:
            skipped.append(fold)
            continue
        scaler = Standardizer().fit(features[tr])
        xtr, xte = scaler.transform(features[tr]), scaler.transform(features[te])
        clf = HingeClassifier(cfg).fit(xtr, classes[tr])
        accs.append(float(np.mean(clf.predict(xte) == classes[te])))
        knn = _knn_predict(xtr, classes[tr], xte, cfg.knn_k)
        knn_accs.append(float(np.mean(knn == classes[te])))

    if not accs:
        raise EvalError("no usable folds")
    return CVResult(float(np.mean(accs)), float(np.std(accs)), accs,
                    float(np.mean(knn_accs)), float(np.std(knn_accs)), knn_accs, skipped)


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
    dist = {}
    active = list(range(n))
    size = {i: 1 for i in range(n)}
    min_leaf = {i: i for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = d[i, j]

    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                key = (i, j) if i < j else (j, i)
                lo, hi = sorted((min_leaf[i], min_leaf[j]))
                cand = (dist[key], lo, hi, key)
                if best is None or cand < best:
                    best = cand
        h, _, _, (i, j) = best
        merges.append((i, j, h))
        # average-linkage update (Lance-Williams)
        for k in active:
            if k in (i, j):
                continue
            dik = dist[(min(i, k), max(i, k))]
            djk = dist[(min(j, k), max(j, k))]
            dnew = (size[i] * dik + size[j] * djk) / (size[i] + size[j])
            dist[(min(k, next_id), max(k, next_id))] = dnew
        size[next_id] = size[i] + size[j]
        min_leaf[next_id] = min(min_leaf[i], min_leaf[j])
        active = [k for k in active if k not in (i, j)] + [next_id]
        next_id += 1
    return Dendrogram(n, merges)


def cut_clusters(dendrogram, k):
    """Flat assignment with k clusters: apply the first leaves-k merges."""
    n = dendrogram.leaf_count
    if not (1 <= k <= n):
        raise EvalError(f"cannot cut {n} leaves into {k} clusters")
    parent = {}
    for m, (a, b, _) in enumerate(dendrogram.merges[: n - k]):
        parent[a] = parent[b] = n + m

    def root(c):
        while c in parent:
            c = parent[c]
        return c

    roots = {}
    out = np.empty(n, dtype=int)
    for leaf in range(n):
        r = root(leaf)
        out[leaf] = roots.setdefault(r, len(roots))
    return out


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

    Source subsets are nested draws keyed by the same seed and per-cell seeds
    depend on global graph ids, so fraction 1.0 reproduces the full-source
    run exactly.
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
