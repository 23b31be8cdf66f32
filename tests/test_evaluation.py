import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdiv.divergence import distance_matrix
from graphdiv.encoder import TrainConfig
from graphdiv.evaluation import (HINGE_EPOCHS, HINGE_L2, HINGE_LEARNING_RATE, KNN_K,
                                 CVResult, Dendrogram, EvalError, FoldPlan, HingeClassifier,
                                 Standardizer, _knn_predict, classify_cv, cut_clusters, hier_cluster,
                                 make_fold_plan, purity, sample_sources,
                                 sampling_study)
from graphdiv.generators import random_graph
from graphdiv.graphs import GraphDataset


def blobs(n_per, d=3, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + sep
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def class_blobs(classes, n_per=15, d=4, seed=0):
    """Overlapping Gaussian blobs, one per class label."""
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.normal(size=(len(classes), d))
    x = np.vstack([c + rng.normal(size=(n_per, d)) for c in centers])
    return x, np.repeat(classes, n_per)


# --- reference implementations: the straightforward loops the library's
# vectorised code must reproduce --------------------------------------------

def fold_plan_reference(classes, fold_count, rng_seed):
    classes = np.asarray(classes)
    rng = np.random.default_rng(rng_seed)
    assignments = np.empty(len(classes), dtype=int)
    for c in np.unique(classes):
        idx = np.where(classes == c)[0]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            assignments[i] = pos % fold_count
    return assignments


def fit_hinge_binary_reference(x, y):
    """One binary problem, y in {-1, +1}; returns (w, b)."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(HINGE_EPOCHS):
        lr = HINGE_LEARNING_RATE / (1.0 + 0.01 * t)
        margin = y * (x @ w + b)
        active = margin < 1.0
        gw = -(x[active] * y[active, None]).sum(axis=0) / n + 2.0 * HINGE_L2 * w
        gb = -y[active].sum() / n
        w -= lr * gw
        b -= lr * gb
    return w, b


def hinge_decision_reference(train_x, train_y, test_x):
    models = [fit_hinge_binary_reference(train_x, np.where(train_y == c, 1.0, -1.0))
              for c in np.unique(train_y)]
    return np.stack([test_x @ w + b for w, b in models], axis=1)


def classify_cv_reference(features, classes, plan):
    """classify_cv as a loop of lone fits, one fold at a time: the oracle of
    its stacked fits. Returns the CVResult and each evaluated fold's
    classifier."""
    classes = np.asarray(classes)
    accs, knn_accs, ids, skipped, clfs = [], [], [], [], []
    for fold in range(plan.fold_count):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        if len(te) == 0:
            continue
        if len(np.unique(classes[tr])) < 2:
            skipped.append(fold)
            continue
        scaler = Standardizer().fit(features[tr])
        xtr, xte = scaler.transform(features[tr]), scaler.transform(features[te])
        clf = HingeClassifier().fit(xtr, classes[tr])
        accs.append(float(np.mean(clf.predict(xte) == classes[te])))
        knn = _knn_predict(xtr, classes[tr], xte, KNN_K)
        knn_accs.append(float(np.mean(knn == classes[te])))
        ids.append(fold)
        clfs.append(clf)
    return CVResult(float(np.mean(accs)), float(np.std(accs)), accs,
                    float(np.mean(knn_accs)), float(np.std(knn_accs)), knn_accs,
                    ids, skipped), clfs


def knn_reference(train_x, train_y, test_x, k):
    d = distance_matrix(np.vstack([train_x, test_x]))[len(train_x):, :len(train_x)]
    preds = []
    for row in d:
        order = np.argsort(row, kind="stable")[:k]
        vals, counts = np.unique(train_y[order], return_counts=True)
        preds.append(vals[np.argmax(counts)])
    return np.array(preds)


def hier_cluster_reference(d):
    """Average linkage over a dict of pair distances, O(n^3): every step scans
    all active pairs for the least (distance, low leaf, high leaf)."""
    n = len(d)
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
        for k in active:
            if k in (i, j):
                continue
            dik = dist[(min(i, k), max(i, k))]
            djk = dist[(min(j, k), max(j, k))]
            dist[(min(k, next_id), max(k, next_id))] = \
                (size[i] * dik + size[j] * djk) / (size[i] + size[j])
        size[next_id] = size[i] + size[j]
        min_leaf[next_id] = min(min_leaf[i], min_leaf[j])
        active = [k for k in active if k not in (i, j)] + [next_id]
        next_id += 1
    return merges


def cut_clusters_reference(merges, n, k):
    parent = {}
    for m, (a, b, _) in enumerate(merges[: n - k]):
        parent[a] = parent[b] = n + m
    roots = {}
    out = np.empty(n, dtype=int)
    for leaf in range(n):
        r = leaf
        while r in parent:
            r = parent[r]
        out[leaf] = roots.setdefault(r, len(roots))
    return out


def assert_same_dendrogram(dend, reference):
    assert [(a, b) for a, b, _ in dend.merges] == [(a, b) for a, b, _ in reference]
    heights = np.array([h for _, _, h in dend.merges])
    expected = np.array([h for _, _, h in reference], dtype=float)
    assert heights.tobytes() == expected.tobytes()
    assert all(type(a) is int and type(b) is int and type(h) is float
               for a, b, h in dend.merges)


def random_dendrogram(n, rng):
    """Valid merge list joining random active clusters at rising heights."""
    active = list(range(n))
    merges = []
    for m in range(n - 1):
        i, j = sorted(rng.choice(len(active), size=2, replace=False))
        merges.append((active[i], active[j], float(m)))
        del active[j], active[i]
        active.append(n + m)
    return Dendrogram(n, merges)


def test_fold_plan_properties():
    classes = [0] * 13 + [1] * 7
    plan = make_fold_plan(classes, fold_count=5, rng_seed=1)
    assert plan.assignments.shape == (20,)
    assert set(plan.assignments) == set(range(5))
    # stratified: per-class fold counts differ by at most 1
    for c in (0, 1):
        idx = np.array(classes) == c
        counts = np.bincount(plan.assignments[idx], minlength=5)
        assert counts.max() - counts.min() <= 1
    # folds partition the data
    for fold in range(5):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        assert len(tr) + len(te) == 20
        assert not set(tr) & set(te)


def test_fold_plan_deterministic_and_validated():
    a = make_fold_plan([0, 1] * 5, fold_count=3, rng_seed=7)
    b = make_fold_plan([0, 1] * 5, fold_count=3, rng_seed=7)
    assert np.array_equal(a.assignments, b.assignments)
    with pytest.raises(EvalError):
        make_fold_plan([0, 1], fold_count=1)
    with pytest.raises(EvalError):
        make_fold_plan([0, 1], fold_count=3)


def test_fold_plan_matches_loop_reference():
    # pinned for a fixed seed, and equal to the per-index loop on several
    # class mixes (labels need not be contiguous)
    plan = make_fold_plan([0] * 6 + [1] * 4, fold_count=3, rng_seed=5)
    assert plan.assignments.tolist() == fold_plan_reference([0] * 6 + [1] * 4, 3, 5).tolist()
    assert plan.assignments.tolist() == [2, 0, 2, 0, 1, 1, 0, 0, 2, 1]
    assert plan.stratified and plan.rng_seed == 5 and plan.fold_count == 3
    rng = np.random.default_rng(0)
    for seed in range(20):
        classes = rng.choice([3, 7, 11], size=int(rng.integers(10, 60)))
        folds = int(rng.integers(2, 10))
        assert np.array_equal(make_fold_plan(classes, fold_count=folds, rng_seed=seed).assignments,
                              fold_plan_reference(classes, folds, seed))


def test_standardizer_train_only_stats():
    x = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
    s = Standardizer().fit(x)
    out = s.transform(x)
    assert np.allclose(out.mean(axis=0), 0.0)
    # constant feature keeps std 1 guard instead of dividing by zero
    assert np.allclose(out[:, 1], 0.0)


def test_hinge_classifier_separable():
    x, y = blobs(20, seed=1)
    clf = HingeClassifier().fit(x, y)
    assert np.mean(clf.predict(x) == y) == 1.0
    with pytest.raises(EvalError):
        HingeClassifier().fit(x, np.zeros(len(x)))


@pytest.mark.parametrize("classes", [[0, 1], [2, 5, 9], [0, 1, 2, 3, 4, 5]])
def test_hinge_fit_matches_per_class_reference(classes):
    # the one-matrix fit solves the same one-vs-rest problems as a loop of
    # binary fits; a matmul may sum in another order, so decisions agree to
    # rounding and predictions exactly
    x, y = class_blobs(np.array(classes), seed=len(classes))
    xtr, ytr, xte = x[::2], y[::2], x[1::2]
    clf = HingeClassifier().fit(xtr, ytr)
    expected = hinge_decision_reference(xtr, ytr, xte)
    assert np.allclose(clf.decision(xte), expected, rtol=0, atol=1e-9)
    assert np.array_equal(clf.predict(xte), clf.classes_[np.argmax(expected, axis=1)])


def assert_same_classifier(a, b, test_x):
    assert np.array_equal(a.classes_, b.classes_)
    assert a.weights_.tobytes() == b.weights_.tobytes()
    assert a.bias_.tobytes() == b.bias_.tobytes()
    assert a.decision(test_x).tobytes() == b.decision(test_x).tobytes()
    assert a.predict(test_x).tobytes() == b.predict(test_x).tobytes()


@pytest.mark.parametrize("stack,n,d,classes", [(1, 20, 3, [0, 1]), (4, 33, 5, [2, 5, 9]),
                                               (3, 17, 1, [0, 1, 2, 3]), (6, 40, 8, [1, 4])])
def test_stacked_hinge_fit_matches_lone_fits(stack, n, d, classes):
    # every slice of a stacked fit has the bits of its lone fit
    rng = np.random.default_rng(stack * n)
    x = rng.normal(size=(stack, n, d)) + rng.normal(size=(stack, 1, d))
    y = np.stack([rng.permutation(np.resize(classes, n)) for _ in range(stack)])
    test_x = rng.normal(size=(7, d))
    stacked = HingeClassifier().fit(x, y)
    assert stacked.weights_.shape == (stack, d, len(classes))
    assert stacked.bias_.shape == (stack, len(classes))
    for k in range(stack):
        assert_same_classifier(stacked[k], HingeClassifier().fit(x[k], y[k]), test_x)
    # one label vector shared by every slice
    shared = HingeClassifier().fit(x, y[0])
    for k in range(stack):
        assert_same_classifier(shared[k], HingeClassifier().fit(x[k], y[0]), test_x)


def hinge_fit_row_sum_reference(x, y):
    """HingeClassifier.fit on x (F, n, d), y (F, n) with the bias gradient
    as a reduction over the row axis: the oracle of the fit's exact column
    sum. Returns (weights (F, d, C), bias (F, C))."""
    classes = np.unique(y)
    f, n, d = x.shape
    targets = np.where(y[..., None] == classes, 1.0, -1.0)
    xt = x.swapaxes(-1, -2)
    w = np.zeros((f, d, len(classes)))
    b = np.zeros((f, 1, len(classes)))
    for t in range(HINGE_EPOCHS):
        lr = HINGE_LEARNING_RATE / (1.0 + 0.01 * t)
        active = np.where(targets * (x @ w + b) < 1.0, targets, 0.0)
        gw = -(xt @ active) / n + 2.0 * HINGE_L2 * w
        gb = -active.sum(axis=-2, keepdims=True) / n
        w -= lr * gw
        b -= lr * gb
    return w, b[:, 0]


@settings(max_examples=30, deadline=None)
@given(stack=st.integers(1, 6), n=st.integers(2, 200), d=st.integers(1, 6),
       num_classes=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_hinge_bias_gradient_matches_row_sum(stack, n, d, num_classes, seed):
    # the bias gradient's column sums of -1, 0 and +1 are exact in any
    # order, so the fit keeps the row-axis reduction's bits, zeros included
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(stack, n, d)) + rng.normal(size=(stack, 1, d))
    y = np.resize(np.arange(num_classes), n)
    y = np.stack([rng.permutation(y) for _ in range(stack)])
    clf = HingeClassifier().fit(x, y)
    w, b = hinge_fit_row_sum_reference(x, y)
    assert clf.weights_.tobytes() == w.tobytes()
    assert clf.bias_.tobytes() == b.tobytes()


def test_stacked_hinge_fit_needs_one_class_set():
    x = np.random.default_rng(0).normal(size=(2, 6, 2))
    with pytest.raises(EvalError, match="same classes"):
        HingeClassifier().fit(x, np.array([[0, 1, 0, 1, 0, 1], [0, 1, 2, 0, 1, 2]]))
    with pytest.raises(EvalError, match="single class"):
        HingeClassifier().fit(x, np.zeros((2, 6), dtype=int))


def _cv_case(case):
    """(classes, fold plan, evaluated fold ids, stacked fits) of each plan."""
    if case == "three-sizes":
        # three classes with different remainders: training splits of 17,
        # 18 and 19 rows
        classes = np.repeat([0, 1, 2], [7, 8, 9])
        return classes, make_fold_plan(classes, fold_count=4, rng_seed=3), [0, 1, 2, 3], 3
    if case == "skipped-fold":
        # the single-member class sits in fold 0, whose training split then
        # holds one class
        classes = np.array([0] * 9 + [1])
        return classes, make_fold_plan(classes, fold_count=5, rng_seed=0), [1, 2, 3, 4], 2
    if case == "empty-fold":
        # fold 3 of 4 holds no item
        plan = FoldPlan(4, np.arange(16) % 3, False, 0)
        return np.array([0, 1] * 8), plan, [0, 1, 2], 2
    # four folds of distinct sizes: every fit is a stack of one
    plan = FoldPlan(4, np.repeat([0, 1, 2, 3], [4, 6, 7, 9]), False, 0)
    return np.array([0, 1] * 13), plan, [0, 1, 2, 3], 4


@pytest.mark.parametrize("case", ["three-sizes", "skipped-fold", "empty-fold", "stacks-of-one"])
def test_classify_cv_matches_per_fold_loop(case, monkeypatch):
    classes, plan, fold_ids, fit_count = _cv_case(case)
    rng = np.random.default_rng(len(classes))
    features = rng.normal(size=(len(classes), 4)) + 1.5 * classes[:, None]
    fits = []
    fit = HingeClassifier.fit

    def spy(self, x, y):
        fits.append((x, fit(self, x, y)))
        return self

    monkeypatch.setattr(HingeClassifier, "fit", spy)
    result = classify_cv(features, classes, plan)
    monkeypatch.undo()
    expected, lone_clfs = classify_cv_reference(features, classes, plan)
    assert result == expected
    assert result.fold_ids == fold_ids
    # one stacked fit per (training-split size, class set)
    assert len(fits) == fit_count
    # every slice is the lone fit of its fold, bit for bit
    slices = {x[k].tobytes(): clf[k] for x, clf in fits for k in range(len(x))}
    assert len(slices) == len(lone_clfs)
    for fold, clf in zip(fold_ids, lone_clfs):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        scaler = Standardizer().fit(features[tr])
        assert_same_classifier(slices[scaler.transform(features[tr]).tobytes()], clf,
                               scaler.transform(features[te]))


def test_classify_cv_rejects_plan_of_other_length():
    # a plan for 8 items would leave 4 of 12 rows out of every fold; one for
    # 14 items indexes past the table
    x, y = blobs(6, seed=3)
    for size in (8, 14):
        plan = make_fold_plan(np.resize([0, 1], size), fold_count=4)
        with pytest.raises(EvalError, match=f"fold plan assigns {size} items"):
            classify_cv(x, y, plan)


def test_knn_tie_breaks():
    train_x = np.array([[0.0], [2.0], [-2.0], [4.0]])
    # equal distances: the lower training index is nearer, so 1-NN of 1.0
    # (tied between rows 0 and 1) takes row 0's label
    assert _knn_predict(train_x, np.array([7, 3, 3, 3]), np.array([[1.0]]), 1).tolist() == [7]
    # equal votes go to the smallest label
    assert _knn_predict(train_x, np.array([9, 4, 9, 4]), np.array([[1.0]]), 4).tolist() == [4]
    assert _knn_predict(train_x, np.array([9, 4, 9, 4]), np.array([[1.0]]), 2).tolist() == [4]


def test_knn_matches_loop_reference():
    # small-integer coordinates and duplicate rows make tied distances and,
    # with even k, tied votes common
    rng = np.random.default_rng(3)
    for trial in range(40):
        train_x = rng.integers(0, 3, size=(int(rng.integers(3, 30)), 2)).astype(float)
        train_x[-1] = train_x[0]
        train_y = rng.choice([1, 4, 6], size=len(train_x))
        test_x = rng.integers(0, 3, size=(12, 2)).astype(float)
        k = int(rng.integers(1, 8))
        assert np.array_equal(_knn_predict(train_x, train_y, test_x, k),
                              knn_reference(train_x, train_y, test_x, k)), trial


def test_classify_cv_separable_blobs():
    x, y = blobs(25, seed=2)
    res = classify_cv(x, y, plan=make_fold_plan(y, fold_count=5))
    assert res.mean == 1.0
    assert res.knn_mean == 1.0
    assert len(res.fold_accuracies) == 5
    assert res.skipped_folds == []


def test_classify_cv_validates_alignment():
    with pytest.raises(EvalError):
        classify_cv(np.zeros((4, 2)), [0, 1, 0])


def test_classify_cv_rejects_failed_cells():
    # one NaN feature (a failed divergence cell) must not quietly lower the
    # accuracy; the error names the row
    x, y = blobs(25, seed=2)
    x[7, 1] = np.nan
    with pytest.raises(EvalError, match=r"rows \[7\] are not finite"):
        classify_cv(x, y, plan=make_fold_plan(y, fold_count=5))


def test_dendrogram_validation():
    with pytest.raises(EvalError):
        Dendrogram(3, [(0, 1, 1.0)])  # needs exactly 2 merges
    with pytest.raises(EvalError):
        Dendrogram(3, [(0, 1, 2.0), (2, 3, 1.0)])  # decreasing heights


def test_hier_cluster_hand_case():
    # two tight pairs on a line; squared distances make the cross merge 100.5
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    dend = hier_cluster(distance_matrix(x))
    assert dend.merges[0] == (0, 1, 1.0)
    assert dend.merges[1] == (2, 3, 1.0)
    assert dend.merges[2][2] == pytest.approx(100.5)
    assert np.array_equal(cut_clusters(dend, 2), [0, 0, 1, 1])
    # every leaf its own cluster at k = n, one cluster at k = 1
    assert len(set(cut_clusters(dend, 4))) == 4
    assert len(set(cut_clusters(dend, 1))) == 1


def test_hier_cluster_matches_reference():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 17, 40, 77, 120):
        d = distance_matrix(rng.normal(size=(n, 3)))
        assert_same_dendrogram(hier_cluster(d), hier_cluster_reference(d))


def test_hier_cluster_rounding_tie():
    # merging 1 and 3 puts cluster {1, 3} at 0's cached minimum: the mean of
    # 1 + 2^-52 and 1 rounds to 1.0. The tie then goes to the lower leaf 1,
    # not to leaf 2, which 0 had cached as its neighbour.
    d = np.array([[0.0, 1.0 + 2.0 ** -52, 1.0, 1.0],
                  [1.0 + 2.0 ** -52, 0.0, 5.0, 0.5],
                  [1.0, 5.0, 0.0, 5.0],
                  [1.0, 0.5, 5.0, 0.0]])
    dend = hier_cluster(d)
    assert dend.merges == [(1, 3, 0.5), (0, 4, 1.0), (2, 5, 11.0 / 3.0)]
    assert_same_dendrogram(dend, hier_cluster_reference(d))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40),
       st.integers(0, 5))
def test_hier_cluster_matches_reference_with_ties(points, duplicates):
    # small-integer coordinates and repeated points: many pairs and many
    # average-linkage updates tie exactly
    x = np.array(points + points[:duplicates], dtype=float)
    d = distance_matrix(x)
    dend = hier_cluster(d)
    assert_same_dendrogram(dend, hier_cluster_reference(d))
    for k in range(1, len(x) + 1):
        assert np.array_equal(cut_clusters(dend, k), cut_clusters_reference(dend.merges, len(x), k))


def test_hier_cluster_large_last_merge_is_mean_distance():
    n = 1200
    x = np.random.default_rng(5).normal(size=(n, 4))
    d = distance_matrix(x)
    dend = hier_cluster(d)
    assert dend.leaf_count == n and len(dend.merges) == n - 1
    side = cut_clusters(dend, 2)
    mean = d[np.ix_(side == 0, side == 1)].mean()
    assert dend.merges[-1][2] == pytest.approx(mean, rel=1e-9, abs=0)


def test_cut_clusters_matches_reference():
    rng = np.random.default_rng(2)
    for n in (1, 2, 9, 50):
        dend = random_dendrogram(n, rng)
        for k in range(1, n + 1):
            assert np.array_equal(cut_clusters(dend, k), cut_clusters_reference(dend.merges, n, k))
    # a chain: each merge adds one leaf to the previous cluster
    n = 2000
    chain = Dendrogram(n, [(0, 1, 0.0)] + [(n + m - 1, m + 1, float(m)) for m in range(1, n - 1)])
    for k in (1, 2, 7, 1000, n):
        assert np.array_equal(cut_clusters(chain, k), cut_clusters_reference(chain.merges, n, k))


def test_hier_cluster_input_validation():
    with pytest.raises(EvalError):
        hier_cluster(np.zeros((2, 3)))
    with pytest.raises(EvalError):
        hier_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(EvalError):
        hier_cluster(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_hier_cluster_rejects_failed_cells():
    # a NaN embedding row spreads NaN through its distance row and column;
    # it is reported as such, not as an asymmetric matrix
    x = np.array([[0.0], [1.0], [np.nan], [11.0]])
    with pytest.raises(EvalError, match=r"rows \[2\] are not finite"):
        hier_cluster(distance_matrix(x))


def test_cut_clusters_bounds():
    dend = hier_cluster(distance_matrix(np.array([[0.0], [1.0], [5.0]])))
    with pytest.raises(EvalError):
        cut_clusters(dend, 0)
    with pytest.raises(EvalError):
        cut_clusters(dend, 4)


def test_purity_hand_cases():
    assert purity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    # cluster 0 = {fam 0, fam 1} majority 1 item, cluster 1 pure
    assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.75)
    assert purity([0, 1, 2, 3], [0, 0, 0, 0]) == 1.0
    with pytest.raises(EvalError):
        purity([0, 1], [0, 1, 2])


def test_sample_sources():
    assert sample_sources(5, 1.0, 0) == [0, 1, 2, 3, 4]
    sub = sample_sources(20, 0.25, 3)
    assert sub == sample_sources(20, 0.25, 3)
    assert len(sub) == 5 and len(set(sub)) == 5
    assert sub == sorted(sub)
    with pytest.raises(EvalError):
        sample_sources(10, 0.0, 0)
    with pytest.raises(EvalError):
        sample_sources(10, 0.01, 0)


def test_sampling_study_full_fraction_matches_direct():
    from graphdiv.divergence import embed_all

    graphs = [random_graph(6, 0.3, s) for s in range(4)] + \
             [random_graph(6, 0.7, s) for s in range(4, 8)]
    classes = [0] * 4 + [1] * 4
    ds = GraphDataset(graphs, classes)
    cfg = TrainConfig(embed_dim=4, encoding_epochs=40, scoring_epochs=40,
                      learning_rate=5e-2, rng_seed=0)
    results = sampling_study(ds, [0.5, 1.0], cfg, fold_count=4)
    assert [f for f, _ in results] == [0.5, 1.0]
    table = embed_all(graphs, graphs, cfg, restarts=3)
    direct = classify_cv(table, classes,
                         plan=make_fold_plan(classes, fold_count=4, rng_seed=cfg.rng_seed))
    assert results[1][1].fold_accuracies == direct.fold_accuracies
