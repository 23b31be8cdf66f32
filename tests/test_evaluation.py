import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphdiv.divergence import distance_matrix
from graphdiv.encoder import TrainConfig
from graphdiv.evaluation import (HINGE_EPOCHS, HINGE_L2, HINGE_LEARNING_RATE, KNN_K,
                                 CVResult, Dendrogram, EvalError, FoldPlan, HingeClassifier,
                                 _knn_predict, _moments, classify_cv, cut_clusters, hier_cluster,
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
    """classify_cv as a loop over the folds, each standardized on its own
    training split and fitted alone by the per-class loop, with k-NN on
    the full distance matrix: the oracle of its fits over one table. Returns
    the CVResult and each evaluated fold's test decisions by fold id."""
    classes = np.asarray(classes)
    accs, knn_accs, ids, skipped, decisions = [], [], [], [], {}
    for fold in range(plan.fold_count):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        if len(te) == 0:
            continue
        labels = np.unique(classes[tr])
        if len(labels) < 2:
            skipped.append(fold)
            continue
        mean, std = _moments(features[tr])
        xtr, xte = (features[tr] - mean) / std, (features[te] - mean) / std
        decisions[fold] = hinge_decision_reference(xtr, classes[tr], xte)
        accs.append(float(np.mean(labels[decisions[fold].argmax(axis=1)] == classes[te])))
        knn = knn_reference(xtr, classes[tr], xte, KNN_K)
        knn_accs.append(float(np.mean(knn == classes[te])))
        ids.append(fold)
    return CVResult(float(np.mean(accs)), float(np.std(accs)), accs,
                    float(np.mean(knn_accs)), float(np.std(knn_accs)), knn_accs,
                    ids, skipped), decisions


def hinge_fit_row_sum_reference(x, y, folds):
    """HingeClassifier.fit one fold at a time, written out with 2-D arrays,
    with the last row of G (the bias gradient) as a reduction over the row
    axis: the oracle of the fit's exact column sum and of its folds' lone
    bits. Returns (weights (F, d, C), bias (F, C))."""
    classes = np.unique(y[np.concatenate([rows for rows, _, _ in folds])])
    n, d = x.shape
    a = np.hstack([x, np.ones((n, 1))])
    fitted = []
    for rows, mean, std in folds:
        targets = np.zeros((n, len(classes)))
        targets[rows] = np.where(y[rows, None] == classes, 1.0, -1.0)
        q = np.zeros((d + 1, d + 1))
        q[range(d), range(d)] = 1.0 / std
        q[d, :d] = -mean / std
        q[d, d] = 1.0
        step_matrix = np.zeros((d + 1, 2 * d + 2))
        step_matrix[:, :d + 1] = -(q @ q.T) / len(rows)
        step_matrix[range(d), range(d + 1, 2 * d + 1)] = 2.0 * HINGE_L2
        step_matrix[d, d + 1:-1] = -2.0 * HINGE_L2 * mean
        v = np.zeros((d + 1, len(classes)))
        for t in range(HINGE_EPOCHS):
            lr = HINGE_LEARNING_RATE / (1.0 + 0.01 * t)
            active = np.where(targets * (a @ v) < 1.0, targets, 0.0)
            g = a.T @ active
            g[-1] = active.sum(axis=0)
            v = v - lr * (step_matrix @ np.vstack([g, v]))
        fitted.append(v)
    v = np.stack(fitted)
    return v[:, :d], v[:, d]


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
    mean, std = _moments(x)
    out = (x - mean) / std
    assert np.allclose(out.mean(axis=0), 0.0)
    # constant feature keeps std 1 guard instead of dividing by zero
    assert std[1] == 1.0
    assert np.allclose(out[:, 1], 0.0)


def all_rows(x):
    """The one fold of every row of x at mean 0 and std 1: a fit on x's rows
    as they are."""
    d = np.shape(x)[1]
    return [(np.arange(len(x)), np.zeros(d), np.ones(d))]


def decisions_of(clf, x, k=0):
    """Fold k's decisions on the rows x."""
    return x @ clf.weights_[k] + clf.bias_[k]


def test_hinge_classifier_separable():
    x, y = blobs(20, seed=1)
    clf = HingeClassifier().fit(x, y, all_rows(x))
    assert np.mean(clf.classes_[np.argmax(decisions_of(clf, x), axis=1)] == y) == 1.0
    with pytest.raises(EvalError):
        HingeClassifier().fit(x, np.zeros(len(x)), all_rows(x))


@pytest.mark.parametrize("classes", [[0, 1], [2, 5, 9], [0, 1, 2, 3, 4, 5]])
def test_hinge_fit_matches_per_class_reference(classes):
    # the one-matrix fit solves the same one-vs-rest problems as a loop of
    # binary fits; a matmul may sum in another order, so decisions agree to
    # rounding and predictions exactly
    x, y = class_blobs(np.array(classes), seed=len(classes))
    xtr, ytr, xte = x[::2], y[::2], x[1::2]
    clf = HingeClassifier().fit(xtr, ytr, all_rows(xtr))
    expected = hinge_decision_reference(xtr, ytr, xte)
    assert np.allclose(decisions_of(clf, xte), expected, rtol=0, atol=1e-9)
    assert np.array_equal(np.argmax(decisions_of(clf, xte), axis=1), np.argmax(expected, axis=1))


def assert_same_classifier(a, k, b):
    """a's fold k has the arrays of b, a fit of one fold: the same classes,
    weights and bias, so the same decisions."""
    assert np.array_equal(a.classes_, b.classes_)
    assert a.weights_[k].tobytes() == b.weights_[0].tobytes()
    assert a.bias_[k].tobytes() == b.bias_[0].tobytes()


def random_folds(x, sizes, rng):
    """One (training rows, mean, std) fold per size: random rows of x with
    their standardization statistics."""
    folds = []
    for size in sizes:
        rows = np.sort(rng.choice(len(x), size=size, replace=False))
        folds.append((rows, *_moments(x[rows])))
    return folds


@pytest.mark.parametrize("stack,n,d,classes", [(1, 20, 3, [0, 1]), (4, 33, 5, [2, 5, 9]),
                                               (3, 17, 1, [0, 1, 2, 3]), (6, 40, 8, [1, 4])])
def test_stacked_hinge_fit_matches_lone_fits(stack, n, d, classes):
    # every fold of a fit over one table has the bits of its lone fit; the
    # folds' training splits hold n, n + 1 and n + 2 rows
    rng = np.random.default_rng(stack * n)
    x = rng.normal(size=(n + 9, d)) + rng.normal(size=d)
    y = rng.permutation(np.resize(classes, n + 9))
    folds = random_folds(x, [n + k % 3 for k in range(stack)], rng)
    together = HingeClassifier().fit(x, y, folds)
    assert together.weights_.shape == (stack, d, len(classes))
    assert together.bias_.shape == (stack, len(classes))
    for k in range(stack):
        assert_same_classifier(together, k, HingeClassifier().fit(x, y, [folds[k]]))


@settings(max_examples=30, deadline=None)
@given(stack=st.integers(1, 6), n=st.integers(2, 200), d=st.integers(1, 6),
       num_classes=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_hinge_bias_gradient_matches_row_sum(stack, n, d, num_classes, seed):
    # the bias row of G, a column sum of -1, 0 and +1, is exact in any
    # order, so the fit keeps the row-axis reduction's bits, zeros included;
    # the reference fits each fold alone
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n + num_classes, d)) + rng.normal(size=d)
    y = rng.permutation(np.resize(np.arange(num_classes), n + num_classes))
    folds = random_folds(x, rng.integers(num_classes, n + num_classes, size=stack, endpoint=True),
                         rng)
    # every fold must hold every class: give it the first row of each
    folds = [(np.union1d(rows, [np.flatnonzero(y == c)[0] for c in range(num_classes)]),
              mean, std) for rows, mean, std in folds]
    clf = HingeClassifier().fit(x, y, folds)
    w, b = hinge_fit_row_sum_reference(x, y, folds)
    assert clf.weights_.tobytes() == w.tobytes()
    assert clf.bias_.tobytes() == b.tobytes()


def test_stacked_hinge_fit_needs_one_class_set():
    x = np.random.default_rng(0).normal(size=(6, 2))
    y = np.array([0, 1, 2, 0, 1, 2])
    unit = (np.zeros(2), np.ones(2))
    with pytest.raises(EvalError, match="same classes"):
        HingeClassifier().fit(x, y, [(np.array([0, 1, 3, 4]), *unit), (np.arange(6), *unit)])
    with pytest.raises(EvalError, match="single class"):
        HingeClassifier().fit(x, np.zeros(6, dtype=int), all_rows(x))


def _cv_case(case):
    """(features, classes, fold plan, evaluated fold ids, class sets) of each
    plan."""
    rng = np.random.default_rng(len(case))
    if case == "three-sizes":
        # three classes with different remainders: training splits of 17,
        # 18 and 19 rows
        classes = np.repeat([0, 1, 2], [7, 8, 9])
        plan, fold_ids, class_sets = make_fold_plan(classes, fold_count=4, rng_seed=3), [0, 1, 2, 3], 1
    elif case == "skipped-fold":
        # the single-member class sits in fold 0, whose training split then
        # holds one class
        classes = np.array([0] * 9 + [1])
        plan, fold_ids, class_sets = make_fold_plan(classes, fold_count=5, rng_seed=0), [1, 2, 3, 4], 1
    elif case == "empty-fold":
        # fold 3 of 4 holds no item
        classes = np.array([0, 1] * 8)
        plan, fold_ids, class_sets = FoldPlan(4, np.arange(16) % 3, False, 0), [0, 1, 2], 1
    elif case == "two-class-sets":
        # the single member of class 2 sits in fold 0, whose training split
        # then lacks class 2
        classes = np.array([0] * 8 + [1] * 8 + [2])
        plan, fold_ids, class_sets = make_fold_plan(classes, fold_count=4, rng_seed=1), [0, 1, 2, 3], 2
    else:
        # four folds of distinct sizes
        classes = np.array([0, 1] * 13)
        plan = FoldPlan(4, np.repeat([0, 1, 2, 3], [4, 6, 7, 9]), False, 0)
        fold_ids, class_sets = [0, 1, 2, 3], 1
    features = rng.normal(size=(len(classes), 4)) + 1.5 * classes[:, None]
    if case == "conditioning":
        # a column offset by 1e6 with spread 1e-3, and one constant to 1e-14
        # (under the standardization's guard): a fit in raw coordinates, with no
        # standardization of the whole table, misses by thousands here
        features[:, 1] = 1e6 + 1e-3 * features[:, 1]
        features[:, 2] = 3.0 + 1e-14 * rng.normal(size=len(classes))
    return features, classes, plan, fold_ids, class_sets


def fits_of(monkeypatch, run):
    """run() and the (table, folds, fitted classifier) of every
    HingeClassifier.fit call it made."""
    fits = []
    fit = HingeClassifier.fit

    def spy(self, x, y, folds):
        fits.append((x, folds, fit(self, x, y, folds)))
        return self

    monkeypatch.setattr(HingeClassifier, "fit", spy)
    result = run()
    monkeypatch.undo()
    return result, fits


@pytest.mark.parametrize("case", ["three-sizes", "skipped-fold", "empty-fold", "stacks-of-one",
                                  "two-class-sets", "conditioning"])
def test_classify_cv_matches_per_fold_loop(case, monkeypatch):
    # the fits over one table solve each fold's standardized problem: the
    # decisions agree with a per-fold loop to rounding and the predictions,
    # accuracies and k-NN votes exactly
    features, classes, plan, fold_ids, class_sets = _cv_case(case)
    result, fits = fits_of(monkeypatch, lambda: classify_cv(features, classes, plan))
    expected, decisions = classify_cv_reference(features, classes, plan)
    assert result == expected
    assert result.fold_ids == fold_ids
    assert len(fits) == class_sets
    evaluated = []
    for x, folds, clf in fits:
        for k, (rows, _, _) in enumerate(folds):
            # the fold whose test rows are the rows this one leaves out
            fold = int(plan.assignments[np.setdiff1d(np.arange(len(classes)), rows)[0]])
            got = decisions_of(clf, x[plan.test_indices(fold)], k)
            assert np.abs(got - decisions[fold]).max() <= 1e-9, fold
            assert np.array_equal(got.argmax(axis=1), decisions[fold].argmax(axis=1))
            evaluated.append(fold)
    assert sorted(evaluated) == fold_ids


def test_classify_cv_fits_once_per_class_set(monkeypatch):
    # the bench's traced hinge span wraps HingeClassifier.fit: classify_cv
    # must reach it, once per class set. 25 + 25 rows in 10 folds give
    # training splits of two sizes and one fit.
    classes = np.array([0] * 25 + [1] * 25)
    plan = make_fold_plan(classes, fold_count=10)
    assert len({len(plan.train_indices(f)) for f in range(10)}) == 2
    features = np.random.default_rng(0).normal(size=(50, 3)) + classes[:, None]
    _, fits = fits_of(monkeypatch, lambda: classify_cv(features, classes, plan))
    assert [len(folds) for _, folds, _ in fits] == [10]
    features, classes, plan, _, _ = _cv_case("two-class-sets")
    _, fits = fits_of(monkeypatch, lambda: classify_cv(features, classes, plan))
    assert sorted(len(folds) for _, folds, _ in fits) == [1, 3]


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


def knn_by_argsort(train_x, train_y, test_x, k):
    """The k-NN vote as it ran before the partition: a stable sort of each
    row of the test x train block, whose first k columns vote."""
    d = np.maximum((test_x * test_x).sum(axis=1)[:, None] + (train_x * train_x).sum(axis=1)
                   - 2.0 * (test_x @ train_x.T), 0.0)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    labels, codes = np.unique(train_y, return_inverse=True)
    votes = (codes[nearest][:, :, None] == np.arange(len(labels))).sum(axis=1)
    return labels[np.argmax(votes, axis=1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_partition_matches_the_argsort_path(data):
    # features on a 3-value grid tie many distances at the k-th, and k may
    # exceed the training rows; the partition must pick the rows a stable
    # sort picks, so the votes and their tie rule agree
    n_train, n_test = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 12))
    dims, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 9))
    grid = st.integers(0, 2)
    train_x = data.draw(hnp.arrays(np.int64, (n_train, dims), elements=grid)).astype(float)
    test_x = data.draw(hnp.arrays(np.int64, (n_test, dims), elements=grid)).astype(float)
    train_y = data.draw(hnp.arrays(np.int64, n_train, elements=st.sampled_from([2, 5, 8])))
    assert np.array_equal(_knn_predict(train_x, train_y, test_x, k),
                          knn_by_argsort(train_x, train_y, test_x, k))


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
