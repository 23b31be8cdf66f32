import numpy as np
import pytest

from graphdiv.divergence import distance_matrix
from graphdiv.encoder import TrainConfig
from graphdiv.evaluation import (ClassifierConfig, Dendrogram, EvalError,
                                 HingeClassifier, Standardizer, classify_cv,
                                 cut_clusters, hier_cluster, make_fold_plan,
                                 purity, sample_sources, sampling_study)
from graphdiv.generators import random_graph
from graphdiv.graphs import GraphDataset


def blobs(n_per, d=3, sep=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + sep
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


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
