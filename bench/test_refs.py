"""The benchmark's references on tiny inputs whose answers are worked by hand.

Run with: python3 -m pytest bench/test_refs.py
"""

import math

import numpy as np

import refs


def test_pairwise_sq_dist():
    x = [[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]
    expected = [[0, 25, 1], [25, 0, 20], [1, 20, 0]]
    assert refs.pairwise_sq_dist(x).tolist() == expected


def test_class_separation():
    # within: (0,1) -> 1, (2,3) -> 1; between: 9, 16, 4, 9 -> mean 9.5
    assert refs.class_separation([[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1]) == 9.5


def test_average_linkage_accepts_correct_merges():
    # points 0, 1, 5, 7 on a line: (0,1) at 1, (2,3) at 2, then the two pairs
    # at the mean of |0-5|, |0-7|, |1-5|, |1-7| = 5.5
    x = np.array([0.0, 1.0, 5.0, 7.0])
    d = np.abs(x[:, None] - x[None, :])
    assert refs.average_linkage_fault(d, [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 5.5)]) is None


def test_average_linkage_rejects_wrong_order_and_height():
    x = np.array([0.0, 1.0, 5.0, 7.0])
    d = np.abs(x[:, None] - x[None, :])
    assert "closer pair" in refs.average_linkage_fault(d, [(2, 3, 2.0), (0, 1, 1.0), (4, 5, 5.5)])
    # single linkage would put the last merge at 4
    assert "height" in refs.average_linkage_fault(d, [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 4.0)])
    assert "active" in refs.average_linkage_fault(d, [(0, 1, 1.0), (0, 2, 5.0), (4, 5, 5.5)])


def test_encoder_logits_and_self_log_loss():
    # relu(0) = 0 hidden output, so every row's logits are the output bias
    # (0, ln 4): sigmoid gives 0.5 and 0.8
    embedding = np.zeros((2, 1))
    hidden = [(np.ones((1, 1)), np.zeros(1))]
    output = (np.zeros((2, 1)), np.array([0.0, math.log(4.0)]))
    logits = refs.encoder_logits(embedding, hidden, output)
    assert np.allclose(logits, [[0.0, math.log(4.0)]] * 2)
    # edge (0, 1): -log 0.8 - log 0.5 = log 2.5
    assert math.isclose(refs.self_log_loss(logits, [(0, 1)]), math.log(2.5), rel_tol=1e-15)


def test_augmented_log_loss_uniform_maps():
    # zero logits make both maps uniform, so every prediction is the mean of
    # the source probabilities 0.5 and 0.8: edge (0, 1) costs -2 log 0.65
    logits = np.array([[0.0, math.log(4.0)]] * 2)
    zeros = np.zeros((2, 2))
    loss = refs.augmented_log_loss(zeros, zeros, logits, [(0, 1)])
    assert math.isclose(loss, -2.0 * math.log(0.65), rel_tol=1e-14)
