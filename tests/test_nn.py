import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gradient_check
from graphdiv import nn
from graphdiv.nn import (ShapeError, adam_step, backward, fit_stack, forward, init_dense,
                         multilabel_bce_loss)


def test_sigmoid_softplus_stable_at_extremes():
    z = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = nn.sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0 and s[2] == 0.5
    sp = nn.softplus(z)
    assert np.all(np.isfinite(sp))
    assert sp[2] == pytest.approx(np.log(2))
    assert sp[-1] == pytest.approx(1000.0)


def test_sigmoid_matches_masked_piecewise_form():
    # each sign takes its overflow-safe branch, with the bits of computing
    # that branch on the masked entries alone; NaN stays NaN (its sign bit
    # may differ)
    assert np.isnan(nn.sigmoid(np.array([np.nan]))).all()
    z = np.concatenate([np.random.default_rng(1).normal(scale=20, size=4000),
                        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
                         np.inf, -np.inf]])
    ref = np.empty_like(z)
    pos = z >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    ref[~pos] = ez / (1.0 + ez)
    assert nn.sigmoid(z).tobytes() == ref.tobytes()


def test_softmax_rows_sum_to_one():
    z = np.array([[1.0, 2.0, 3.0], [-500.0, 0.0, 500.0]])
    p = nn.softmax(z, axis=-1)
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert np.all(np.isfinite(p))


def test_identity_layer_passthrough():
    x = np.array([[1.0, -2.0, 0.5]])
    out, _ = forward([(np.eye(3), np.zeros(3))], x)
    assert np.array_equal(out, x)


def test_forward_checks_input_width():
    # a layer's input width is its weight's last axis, alone or stacked; the
    # layout of a model's arrays is the model's check (test_encoder)
    with pytest.raises(ShapeError, match="layer 0: input width 4 != expected 3"):
        forward([(np.eye(3), np.zeros(3))], np.ones((1, 4)))
    stacked = (np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert forward([stacked], np.ones((2, 5, 4)))[0].shape == (2, 5, 3)
    with pytest.raises(ShapeError, match="layer 1: input width 3 != expected 4"):
        forward([stacked, stacked], np.ones((2, 5, 4)))


def test_stacked_layers_match_slices():
    # a stack of 3 two-layer nets: forward, loss and backward of each slice
    # are the bits of that net run alone
    rng = np.random.default_rng(4)
    nets = [[init_dense(4, 3, rng), init_dense(2, 4, rng)] for _ in range(3)]
    for net in nets:
        for _, bias in net:
            bias[...] = rng.normal(size=bias.shape)
    stack = [tuple(np.stack([net[k][part] for net in nets]) for part in (0, 1))
             for k in range(len(nets[0]))]
    x = rng.normal(size=(3, 5, 3))
    t = (rng.random((3, 5, 2)) < 0.5).astype(float)
    out, tape = forward(stack, x)
    losses, g = multilabel_bce_loss(out, t)
    grads, g_in = backward(stack, tape, g)
    for i, net in enumerate(nets):
        out_i, tape_i = forward(net, x[i])
        loss_i, g_i = multilabel_bce_loss(out_i, t[i])
        grads_i, g_in_i = backward(net, tape_i, g_i)
        assert out_i.tobytes() == out[i].tobytes()
        assert loss_i == losses[i]
        assert g_in_i.tobytes() == g_in[i].tobytes()
        for (gw_i, gb_i), (gw, gb) in zip(grads_i, grads):
            assert gw_i.tobytes() == gw[i].tobytes()
            assert gb_i.tobytes() == gb[i].tobytes()


def test_bce_known_value():
    # logits=[0], target=[1] -> loss = ln 2, grad = -0.5
    loss, grad = multilabel_bce_loss(np.array([[0.0]]), np.array([[1.0]]))
    assert loss == pytest.approx(np.log(2))
    assert grad[0, 0] == pytest.approx(-0.5)


def test_bce_matches_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 4))
    t = (rng.random((3, 4)) < 0.5).astype(float)
    _, grad = multilabel_bce_loss(z, t)
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            num = (multilabel_bce_loss(zp, t)[0] - multilabel_bce_loss(zm, t)[0]) / (2 * eps)
            assert grad[i, j] == pytest.approx(num, abs=1e-6)


def test_stack_gradient_check():
    rng = np.random.default_rng(2)
    layers = [init_dense(4, 3, rng), init_dense(2, 4, rng)]
    x = rng.normal(size=(5, 3))
    t = (rng.random((5, 2)) < 0.5).astype(float)
    (w0, b0), (w1, b1) = layers
    params = {"w0": w0, "b0": b0, "w1": w1, "b1": b1}

    def loss_and_grads(_):
        out, tape = forward(layers, x)
        loss, g = multilabel_bce_loss(out, t)
        layer_grads, _ = backward(layers, tape, g)
        return loss, {"w0": layer_grads[0][0], "b0": layer_grads[0][1],
                      "w1": layer_grads[1][0], "b1": layer_grads[1][1]}

    assert gradient_check(params, loss_and_grads) < 1e-4


def test_adam_first_step_is_signed_lr():
    # with zero moments, the first Adam step moves each coordinate by ~lr*sign(g)
    p = np.array([1.0, 2.0, 3.0])
    adam_step(p, np.array([0.5, -3.0, 0.0]), np.zeros(3), np.zeros(3), 1, 0.1)
    assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert p[1] == pytest.approx(2.0 + 0.1, abs=1e-6)
    assert p[2] == pytest.approx(3.0)


def _quadratic_stack_fit(epochs, poison_epoch=None, poison_slice=1, poison=np.nan):
    """Three stacked problems min |p - c|^2, the loss computed only when asked
    for; at poison_epoch the gradient of poison_slice turns to `poison`."""
    centers = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    calls = []

    def loss_and_grads(p, loss):
        d = p["p"] - centers
        grads = {"p": 2.0 * d}
        if len(calls) == poison_epoch:
            grads["p"][poison_slice, 0] = poison
        calls.append(None)
        return (d * d).sum(axis=1) if loss else None, grads

    params, trace, faults = fit_stack([{"p": np.zeros(2)} for _ in range(3)], loss_and_grads,
                                      [0.1] * 3, epochs, ["g0", "g1", "g2"])
    return trace, params["p"], faults


@pytest.mark.parametrize("poison_epoch", [0, 3, 5])
def test_non_finite_gradient_stays_in_its_slice(poison_epoch):
    # a NaN gradient faults its slice only: the first bad epoch is the next
    # one, whose incoming params are NaN, or `epochs` (read off the fitted
    # arrays) when the fault comes at the last step; the losses recorded up
    # to the poisoned epoch stay finite, and the other slices keep their bits
    epochs = 6
    clean_trace, clean_p, _ = _quadratic_stack_fit(epochs)
    trace, p, faults = _quadratic_stack_fit(epochs, poison_epoch)
    up_to_poison = [e <= poison_epoch for e in nn.recorded_epochs(epochs)]
    assert np.isfinite(trace[up_to_poison]).all()
    assert bad_epochs(faults) == [-1, poison_epoch + 1, -1]
    for k in (0, 2):
        assert trace[:, k].tobytes() == clean_trace[:, k].tobytes()
        assert p[k].tobytes() == clean_p[k].tobytes()


def test_inf_gradient_warns_and_stays_in_its_slice():
    # Adam's inf / inf is numpy's "invalid value" warning, which the test
    # suite turns into an error unless a test expects it, as here
    clean_trace, _, _ = _quadratic_stack_fit(6)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        trace, _, faults = _quadratic_stack_fit(6, 2, poison=np.inf)
    assert bad_epochs(faults) == [-1, 3, -1]
    assert trace[:, 0].tobytes() == clean_trace[:, 0].tobytes()


def bad_epochs(faults):
    """The epoch of each run's fault, or -1 where it has none; each fault
    names its own run's id, g<run>."""
    for k, fault in enumerate(faults):
        assert fault is None or fault.ids == [f"g{k}"]
    return [-1 if fault is None else fault.epoch for fault in faults]


def scripted_faults(epochs, group=1, dtype=np.float64):
    """fit_stack faults of six slices with finite losses and scripted
    poisons, fitted in dtype: the gradient of slice 1 turns NaN at epoch 1
    and that of slice 4 at epoch 0, so their params are NaN from the next
    epoch on; the gradient of slice 3 turns NaN at the last epoch, so only
    its fitted array shows it, and with no epoch at all slice 3 starts from a
    NaN instead."""
    poisons = {(1, 1), (0, 4), (epochs - 1, 3)}
    inits = [{"p": np.zeros(2, dtype)} for _ in range(6)]
    if not epochs:
        inits[3]["p"][1] = np.nan
    calls = []

    def loss_and_grads(p, loss):
        grads = {"p": np.zeros_like(p["p"])}
        for k in range(6):
            if (len(calls), k) in poisons:
                grads["p"][k, 0] = np.nan
        calls.append(None)
        return np.zeros(6, dtype) if loss else None, grads

    params, _, faults = fit_stack(inits, loss_and_grads, [0.1] * 6, epochs,
                                  [f"g{k}" for k in range(6 // group)], group)
    assert params["p"].dtype == dtype
    return bad_epochs(faults)


def test_stack_faults_per_group():
    # runs of `group` slices report the first bad epoch of any member, each
    # fault naming its own run's id
    assert scripted_faults(4) == [-1, 2, -1, 4, 1, -1]
    assert scripted_faults(4, group=2) == [2, 4, 1]
    assert scripted_faults(0, group=3) == [-1, 0]


def test_stack_faults_per_group_in_float32():
    # a float32 fit faults the same slices alone, at the same epochs
    assert scripted_faults(4, dtype=np.float32) == [-1, 2, -1, 4, 1, -1]
    assert scripted_faults(4, group=2, dtype=np.float32) == [2, 4, 1]
    assert scripted_faults(0, group=3, dtype=np.float32) == [-1, 0]


def test_float32_stack_slices_are_float32_lone_fits():
    # fit_stack runs at its inits' dtype, learning rates included: each slice
    # of a float32 stack gets the bits of its float32 lone fit, which takes
    # its rate as a float32 scalar, and its recorded losses exactly
    rng = np.random.default_rng(4)
    inits = [{"a": rng.normal(size=(2, 3)).astype(np.float32),
              "b": rng.normal(size=3).astype(np.float32)} for _ in range(3)]
    targets = rng.normal(size=(3, 2, 3)).astype(np.float32)
    lrs = [0.05, 0.1, 0.3]
    params, trace, _ = fit_stack(inits, _coupled_loss(targets), lrs, 30, ["g0", "g1", "g2"])
    assert trace.dtype == np.float64
    for k in range(3):
        lone, lone_trace = _lone_fit(inits[k], targets[k], lrs[k], 30)
        assert trace[:, k].tobytes() == lone_trace[nn.recorded_epochs(30)].tobytes()
        for name, a in lone.items():
            assert a.dtype == np.float32
            assert params[name][k].tobytes() == a.tobytes()


@pytest.mark.parametrize("epochs", [1, 2, 11, 30])
def test_non_finite_recorded_loss_faults_with_finite_params(epochs):
    # the params stay finite (every gradient is zero), but slice 1's loss is
    # NaN, and slice 2's inf, at one recorded epoch: each faults there, the
    # stack's other slice never
    for at in nn.recorded_epochs(epochs):
        calls = []

        def loss_and_grads(p, loss):
            losses = np.zeros(3)
            if len(calls) == at:
                losses[1:] = np.nan, np.inf
            calls.append(loss)
            return losses if loss else None, {"p": np.zeros_like(p["p"])}

        params, _, faults = fit_stack([{"p": np.ones(2)} for _ in range(3)], loss_and_grads,
                                      [0.1] * 3, epochs, ["g0", "g1", "g2"])
        assert np.isfinite(params["p"]).all()
        assert bad_epochs(faults) == [-1, at, at]


def _coupled_loss(targets):
    """Slices min sum((a * b - t)^2) over a (r, c) and b (c,), for a stack
    (one target per slice) or one slice; the loss is None unless asked for."""
    def loss_and_grads(params, loss=True):
        a, b = params["a"], params["b"][..., None, :]
        d = a * b - targets
        return ((d * d).sum(axis=(-2, -1)) if loss else None,
                {"a": 2.0 * d * b, "b": (2.0 * d * a).sum(axis=-2)})
    return loss_and_grads


def _lone_fit(init, targets, lr, epochs):
    """One slice's fit with its own Adam moments per array, apart from
    fit_stack, with its loss at every epoch."""
    params = {name: a.copy() for name, a in init.items()}
    moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in params.items()}
    loss_and_grads, trace = _coupled_loss(targets), []
    for epoch in range(epochs):
        loss, grads = loss_and_grads(params)
        trace.append(loss)
        for name, p in params.items():
            adam_step(p, grads[name], *moments[name], epoch + 1, lr)
    return params, np.array(trace, dtype=float)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 8), st.integers(0, 10_000), st.booleans())
def test_fit_stack_slices_are_lone_fits(rows, cols, group, runs, epochs, seed, poisoned):
    # every clean slice gets the params of its lone fit at its own lr, and
    # its losses at the recorded epochs, and a slice poisoned with a NaN
    # faults its own run and no other
    rng = np.random.default_rng(seed)
    slices = group * runs
    inits = [{"a": rng.normal(size=(rows, cols)), "b": rng.normal(size=cols)}
             for _ in range(slices)]
    targets = rng.normal(size=(slices, rows, cols))
    lrs = rng.uniform(1e-3, 0.5, size=slices).tolist()
    bad = int(rng.integers(slices)) if poisoned else None
    if poisoned:
        inits[bad]["a"][0, 0] = np.nan
    params, trace, faults = fit_stack(inits, _coupled_loss(targets), lrs, epochs,
                                      [f"g{k}" for k in range(runs)], group)
    recorded = nn.recorded_epochs(epochs)
    assert trace.shape == (len(recorded), slices)
    assert bad_epochs(faults) == [0 if poisoned and k == bad // group else -1
                                  for k in range(runs)]
    for k in range(slices):
        if k == bad:
            continue
        lone, lone_trace = _lone_fit(inits[k], targets[k], lrs[k], epochs)
        assert trace[:, k].tobytes() == lone_trace[recorded].tobytes()
        for name, a in lone.items():
            assert params[name][k].tobytes() == a.tobytes()


@pytest.mark.parametrize("poison_epoch", [0, 28, 29])
def test_poisoned_gradient_faults_at_next_epoch(poison_epoch):
    # 30 epochs record the loss at 0, 27 and 29 only, so a NaN gradient at
    # epoch 0 shows first in the params of epoch 1, whose loss nothing asks
    # for: the poisoned slice's run faults at poison_epoch + 1 (30, read off
    # the fitted arrays, for the last step), and every other slice keeps the
    # params and recorded losses of its lone fit
    epochs, rng = 30, np.random.default_rng(poison_epoch)
    inits = [{"a": rng.normal(size=(2, 3)), "b": rng.normal(size=3)} for _ in range(4)]
    targets = rng.normal(size=(4, 2, 3))
    lrs = [0.05, 0.1, 0.2, 0.3]
    real, asked = _coupled_loss(targets), []

    def poisoned(params, loss):
        losses, grads = real(params, loss)
        if len(asked) == poison_epoch:
            grads["b"][2, 1] = np.nan
        asked.append(loss)
        return losses, grads

    params, trace, faults = fit_stack(inits, poisoned, lrs, epochs, [f"g{k}" for k in range(4)])
    assert [e for e, loss in enumerate(asked) if loss] == [0, 27, 29]
    assert bad_epochs(faults) == [-1, -1, poison_epoch + 1, -1]
    for k in (0, 1, 3):
        lone, lone_trace = _lone_fit(inits[k], targets[k], lrs[k], epochs)
        assert trace[:, k].tobytes() == lone_trace[[0, 27, 29]].tobytes()
        for name, a in lone.items():
            assert params[name][k].tobytes() == a.tobytes()
