import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gradient_check
from graphdiv import nn
from graphdiv.nn import (CheckpointError, DenseLayer, ShapeError, adam_step, backward,
                         fit_stack, forward, init_dense, multilabel_bce_loss,
                         params_from_checkpoint, params_to_checkpoint)


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
    layer = DenseLayer(np.eye(3), np.zeros(3))
    x = np.array([[1.0, -2.0, 0.5]])
    out, _ = forward([layer], x)
    assert np.array_equal(out, x)


def test_layer_shape_validation():
    with pytest.raises(ShapeError):
        DenseLayer(np.eye(3), np.zeros(2))
    layer = DenseLayer(np.eye(3), np.zeros(3))
    with pytest.raises(ShapeError):
        forward([layer], np.ones((1, 4)))


def test_stacked_layer_shapes():
    DenseLayer(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        DenseLayer(np.zeros((2, 3, 4)), np.zeros(3))
    with pytest.raises(ShapeError):
        DenseLayer(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3)))
    layer = DenseLayer(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert layer.in_dim == 4
    with pytest.raises(ShapeError):
        forward([layer], np.ones((2, 5, 3)))


def test_stacked_layers_match_slices():
    # a stack of 3 two-layer nets: forward, loss and backward of each slice
    # are the bits of that net run alone
    rng = np.random.default_rng(4)
    nets = [[DenseLayer(*init_dense(4, 3, rng)), DenseLayer(*init_dense(2, 4, rng))]
            for _ in range(3)]
    for net in nets:
        for layer in net:
            layer.bias[...] = rng.normal(size=layer.bias.shape)
    stack = [DenseLayer(np.stack([net[k].weight for net in nets]),
                        np.stack([net[k].bias for net in nets]))
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
    layers = [DenseLayer(*init_dense(4, 3, rng)), DenseLayer(*init_dense(2, 4, rng))]
    x = rng.normal(size=(5, 3))
    t = (rng.random((5, 2)) < 0.5).astype(float)
    params = {"w0": layers[0].weight, "b0": layers[0].bias,
              "w1": layers[1].weight, "b1": layers[1].bias}

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
    """Three stacked problems min |p - c|^2; at poison_epoch the gradient of
    poison_slice turns to `poison` while every loss stays finite."""
    centers = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    calls = []

    def loss_and_grads(p):
        d = p["p"] - centers
        grads = {"p": 2.0 * d}
        if len(calls) == poison_epoch:
            grads["p"][poison_slice, 0] = poison
        calls.append(None)
        return (d * d).sum(axis=1), grads

    params, trace, faults = fit_stack([{"p": np.zeros(2)} for _ in range(3)], loss_and_grads,
                                      [0.1] * 3, epochs, ["g0", "g1", "g2"])
    return trace, params["p"], faults


@pytest.mark.parametrize("poison_epoch", [0, 3, 5])
def test_non_finite_gradient_stays_in_its_slice(poison_epoch):
    # a NaN gradient with a finite loss faults its slice only: the first bad
    # epoch is the next one, or `epochs` (read off the fitted arrays) when the
    # fault comes at the last step, and the other slices keep their bits
    epochs = 6
    clean_trace, clean_p, _ = _quadratic_stack_fit(epochs)
    trace, p, faults = _quadratic_stack_fit(epochs, poison_epoch)
    assert np.isfinite(trace[:poison_epoch + 1]).all()
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


def scripted_faults(epochs, group=1):
    """fit_stack faults of six slices whose losses are scripted: non-finite
    at (epoch 2, slice 1) and (epoch 1, slice 4), while slice 3 starts from a
    NaN no loss reads, so only its fitted array shows it."""
    trace = np.zeros((4, 6))
    trace[2, 1] = np.nan
    trace[1, 4] = np.inf
    inits = [{"p": np.zeros(2)} for _ in range(6)]
    inits[3]["p"][1] = np.nan
    steps = iter(trace)
    _, _, faults = fit_stack(inits, lambda p: (next(steps), {"p": np.zeros_like(p["p"])}),
                             [0.1] * 6, epochs, [f"g{k}" for k in range(6 // group)], group)
    return bad_epochs(faults)


def test_stack_faults_per_group():
    # runs of `group` slices report the first bad epoch of any member, each
    # fault naming its own run's id
    assert scripted_faults(4) == [-1, 2, -1, 4, 1, -1]
    assert scripted_faults(4, group=2) == [2, 4, 1]
    assert scripted_faults(0, group=3) == [-1, 0]


def _coupled_loss(targets):
    """Slices min sum((a * b - t)^2) over a (r, c) and b (c,), for a stack
    (one target per slice) or one slice."""
    def loss_and_grads(params):
        a, b = params["a"], params["b"][..., None, :]
        d = a * b - targets
        return (d * d).sum(axis=(-2, -1)), {"a": 2.0 * d * b, "b": (2.0 * d * a).sum(axis=-2)}
    return loss_and_grads


def _lone_fit(init, targets, lr, epochs):
    """One slice's fit with its own Adam moments per array, apart from fit_stack."""
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
    # every clean slice gets the bits of its lone fit at its own lr, and a
    # slice poisoned with a NaN faults its own run and no other
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
    assert trace.shape == (epochs, slices)
    assert bad_epochs(faults) == [0 if poisoned and k == bad // group else -1
                                  for k in range(runs)]
    for k in range(slices):
        if k == bad:
            continue
        lone, lone_trace = _lone_fit(inits[k], targets[k], lrs[k], epochs)
        assert trace[:, k].tobytes() == lone_trace.tobytes()
        for name, a in lone.items():
            assert params[name][k].tobytes() == a.tobytes()


def test_checkpoint_roundtrip_bit_identical():
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    # through JSON text, as a checkpoint file holds it
    ckpt = json.loads(json.dumps(params_to_checkpoint(params, meta={"note": "x"})))
    loaded = params_from_checkpoint(ckpt)
    assert ckpt["meta"] == {"note": "x"}
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_checkpoint_checksum_detects_corruption():
    ckpt = params_to_checkpoint({"w": np.ones((2, 2))})
    ckpt["values"]["w"][0] = float(2.0).hex()
    with pytest.raises(CheckpointError, match="checksum"):
        params_from_checkpoint(ckpt)


def test_checkpoint_rejects_unknown_version():
    ckpt = params_to_checkpoint({"w": np.ones(2)})
    ckpt["version"] = 99
    with pytest.raises(CheckpointError, match="version"):
        params_from_checkpoint(ckpt)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_checkpoint_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    params = {"a": rng.normal(size=(2, 3)) * 10.0 ** float(rng.integers(-8, 8))}
    back = params_from_checkpoint(params_to_checkpoint(params))
    assert np.array_equal(back["a"], params["a"])
