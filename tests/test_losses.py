"""Loss semantics against naive float64 oracles, plus gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from tempt import losses, reference
from tempt import tensor as T


def fd_loss_grad(loss_fn, z0: np.ndarray, step=1e-3):
    fd = np.zeros(z0.size)
    flat = z0.astype(np.float64).ravel().copy()
    for ci in range(z0.size):
        orig = flat[ci]
        flat[ci] = orig + step
        f_plus = loss_fn(flat.astype(np.float32).reshape(z0.shape))
        flat[ci] = orig - step
        f_minus = loss_fn(flat.astype(np.float32).reshape(z0.shape))
        flat[ci] = orig
        fd[ci] = (f_plus - f_minus) / (2 * step)
    return fd.reshape(z0.shape)


# ---------------------------------------------------------------------------
# ClassCounts / margins


def test_margin_value_exact():
    counts = losses.ClassCounts((16,) * 8, margin_scale=2.0)
    assert counts.margins()[0] == pytest.approx(1.0, abs=1e-7)  # 2 / 16^(1/4)


# ---------------------------------------------------------------------------
# cross entropy / ldam


def test_cross_entropy_uniform_logits():
    z = T.Tensor(np.zeros((4, 8), dtype=np.float32))
    loss = losses.cross_entropy(z, [0, 3, 5, 7])
    assert loss.item() == pytest.approx(np.log(8), abs=1e-6)


def test_cross_entropy_dominant_logit_goes_to_zero():
    z = np.zeros((1, 8), dtype=np.float32)
    z[0, 2] = 50.0
    loss = losses.cross_entropy(T.Tensor(z), [2])
    assert loss.item() < 1e-6


def test_cross_entropy_matches_f64_oracle(rng):
    for _ in range(10):
        z = rng.uniform(-5, 5, size=(6, 8)).astype(np.float32)
        labels = rng.integers(0, 8, size=6)
        got = losses.cross_entropy(T.Tensor(z), labels).item()
        want = reference.cross_entropy_value(z, labels)
        assert abs(got - want) < 1e-6


def test_ldam_zero_margin_equals_cross_entropy(rng):
    counts = losses.ClassCounts(tuple(rng.integers(1, 100, size=8)), margin_scale=0.0)
    for _ in range(10):
        z = rng.uniform(-5, 5, size=(5, 8)).astype(np.float32)
        labels = rng.integers(0, 8, size=5)
        a = losses.ldam_loss(T.Tensor(z), labels, counts).item()
        b = losses.cross_entropy(T.Tensor(z), labels).item()
        assert abs(a - b) < 1e-6


def test_ldam_matches_f64_oracle(rng):
    counts = losses.ClassCounts(tuple(rng.integers(4, 80, size=8)), margin_scale=1.5)
    for _ in range(10):
        z = rng.uniform(-5, 5, size=(6, 8)).astype(np.float32)
        labels = rng.integers(0, 8, size=6)
        got = losses.ldam_loss(T.Tensor(z), labels, counts).item()
        want = reference.ldam_value(z, labels, counts.n, counts.margin_scale)
        assert abs(got - want) < 1e-5


def test_ldam_penalizes_true_class_margin():
    # same logits: the rare class must incur the larger loss when true
    counts = losses.ClassCounts((1000, 2), margin_scale=1.0)
    z = np.zeros((1, 2), dtype=np.float32)
    common = losses.ldam_loss(T.Tensor(z), [0], counts).item()
    rare = losses.ldam_loss(T.Tensor(z), [1], counts).item()
    assert rare > common


def test_ldam_stable_at_large_logits():
    z = np.array([[500.0, -500.0, 0.0, 0.0]], dtype=np.float32)
    loss = losses.ldam_loss(T.Tensor(z), [0], losses.ClassCounts((10,) * 4, 0.5))
    assert np.isfinite(loss.item())


def test_ce_and_ldam_gradients(rng):
    z0 = rng.uniform(-3, 3, size=(5, 8)).astype(np.float32)
    labels = rng.integers(0, 8, size=5)
    counts = losses.ClassCounts(tuple(rng.integers(4, 80, size=8)), margin_scale=1.5)

    for graph_loss, oracle in (
        (lambda zt: losses.cross_entropy(zt, labels), lambda z: reference.cross_entropy_value(z, labels)),
        (
            lambda zt: losses.ldam_loss(zt, labels, counts),
            lambda z: reference.ldam_value(z, labels, counts.n, counts.margin_scale),
        ),
    ):
        zt = T.Tensor(z0, requires_grad=True)
        grads = T.backward(graph_loss(zt))
        fd = fd_loss_grad(oracle, z0)
        assert np.abs(grads[zt].data - fd).max() / max(np.abs(fd).max(), 1e-6) < 1e-3


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform():
    z = T.Tensor(np.zeros((3, 8), dtype=np.float32))
    assert losses.entropy_loss(z).item() == pytest.approx(np.log(8), abs=1e-6)


def test_entropy_near_one_hot():
    z = np.zeros((1, 8), dtype=np.float32)
    z[0, 1] = 60.0
    assert losses.entropy_loss(T.Tensor(z)).item() < 1e-6


def test_entropy_matches_f64_oracle(rng):
    for _ in range(10):
        z = rng.uniform(-5, 5, size=(7, 8)).astype(np.float32)
        got = losses.entropy_loss(T.Tensor(z)).item()
        assert abs(got - reference.entropy_value(z)) < 1e-6


def test_entropy_gradient(rng):
    z0 = rng.uniform(-2, 2, size=(4, 8)).astype(np.float32)
    zt = T.Tensor(z0, requires_grad=True)
    grads = T.backward(losses.entropy_loss(zt))
    fd = fd_loss_grad(reference.entropy_value, z0)
    assert np.abs(grads[zt].data - fd).max() / max(np.abs(fd).max(), 1e-6) < 1e-3


# ---------------------------------------------------------------------------
# temporal consistency


def test_tcl_fixed_point(rng):
    y0 = rng.uniform(-1, 1, size=(6, 8)).astype(np.float32)
    yt = T.Tensor(y0, requires_grad=True)
    loss = losses.temporal_consistency_loss(yt, y0.copy())
    assert loss.item() == 0.0
    grads = T.backward(loss)
    assert np.all(grads[yt].data == 0.0)


def test_tcl_single_frame_unit_distance():
    y = np.zeros((1, 8), dtype=np.float32)
    y[0, 0] = 1.0
    loss = losses.temporal_consistency_loss(T.Tensor(y), np.zeros((1, 8), dtype=np.float32))
    assert loss.item() == pytest.approx(1.0, abs=1e-7)


def test_tcl_matches_f64_oracle(rng):
    y0 = rng.uniform(-2, 2, size=(9, 8)).astype(np.float32)
    target = rng.uniform(-2, 2, size=(9, 8)).astype(np.float32)
    got = losses.temporal_consistency_loss(T.Tensor(y0), target).item()
    want = reference.temporal_consistency_value(y0, target)
    assert abs(got - want) < 1e-5 * max(1.0, abs(want))


def test_tcl_gradient(rng):
    y0 = rng.uniform(-1, 1, size=(6, 4)).astype(np.float32)
    target = rng.uniform(-1, 1, size=(6, 4)).astype(np.float32)
    yt = T.Tensor(y0, requires_grad=True)
    grads = T.backward(losses.temporal_consistency_loss(yt, target))

    def oracle(y):
        d = y.astype(np.float64) - target
        return float((d**2).sum(axis=1).mean())

    fd = fd_loss_grad(oracle, y0)
    assert np.abs(grads[yt].data - fd).max() / max(np.abs(fd).max(), 1e-6) < 1e-3


def test_tcl_nonnegative_and_zero_iff_match(rng):
    for _ in range(20):
        y = rng.uniform(-1, 1, size=(5, 3)).astype(np.float32)
        target = y.copy()
        if rng.uniform() < 0.5:
            target[2, 1] += 0.5
        loss = losses.temporal_consistency_loss(T.Tensor(y), target).item()
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.all(y == target))


# ---------------------------------------------------------------------------
# frame-difference Jacobian estimate


def test_jacobian_fd_linear_recovers_columns(rng):
    a = rng.uniform(-1, 1, size=(8, 5))
    x0 = rng.uniform(-1, 1, size=5)
    eps = 1e-3
    for j in range(5):
        x1 = x0.copy()
        x1[j] += eps
        jac = losses.jacobian_fd_approx(a @ x0, a @ x1, x0, x1)
        col = jac[:, j]
        assert not np.ma.is_masked(col.max())
        assert np.abs(col - a[:, j]).max() < 1e-4
        other = np.delete(np.arange(5), j)
        assert jac.mask[:, other].all(), "untouched coordinates must be masked"


def test_jacobian_fd_constant_function(rng):
    x0 = rng.uniform(-1, 1, size=4)
    x1 = x0 + 0.5
    f = np.ones(3)
    jac = losses.jacobian_fd_approx(f, f, x0, x1)
    assert np.all(jac.filled(99.0) == 0.0)


def test_jacobian_fd_quadratic_accuracy(rng):
    # f(x) = (x^T Q x) per row: analytic J = 2 Q x; secant error is O(step)
    q = rng.uniform(-1, 1, size=(3, 4, 4))
    q = q + q.transpose(0, 2, 1)

    def f(x):
        return np.array([x @ qi @ x for qi in q])

    x0 = rng.uniform(-1, 1, size=4)
    step = 1e-4
    for j in range(4):
        x1 = x0.copy()
        x1[j] += step
        jac = losses.jacobian_fd_approx(f(x0), f(x1), x0, x1)
        analytic = np.array([2 * (qi @ x0)[j] for qi in q])
        assert np.abs(jac[:, j] - analytic).max() < 10 * step


def test_frobenius_ratio_invariant_under_scaling(rng):
    """Scaling a linear model scales stream differences and J alike."""
    a0 = rng.uniform(-1, 1, size=(8, 6))
    xs = rng.uniform(-1, 1, size=(20, 6))
    ratios = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        a = alpha * a0
        ys = xs @ a.T
        diff_sum = float(((ys[1:] - ys[:-1]) ** 2).sum())
        frob = float((a**2).sum())
        ratios.append(diff_sum / frob)
    for r in ratios[1:]:
        assert abs(r - ratios[0]) / ratios[0] < 1e-5
