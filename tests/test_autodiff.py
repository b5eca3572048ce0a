import numpy as np
import pytest

from silgrad import autodiff as ad


def grad_of(loss, x):
    return ad.backward(loss)[x.nid]


def test_record_mul_product_rule():
    tape = ad.Tape()
    x = ad.leaf(tape, 3.0)
    y = ad.leaf(tape, 4.0)
    out = ad.mul(x, y)
    assert out.value == 12.0
    grads = ad.backward(out)
    assert grads[x.nid] == 4.0
    assert grads[y.nid] == 3.0


def test_record_sigmoid_at_zero():
    tape = ad.Tape()
    x = ad.leaf(tape, 0.0)
    out = ad.sigmoid(x)
    assert out.value == 0.5
    assert grad_of(out, x) == 0.25


def test_record_sum_of_ones():
    tape = ad.Tape()
    a = ad.leaf(tape, np.ones((2, 2)))
    out = ad.reduce_sum(a)
    assert out.value == 4.0
    np.testing.assert_array_equal(grad_of(out, a), np.ones((2, 2)))


def test_backward_elementwise_square():
    tape = ad.Tape()
    x = ad.leaf(tape, np.array([1.0, 2.0, 3.0]))
    loss = ad.reduce_sum(ad.mul(x, x))
    np.testing.assert_allclose(grad_of(loss, x), [2.0, 4.0, 6.0])


def test_backward_constant_empty_map():
    assert ad.backward(7.0) == {}
    tape = ad.Tape()
    x = ad.leaf(tape, np.zeros(3), requires_grad=False)
    assert isinstance(x, np.ndarray)


def test_backward_sigmoid_chain():
    # d/dw sigmoid(w*x) at w=1, x=2 is sigmoid'(2)*2
    tape = ad.Tape()
    w = ad.leaf(tape, 1.0)
    loss = ad.sigmoid(ad.mul(w, 2.0))
    s = 1.0 / (1.0 + np.exp(-2.0))
    np.testing.assert_allclose(grad_of(loss, w), s * (1 - s) * 2.0, rtol=1e-12)
    np.testing.assert_allclose(grad_of(loss, w), 0.209987, atol=1e-6)


def test_backward_rejects_nonscalar():
    tape = ad.Tape()
    x = ad.leaf(tape, np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


def test_fanout_accumulation_exact():
    tape = ad.Tape()
    x = ad.leaf(tape, 1.5)
    loss = ad.add(x, x)
    assert grad_of(loss, x) == 2.0


def test_shape_mismatch_error_names_op():
    tape = ad.Tape()
    a = ad.leaf(tape, np.ones((3, 4)))
    b = ad.leaf(tape, np.ones((5, 2)))
    with pytest.raises(ad.ShapeMismatch) as ei:
        ad.matmul(a, b)
    assert ei.value.op == "matmul"
    assert (3, 4) in ei.value.shapes


def test_finite_diff_square():
    rep = ad.finite_diff_check(lambda x: ad.mul(x, x), np.array(3.0), epsilon=1e-5)
    np.testing.assert_allclose(rep.numeric, 6.0, rtol=1e-8)
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_finite_diff_kink_flags_disagreement():
    # |x| at 0: analytic subgradient vs numeric 0 disagree in general;
    # stays finite and reports rather than crashes
    def f(x):
        return ad.reduce_sum(ad.sqrt(ad.add(ad.mul(x, x), 1e-30)))

    rep = ad.finite_diff_check(f, np.array([0.0]), epsilon=1e-5, tolerance=1e-6)
    assert np.isfinite(rep.max_rel_error)


def test_finite_diff_nonfinite_probe_raises():
    def f(x):
        return ad.sqrt(x)

    with pytest.raises(FloatingPointError, match="coordinate 0"):
        ad.finite_diff_check(f, np.array([1e-9]), epsilon=1e-5)


RNG = np.random.default_rng(20240811)


def _check(f, x0, tol=1e-6, eps=1e-6):
    rep = ad.finite_diff_check(f, x0, epsilon=eps, tolerance=tol)
    assert rep.passed, f"{f}: {rep}"


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "div", "sin", "cos", "sqrt", "power",
    "sigmoid", "tanh", "softmax", "layer_norm", "matmul", "sum", "mean",
    "reshape", "transpose", "slice", "concat", "broadcast",
    "neg", "clamp", "stack", "gelu",
])
def test_primitive_gradients_match_finite_differences(name):
    x0 = RNG.uniform(0.5, 1.5, size=(3, 4))
    c = RNG.uniform(0.5, 1.5, size=(3, 4))
    m = RNG.uniform(-1.0, 1.0, size=(4, 5))

    fns = {
        "add": lambda x: ad.reduce_sum(ad.mul(ad.add(x, c), c)),
        "sub": lambda x: ad.reduce_sum(ad.mul(ad.sub(c, x), c)),
        "mul": lambda x: ad.reduce_sum(ad.mul(x, c)),
        "div": lambda x: ad.reduce_sum(ad.div(c, x)),
        "sin": lambda x: ad.reduce_sum(ad.sin(x)),
        "cos": lambda x: ad.reduce_sum(ad.cos(x)),
        "sqrt": lambda x: ad.reduce_sum(ad.sqrt(x)),
        "power": lambda x: ad.reduce_sum(ad.power(x, 2.7)),
        "sigmoid": lambda x: ad.reduce_sum(ad.sigmoid(x)),
        "tanh": lambda x: ad.reduce_sum(ad.tanh(x)),
        "softmax": lambda x: ad.reduce_sum(ad.mul(ad.softmax(x, axis=-1), c)),
        "layer_norm": lambda x: ad.reduce_sum(ad.mul(ad.layer_norm(x, axis=-1), c)),
        "matmul": lambda x: ad.reduce_sum(ad.mul(ad.matmul(x, m), 1.0)),
        "sum": lambda x: ad.mul(ad.reduce_sum(x, axis=1).sum(), 1.0),
        "mean": lambda x: ad.reduce_sum(ad.mul(ad.reduce_mean(x, axis=0), c[0])),
        "reshape": lambda x: ad.reduce_sum(ad.mul(ad.reshape(x, (4, 3)), 1.0)),
        "transpose": lambda x: ad.reduce_sum(ad.mul(ad.transpose(x, (1, 0)), c.T)),
        "slice": lambda x: ad.reduce_sum(ad.mul(ad.take(x, (slice(1, 3), slice(0, 2))), 1.0)),
        "concat": lambda x: ad.reduce_sum(ad.mul(ad.concatenate([x, c], axis=0), 1.0)),
        "broadcast": lambda x: ad.reduce_sum(ad.broadcast_to(ad.reshape(x, (1, 3, 4)), (5, 3, 4))),
        "neg": lambda x: ad.reduce_sum(ad.neg(x)),
        "clamp": lambda x: ad.reduce_sum(ad.clamp(x, 0.7, 1.3)),
        "stack": lambda x: ad.reduce_sum(ad.stack([x, c], axis=1)),
        "gelu": lambda x: ad.reduce_sum(ad.gelu(ad.sub(x, 1.0))),
    }
    # clamp is piecewise; keep probes away from its kinks
    _check(fns[name], x0)


def test_batched_matmul_broadcast_gradient():
    a0 = RNG.normal(size=(6, 3, 3))
    b0 = RNG.normal(size=(3, 5))

    def f_a(x):
        return ad.reduce_sum(ad.matmul(x, b0))

    def f_b(x):
        return ad.reduce_sum(ad.matmul(a0, x))

    _check(f_a, a0)
    _check(f_b, b0)


def test_advanced_indexing_gradient_scatter_adds():
    x0 = RNG.normal(size=(5, 2))
    idx = np.array([0, 2, 2, 4])

    def f(x):
        return ad.reduce_sum(ad.take(x, idx))

    tape = ad.Tape()
    x = ad.leaf(tape, x0)
    g = grad_of(f(x), x)
    expect = np.zeros((5, 2))
    np.add.at(expect, idx, 1.0)
    np.testing.assert_array_equal(g, expect)


def test_two_tapes_bitwise_identical():
    x0 = RNG.normal(size=(4, 4))

    def run():
        tape = ad.Tape()
        x = ad.leaf(tape, x0)
        h = ad.layer_norm(ad.matmul(ad.sigmoid(x), x0), axis=-1)
        loss = ad.reduce_sum(ad.mul(ad.softmax(h), h))
        return grad_of(loss, x)

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_dual_mode_plain_arrays_pass_through():
    a = np.ones((2, 2))
    out = ad.add(ad.mul(a, 3.0), 1.0)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, 4.0 * a)


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    x = ad.leaf(t1, 1.0)
    y = ad.leaf(t2, 2.0)
    with pytest.raises(ValueError, match="different tapes"):
        ad.add(x, y)

