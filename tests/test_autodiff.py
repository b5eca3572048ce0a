import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import corrector, kinematics, scene, se3, vit
from silgrad.synth import rng_stream

from conftest import finite_diff_check, two_branch_sigmoid, weighted_sum


def grad_of(loss, x):
    return ad.backward(loss)[x.nid]


def _product(a, b):
    """a * b as one node with two parents: the product rule through from_op."""
    av, bv = ad._val(a), ad._val(b)
    return ad.from_op(av * bv, [a, b], lambda g: (g * bv, g * av))


def _mid_range_correction():
    """The reference chain, its correction bounds and a noisy vector whose
    visible joints sit mid-range, where no clip is active."""
    chain = kinematics.reference_chain()
    theta = np.zeros((1, 10))
    theta[0, 6:10] = (chain.lower_limits[3:7] + chain.upper_limits[3:7]) / 2
    return chain, corrector.default_scale(chain), theta


def test_record_mul_product_rule():
    tape = ad.Tape()
    x = ad.leaf(tape, 3.0)
    y = ad.leaf(tape, 4.0)
    out = _product(x, y)
    assert out.value == 12.0
    grads = ad.backward(out)
    assert grads[x.nid] == 4.0
    assert grads[y.nid] == 3.0


@pytest.mark.parametrize("dtype, bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
def test_stable_sigmoid_matches_two_branch_form_bit_for_bit(dtype, bits):
    tiny = np.finfo(dtype).smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, tiny, -tiny,
               np.finfo(dtype).tiny, np.finfo(dtype).max, -np.finfo(dtype).max]
    x = np.concatenate([np.array(special, dtype=dtype),
                        np.random.default_rng(3).normal(0.0, 20.0, 4001).astype(dtype)])
    got, ref = ad.stable_sigmoid(x), two_branch_sigmoid(x)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got.view(bits), ref.view(bits))


def test_record_sigmoid_at_zero():
    # the correction node's sigmoid at raw 0 is 0.5 with slope 0.25: theta is
    # the noisy vector, and d theta / d raw is 2 k 0.25
    chain, k, theta_noisy = _mid_range_correction()
    tape = ad.Tape()
    raw = ad.leaf(tape, np.zeros((1, 10)))
    out = corrector.apply_correction(raw, theta_noisy, k, chain)
    assert len(tape) == 2
    np.testing.assert_array_equal(out.value, theta_noisy)
    np.testing.assert_array_equal(grad_of(weighted_sum(out, 1.0), raw), k[None] / 2)


def test_record_sum_of_ones():
    tape = ad.Tape()
    a = ad.leaf(tape, np.ones((2, 2)))
    out = weighted_sum(a, 1.0)
    assert out.value == 4.0
    np.testing.assert_array_equal(grad_of(out, a), np.ones((2, 2)))


def test_backward_elementwise_square():
    # the loss node at alpha = 1 against a zero reference: sum(x^2), gradient 2x
    tape = ad.Tape()
    x = ad.leaf(tape, np.array([[[1.0, 2.0, 3.0]]]))
    kp = np.zeros((1, 6, 2))
    loss, _ = corrector.weighted_loss(x, kp, np.zeros((1, 10)), np.zeros((1, 1, 3)), kp,
                                      np.zeros((1, 4)), 1.0, 0.0, 0.0)
    assert loss.value == 14.0
    np.testing.assert_array_equal(grad_of(loss, x), [[[2.0, 4.0, 6.0]]])


def test_backward_constant_empty_map():
    assert ad.backward(7.0) == {}


def test_backward_sigmoid_chain():
    # d/dw of the centered correction of raw = w * x, at w = 1 and x = 2, is
    # 2 k sigmoid'(2) x: a scaling node, then the correction node
    chain, k, theta_noisy = _mid_range_correction()
    tape = ad.Tape()
    w = ad.leaf(tape, np.ones((1, 10)))
    raw = ad.from_op(2.0 * w.value, [w], lambda g: (2.0 * g,))
    out = corrector.apply_correction(raw, theta_noisy, k, chain)
    s = 1.0 / (1.0 + np.exp(-2.0))
    g = grad_of(weighted_sum(out, 1.0), w)
    np.testing.assert_allclose(g, 2.0 * k[None] * s * (1 - s) * 2.0, rtol=1e-12)
    np.testing.assert_allclose(g / (2.0 * k), 0.209987, atol=1e-6)
    # the nodes between the leaf and the loss keep no gradient
    assert ad.backward(weighted_sum(out, 1.0)).keys() == {w.nid}


def test_backward_rejects_nonscalar():
    tape = ad.Tape()
    x = ad.leaf(tape, np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(_product(x, x))


def test_fanout_accumulation_exact():
    # x * x: both parents are x, each gradient is x, and they sum to 2x
    tape = ad.Tape()
    x = ad.leaf(tape, 1.5)
    loss = _product(x, x)
    assert grad_of(loss, x) == 3.0


def test_shape_mismatch_error_names_op():
    with pytest.raises(ad.ShapeMismatch) as ei:
        vit._linear(np.ones((3, 4)), np.ones((5, 2)), np.zeros(2))
    assert ei.value.op == "linear"
    assert (3, 4) in ei.value.shapes


def test_finite_diff_square():
    rep = finite_diff_check(lambda x: _product(x, x), np.array(3.0), epsilon=1e-5)
    np.testing.assert_allclose(rep.numeric, 6.0, rtol=1e-8)
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_finite_diff_kink_flags_disagreement():
    # a visible joint exactly at its limit: the inclusive clip passes the
    # one-sided slope, the central difference sees half of it; the check
    # stays finite and reports rather than crashes
    chain, k, theta_noisy = _mid_range_correction()
    theta_noisy[0, 6:10] = chain.upper_limits[3:7]

    def f(raw):
        return weighted_sum(corrector.apply_correction(raw, theta_noisy, k, chain), 1.0)

    rep = finite_diff_check(f, np.zeros((1, 10)), epsilon=1e-5, tolerance=1e-6)
    assert np.isfinite(rep.max_rel_error)
    assert not rep.passed


def test_finite_diff_nonfinite_probe_raises():
    def f(x):
        # log(x): the probe below zero is not finite
        xv = ad._val(x)
        return ad.from_op(np.log(xv).sum(), [x] if isinstance(x, ad.DiffValue) else [],
                          lambda g: (g / xv,))

    with pytest.raises(FloatingPointError, match="coordinate 0"):
        finite_diff_check(f, np.array([1e-9]), epsilon=1e-5)


RNG = np.random.default_rng(20240811)


def _check(f, x0, tol=1e-6, eps=1e-6):
    rep = finite_diff_check(f, x0, epsilon=eps, tolerance=tol)
    assert rep.passed, f"{f}: {rep}"


def _vit_op(fn, x, unpack, *args, **back_kw):
    """One of vit's (output, backward) op pairs as one node on the whole
    input ``x``: ``unpack`` views an array of x's shape as the op's operands,
    and the backward writes their gradients into those views of zeros."""
    xv = ad._val(x)
    out, back = fn(*unpack(xv), *args)

    def vjp(g):
        grad = np.zeros_like(xv)
        grads = back(g, **back_kw)
        for view, part in zip(unpack(grad), grads if type(grads) is tuple else (grads,)):
            if part is not None:
                view[...] = part
        return (grad,)

    return ad.from_op(out, [x] if isinstance(x, ad.DiffValue) else [], vjp)


@pytest.mark.parametrize("name", [
    "layer_norm", "attention", "attention-class-query", "gelu", "linear",
    "linear-plain-x",
])
def test_primitive_gradients_match_finite_differences(name):
    x0 = RNG.uniform(0.5, 1.5, size=(3, 4))
    c = RNG.uniform(0.5, 1.5, size=(3, 4))
    # layer norm: rows 0-2 are x, row 3 the gain, row 4 the bias
    ln0 = np.vstack([x0, RNG.uniform(-2.0, 2.0, size=(2, 4))])
    # attention: B=2, T=3, 2 heads of width 2, packed q/k/v
    qkv0 = RNG.normal(size=(2, 3, 12))
    c_att = RNG.normal(size=(2, 3, 4))
    # linear: rows 0-5 are x, (2, 3, 4); rows 6-9 the weight, row 10 the bias
    lin0 = RNG.normal(size=(11, 4))
    c_lin = RNG.normal(size=(2, 3, 4))

    fns = {
        "layer_norm": lambda x: weighted_sum(_vit_op(
            vit._layer_norm, x, lambda a: (a[:3], a[3], a[4])), c),
        "attention": lambda x: weighted_sum(_vit_op(vit._attention, x, lambda a: (a,), 2),
                                            c_att),
        # the first token alone queried, as in the ViT's last layer
        "attention-class-query": lambda x: weighted_sum(
            _vit_op(vit._attention, x, lambda a: (a,), 2, 1), c_att[:, :1]),
        "gelu": lambda x: weighted_sum(_vit_op(vit._gelu, x, lambda a: (a,)), c),
        "linear": lambda x: weighted_sum(_vit_op(
            vit._linear, x, lambda a: (a[:6].reshape(2, 3, 4), a[6:10], a[10])), c_lin),
        # a plain x, as the patches are: the backward skips its gradient
        "linear-plain-x": lambda x: weighted_sum(_vit_op(
            vit._linear, x, lambda a: (c_lin, a[6:10], a[10]), dx=False), c_lin),
    }
    inputs = {"layer_norm": ln0, "attention": qkv0, "attention-class-query": qkv0,
              "gelu": x0 - 1.0, "linear": lin0, "linear-plain-x": lin0}
    _check(fns[name], inputs.get(name, x0))
    if name == "attention-class-query":
        # the q-gradient rows of the tokens not queried are exact zeros
        out, back = vit._attention(qkv0, 2, 1)
        assert out.shape == (2, 1, 4)
        assert not back(c_att[:, :1])[:, 1:, :4].any()


# the ViT's ops as plain composed expressions, one new array per step: each
# in-place op in vit must equal its expression bit for bit

def _composed_linear(x, w, b):
    x2 = x.reshape(-1, w.shape[0])

    def back(g):
        g2 = g.reshape(-1, w.shape[1])
        return (g2 @ w.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return (x2 @ w + b).reshape(x.shape[:-1] + w.shape[1:]), back


def _composed_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) / std
    lead = tuple(range(x.ndim - 1))

    def back(g):
        gh = g * gain
        gx = (gh - gh.mean(axis=-1, keepdims=True)
              - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return xhat * gain + bias, back


def _composed_attention(qkv, heads, queries=None):
    b, t, d3 = qkv.shape
    tq = t if queries is None else queries
    dh = d3 // (3 * heads)
    q, k, v = np.transpose(qkv.reshape(b, t, 3, heads, dh), (2, 0, 3, 1, 4))
    q = q[:, :, :tq]
    scale = 1.0 / math.sqrt(dh)
    s = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        go = np.transpose(g.reshape(b, tq, heads, dh), (0, 2, 1, 3))
        gp = np.matmul(go, np.swapaxes(v, -1, -2))
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
        gq = np.concatenate([np.matmul(gs, k), np.zeros_like(k[:, :, tq:])], axis=2)
        grad = np.stack([gq, np.matmul(np.swapaxes(gs, -1, -2), q),
                         np.matmul(np.swapaxes(p, -1, -2), go)])
        return np.transpose(grad, (1, 3, 0, 2, 4)).reshape(b, t, d3)

    return np.transpose(np.matmul(p, v), (0, 2, 1, 3)).reshape(b, tq, d3 // 3), back


def _composed_gelu(x):
    c = 0.7978845608028654
    th = np.tanh(c * (x + 0.044715 * (x * (x * x))))

    def back(g):
        du = c * (1.0 + 3.0 * 0.044715 * (x * x))
        return g * (0.5 * (1.0 + th) + (x * 0.5) * ((1.0 - th * th) * du))

    return (x * 0.5) * (1.0 + th), back


def _op_case(name, rng, dtype):
    """(vit's op, its composed expression, operands, output cotangent) at
    the ViT's own shapes: B = 2, T = 65 tokens, D = 64, 4 heads."""
    def draw(*shape, scale=1.0):
        return (scale * rng.normal(size=shape)).astype(dtype)

    b, t, d = 2, 65, 64
    if name == "linear":
        return vit._linear, _composed_linear, (draw(b, t, d), draw(d, 3 * d), draw(3 * d)), \
            draw(b, t, 3 * d)
    if name.startswith("layer_norm"):
        x, gain, bias = draw(b, t, d, scale=3.0) + 1.0, draw(d), draw(d)
        if name == "layer_norm-class-row":
            # as the final norm runs: the class token's row of x, and a
            # cotangent that is a strided view of the head's input gradient
            return vit._layer_norm, _composed_layer_norm, (x[:, :1], gain, bias), \
                draw(b, d + 10)[:, None, :d]
        return vit._layer_norm, _composed_layer_norm, (x, gain, bias), draw(b, t, d)
    if name.startswith("attention"):
        queries = 1 if name == "attention-class-query" else None
        return vit._attention, _composed_attention, (draw(b, t, 3 * d, scale=2.0), 4, queries), \
            draw(b, queries or t, d)
    x = np.concatenate([rng.normal(0.0, 3.0, size=b * t * 4 * d - 5),
                        [0.0, -0.0, 1e-30, 40.0, -40.0]]).astype(dtype).reshape(b, t, 4 * d)
    return vit._gelu, _composed_gelu, (x,), draw(b, t, 4 * d)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["linear", "layer_norm", "layer_norm-class-row", "attention",
                                  "attention-class-query", "gelu"])
def test_op_is_the_composed_expression_bit_for_bit(name, dtype):
    op, composed, args, g = _op_case(name, np.random.default_rng(7), dtype)
    before = [a.copy() for a in args if isinstance(a, np.ndarray)] + [g.copy()]
    out, back = op(*args)
    want_out, want_back = composed(*args)
    assert out.dtype == dtype and np.array_equal(out, want_out)
    want = want_back(g)
    # twice: a backward writes nothing it keeps
    for _ in range(2):
        got = back(g)
        for got_part, want_part in zip(*(p if type(p) is tuple else (p,) for p in (got, want))):
            assert got_part.dtype == dtype and np.array_equal(got_part, want_part)
    # and neither pass writes its operands or the cotangent
    after = [a for a in args if isinstance(a, np.ndarray)] + [g]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def _prismatic_roll_scene(sc):
    """The scene with its first visible joint made prismatic along its axis."""
    joints = list(sc.chain.joints)
    joints[3] = dataclasses.replace(joints[3], kind=kinematics.PRISMATIC)
    return dataclasses.replace(sc, chain=dataclasses.replace(sc.chain, joints=tuple(joints)))


@pytest.mark.parametrize("case", ["in-view", "behind-near-plane", "prismatic-joint"])
def test_project_theta_gradients_match_finite_differences(case):
    # a random weighted sum of every projected vertex and keypoint, against
    # all 10 configuration coordinates; behind the near plane the depth is
    # clamped, and its column of the projection derivative must be zero
    sc = scene.reference_scene(64)
    if case == "prismatic-joint":
        sc = _prismatic_roll_scene(sc)
    pose, _ = se3.transform_to_euler(sc.base)
    # a nonzero yaw: the reference base has none
    theta0 = np.concatenate([pose + [0.2, -0.1, 0.1, 0.0, 0.0, 0.0], [0.4, 0.1, -0.2, 0.5]])[None]
    if case == "behind-near-plane":
        theta0[0, 5] -= 0.10
    q_first = np.array([[0.05, -0.05, 0.13]])
    _, depth = scene.project_theta(sc, theta0, q_first)
    near = sc.camera.near
    if case == "behind-near-plane":
        assert 0 < (depth < near).sum() < depth.size
    else:
        assert (depth > near).all()
    assert np.abs(depth - near).min() > 1e-3  # no probe crosses the clamp
    w = RNG.normal(size=(1, depth.shape[1], 2))

    def f(theta):
        xy, _ = scene.project_theta(sc, theta, q_first)
        return weighted_sum(xy, w)

    _check(f, theta0)


def test_two_tapes_bitwise_identical(tiny_store):
    # two threads, each with its own tape, take a float32 training step's
    # weight gradients at once; each equals a serial run's bit for bit
    store, cfg = tiny_store, vit.VitConfig()
    rng = rng_stream(4, 0)
    # perturbed away from init, whose zero head would zero most gradients
    weights = {n: (w + rng.normal(0.0, 0.05, w.shape)).astype(np.float32)
               for n, w in vit.init_weights(cfg, rng).items()}
    k = corrector.default_scale(store.scene.chain)
    alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
    batches = [np.arange(6), np.arange(len(store) - 6, len(store))]
    start = threading.Barrier(2)

    def gradients(idx, wait=False):
        tape = ad.Tape()
        leaves = {n: ad.leaf(tape, w) for n, w in weights.items()}
        if wait:
            start.wait(timeout=60)
        total, _ = corrector.batch_loss(cfg, leaves, store, idx, k, alpha, beta, gamma,
                                        "centered")
        grads = ad.backward(total)
        return {n: grads[leaf.nid] for n, leaf in leaves.items()}

    serial = [gradients(idx) for idx in batches]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda idx: gradients(idx, wait=True), batches))
    for one, other in zip(serial, threaded):
        for n, g in one.items():
            assert g.dtype == np.float32 and np.array_equal(g, other[n]), n
    assert np.count_nonzero(serial[0]["patch_embed.w"])


def test_leaf_and_plain_operands_follow_the_dtype_rule():
    tape = ad.Tape()
    assert ad.leaf(tape, np.ones(2, np.float32)).value.dtype == np.float32
    for value in (np.ones(2, np.int64), np.ones(2, np.uint8), 1.0, np.float32(1.0)):
        assert ad.leaf(tape, value).value.dtype == np.float64
    a = np.ones((2, 2), np.float32)
    assert ad._val(a) is a
    assert ad._val(np.ones((2, 2), np.uint8)).dtype == np.float64


def test_dual_mode_plain_arrays_pass_through():
    a = np.ones((2, 2))
    out = weighted_sum(a, 1.0)
    assert not isinstance(out, ad.DiffValue) and out == 4.0
    assert ad.from_op(a, [], lambda g: (g,)) is a


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    x = ad.leaf(t1, 1.0)
    y = ad.leaf(t2, 2.0)
    with pytest.raises(ValueError, match="different tapes"):
        _product(x, y)
