import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from silgrad import autodiff as ad
from silgrad import baseline, corrector, kinematics, scene, se3, synth, vit
from silgrad.synth import rng_stream

from conftest import finite_diff_check, frame_loss_of_raw, weighted_sum

RNG = np.random.default_rng(55)


@pytest.fixture(scope="module")
def chain(scene64):
    return scene64.chain


@pytest.fixture(scope="module")
def k_scale(chain):
    return corrector.default_scale(chain)


# --------------------------------------------------------------- squashing

def test_zero_raw_is_identity(chain, k_scale):
    theta = RNG.normal(size=(3, 10)) * 0.1
    theta[:, 6:10] = np.clip(theta[:, 6:10], chain.lower_limits[3:7] + 0.05,
                             chain.upper_limits[3:7] - 0.05)
    out = corrector.apply_correction(np.zeros((3, 10)), theta, k_scale, chain)
    np.testing.assert_allclose(out, theta, atol=1e-12)


def test_saturation_approaches_k(chain, k_scale):
    theta = np.zeros((1, 10))
    theta[0, 6:10] = (chain.lower_limits[3:7] + chain.upper_limits[3:7]) / 2
    out = corrector.apply_correction(np.full((1, 10), 50.0), theta, k_scale, chain)
    delta = out - theta
    np.testing.assert_allclose(delta[0, :6], k_scale[:6], rtol=1e-9)


def test_zero_scale_freezes_output(chain):
    theta = RNG.normal(size=(2, 10)) * 0.05
    theta[:, 6:10] = 0.4
    out = corrector.apply_correction(RNG.normal(size=(2, 10)) * 5, theta,
                                     np.zeros(10), chain)
    np.testing.assert_allclose(out, theta, atol=1e-15)


def test_bounds_strict_for_any_raw(chain, k_scale):
    theta = np.zeros((100, 10))
    theta[:, 6:10] = 0.3
    raw = RNG.normal(size=(100, 10)) * 20
    out = corrector.apply_correction(raw, theta, k_scale, chain)
    assert np.all(np.abs(out - theta) < k_scale)


def test_literal_squash_positive_only(chain, k_scale):
    theta = np.zeros((50, 10))
    theta[:, 6:10] = 0.3
    raw = RNG.normal(size=(50, 10)) * 3
    out = corrector.apply_correction(raw, theta, k_scale, chain, squash="literal")
    delta = out - theta
    assert np.all(delta[:, :6] > 0) and np.all(delta[:, :6] < k_scale[:6])
    with pytest.raises(ValueError):
        corrector.apply_correction(raw, theta, k_scale, chain, squash="banana")


def test_visible_joints_clamped_to_limits(chain, k_scale):
    theta = np.zeros((1, 10))
    theta[0, 9] = 1.15  # end effector near its upper limit 1.2
    out = corrector.apply_correction(np.full((1, 10), 50.0), theta, k_scale, chain)
    assert out[0, 9] == chain.upper_limits[6]


# ------------------------------------------------------------------ network

def test_forward_shape_and_determinism():
    cfg = vit.VitConfig(image_size=32, patch_size=8, embed_dim=32, heads=2, layers=2)
    w = vit.init_weights(cfg, rng_stream(1, 0))
    masks = (RNG.uniform(size=(3, 2, 32, 32)) > 0.5).astype(float)
    theta = RNG.normal(size=(3, 10))
    a = vit.forward(cfg, w, masks, theta)
    b = vit.forward(cfg, w, masks, theta)
    assert a.shape == (3, 10)
    assert np.array_equal(a, b)


SMALL_VIT = vit.VitConfig(image_size=16, patch_size=8, embed_dim=8, heads=2, layers=1)


def _small_vit_case(seed):
    """Weights of SMALL_VIT perturbed away from init, whose zero head would
    zero every gradient; two frames of masks and theta; an output cotangent;
    and the generator, for further draws."""
    rng = rng_stream(seed, 0)
    w = {k: v + rng.normal(0.0, 0.3, v.shape)
         for k, v in vit.init_weights(SMALL_VIT, rng).items()}
    masks = (rng.uniform(size=(2, 2, 16, 16)) > 0.5).astype(float)
    return w, masks, rng.normal(size=(2, 10)), rng.normal(size=(2, 10)), rng


def test_taped_forward_matches_plain_and_weight_gradient_matches_differences():
    cfg = SMALL_VIT
    w, masks, theta, cot, rng = _small_vit_case(13)

    tape = ad.Tape()
    leaves = {k: ad.leaf(tape, v) for k, v in w.items()}
    out = vit.forward(cfg, leaves, masks, theta)
    assert np.array_equal(out.value, vit.forward(cfg, w, masks, theta))
    grads = ad.backward(weighted_sum(out, cot))

    def loss(weights):
        return float(np.sum(vit.forward(cfg, weights, masks, theta) * cot))

    eps = 1e-6
    for _ in range(3):
        direction = {k: rng.normal(size=v.shape) for k, v in w.items()}
        analytic = sum(np.sum(grads[leaves[k].nid] * direction[k]) for k in w)
        numeric = (loss({k: w[k] + eps * direction[k] for k in w})
                   - loss({k: w[k] - eps * direction[k] for k in w})) / (2 * eps)
        assert abs(analytic - numeric) < 1e-7 * max(abs(analytic), 1.0)


def test_float32_weights_run_the_vit_in_float32(monkeypatch):
    w, masks, theta, cot, _ = _small_vit_case(14)
    ops = []  # per op inside the network: [its output's dtype, its gradients' dtypes]

    def recording(fn):
        def op(*args):
            out, back = fn(*args)
            rec = [str(out.dtype), []]
            ops.append(rec)

            def recorded(*back_args):
                grads = back(*back_args)
                rec[1].extend(str(gr.dtype) for gr in
                              (grads if type(grads) is tuple else (grads,)) if gr is not None)
                return grads
            return out, recorded
        return op

    for name in ("_linear", "_layer_norm", "_attention", "_gelu"):
        monkeypatch.setattr(vit, name, recording(getattr(vit, name)))

    def gradients(dtype):
        tape = ad.Tape()
        leaves = {k: ad.leaf(tape, v.astype(dtype)) for k, v in w.items()}
        out = vit.forward(SMALL_VIT, leaves, masks, theta)
        grads = ad.backward(weighted_sum(out, cot))
        return out, {k: grads[leaf.nid] for k, leaf in leaves.items()}

    out, grads = gradients(np.float32)
    # the patch embedding, eight ops per layer, the final norm and five in the head
    assert len(ops) == 1 + 8 * SMALL_VIT.layers + 1 + 5
    assert out.value.dtype == np.float64
    assert all(dtype == "float32" and grad_dtypes and set(grad_dtypes) == {"float32"}
               for dtype, grad_dtypes in ops)
    _, grads64 = gradients(np.float64)
    for k, g in grads.items():
        assert g.dtype == np.float32
        assert np.abs(g - grads64[k]).max() <= 1e-4 * np.abs(grads64[k]).max(), k


def _full_token_vit(cfg, w, masks, theta):
    """The ViT from vit's ops with every encoder layer and the final norm run
    on all T tokens, the head then reading the class token's row: the
    float64 output and its VJP, mapping the output's gradient to each
    weight's."""
    dtype = w["patch_embed.w"].dtype
    backs = {}

    def op(name, fn, *args):
        out, backs[name] = fn(*args)
        return out

    def linear(name, x):
        return op(name, vit._linear, x, w[f"{name}.w"], w[f"{name}.b"])

    def norm(name, x):
        return op(name, vit._layer_norm, x, w[f"{name}.g"], w[f"{name}.b"])

    b, d = len(masks), cfg.embed_dim
    x = linear("patch_embed", vit.patchify(masks.astype(dtype), cfg.patch_size))
    x = np.concatenate([np.broadcast_to(w["cls_token"][None], (b, 1, d)), x], axis=1)
    x = x + w["pos_embed"]
    for i in range(cfg.layers):
        p = f"enc{i}"
        x = x + linear(f"{p}.proj", op(f"{p}.attn", vit._attention,
                                        linear(f"{p}.qkv", norm(f"{p}.ln1", x)), cfg.heads))
        x = x + linear(f"{p}.mlp2", op(f"{p}.gelu", vit._gelu,
                                        linear(f"{p}.mlp1", norm(f"{p}.ln2", x))))
    x = norm("final_ln", x)
    hdn = op("head1.gelu", vit._gelu,
             linear("head1", np.concatenate([x[:, 0], theta.astype(dtype)], axis=-1)))
    out = linear("head3", op("head2.gelu", vit._gelu, linear("head2", hdn)))

    def vjp(g):
        grads = {}

        def back(name, g, params=("w", "b")):
            gx, grads[f"{name}.{params[0]}"], grads[f"{name}.{params[1]}"] = backs[name](g)
            return gx

        g = backs["head2.gelu"](back("head3", g.astype(dtype)))
        g = backs["head1.gelu"](back("head2", g))
        gx = np.zeros(x.shape, dtype)
        gx[:, 0] = back("head1", g)[:, :d]
        gx = back("final_ln", gx, ("g", "b"))
        for i in reversed(range(cfg.layers)):
            p = f"enc{i}"
            gh = back(f"{p}.mlp1", backs[f"{p}.gelu"](back(f"{p}.mlp2", gx)))
            gx = gx + back(f"{p}.ln2", gh, ("g", "b"))
            ga = back(f"{p}.qkv", backs[f"{p}.attn"](back(f"{p}.proj", gx)))
            gx = gx + back(f"{p}.ln1", ga, ("g", "b"))
        grads["pos_embed"] = gx.sum(axis=0)
        grads["cls_token"] = gx[:, :1].sum(axis=0)
        back("patch_embed", gx[:, 1:])
        return grads

    return out.astype(np.float64), vjp


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_forward_matches_full_token_reference(monkeypatch, batch, layers, dtype, rtol):
    # the last layer queries the class token alone and runs its MLP and the
    # final norm on that token's row; the network's output and gradients
    # are those of the network run on every token
    cfg = dataclasses.replace(SMALL_VIT, layers=layers)
    rng = rng_stream(21, 10 * layers + batch)
    w = {k: (v + rng.normal(0.0, 0.3, v.shape)).astype(dtype)
         for k, v in vit.init_weights(cfg, rng).items()}
    masks = (rng.uniform(size=(batch, 2, 16, 16)) > 0.5).astype(float)
    theta, cot = rng.normal(size=(2, batch, 10))
    ref, ref_vjp = _full_token_vit(cfg, w, masks, theta)
    ref_grads = ref_vjp(cot)

    shapes = {"_gelu": [], "_layer_norm": []}   # each call's input shape
    for name, seen in shapes.items():
        def recording(x, *args, fn=getattr(vit, name), seen=seen):
            seen.append(x.shape)
            return fn(x, *args)
        monkeypatch.setattr(vit, name, recording)
    tape = ad.Tape()
    leaves = {k: ad.leaf(tape, v) for k, v in w.items()}
    out = vit.forward(cfg, leaves, masks, theta)
    grads = ad.backward(weighted_sum(out, cot))

    t, d = cfg.num_patches + 1, cfg.embed_dim
    assert shapes["_layer_norm"] == [(batch, t, d)] * (2 * layers - 1) + [(batch, 1, d)] * 2
    assert shapes["_gelu"] == ([(batch, t, cfg.mlp_ratio * d)] * (layers - 1)
                               + [(batch, 1, cfg.mlp_ratio * d)]
                               + [(batch, width) for width in cfg.head_widths])
    for value in (out.value, vit.forward(cfg, w, masks, theta)):
        assert np.abs(value - ref).max() <= rtol * np.abs(ref).max()
    for k, leaf in leaves.items():
        g = grads[leaf.nid]
        assert g.dtype == dtype and g.shape == w[k].shape, k
        assert np.abs(g - ref_grads[k]).max() <= rtol * np.abs(ref_grads[k]).max(), k


def test_plain_forward_keeps_no_backward():
    # a plain pass frees each op's activations once the next op has run; a
    # taped one keeps them all for the backward
    cfg = vit.VitConfig()
    w = vit.init_weights(cfg, rng_stream(2, 0))
    masks = (RNG.uniform(size=(8, 2, 64, 64)) > 0.5).astype(float)
    theta = RNG.normal(size=(8, 10))
    tape = ad.Tape()
    leaves = {k: ad.leaf(tape, v) for k, v in w.items()}

    def peak(weights):
        tracemalloc.start()
        try:
            vit.forward(cfg, weights, masks, theta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(w) < peak(leaves) / 4


@pytest.mark.parametrize("shape", [(1, 9), (2, 10), (10,), (1, 1, 10)])
def test_forward_rejects_wrong_theta_shape(shape):
    w = vit.init_weights(SMALL_VIT, rng_stream(1, 0))
    with pytest.raises(ad.ShapeMismatch, match="vit-forward"):
        vit.forward(SMALL_VIT, w, np.zeros((1, 2, 16, 16)), np.zeros(shape))


@pytest.mark.parametrize("name, bad", [
    ("image_size", 64.0), ("layers", 2.5), ("heads", True), ("embed_dim", 0),
    ("patch_size", "8"), ("mlp_ratio", -4), ("config_dim", np.float64(10.0)),
    ("head_widths", (128,)), ("head_widths", (128, 64, 32)), ("head_widths", (128, 0)),
    ("head_widths", (128, 64.0)), ("head_widths", (True, 64)), ("head_widths", 128),
])
def test_vit_config_rejects_bad_field(name, bad):
    with pytest.raises(ValueError, match=name):
        vit.VitConfig(**{name: bad})


def test_forward_rejects_wrong_mask_size():
    cfg = vit.VitConfig(image_size=32, patch_size=8, embed_dim=32, heads=2, layers=2)
    w = vit.init_weights(cfg, rng_stream(1, 0))
    with pytest.raises(ad.ShapeMismatch):
        vit.forward(cfg, w, np.zeros((1, 2, 64, 64)), np.zeros((1, 10)))


def test_attention_permutation_invariance_with_zero_positional():
    cfg = vit.VitConfig(image_size=32, patch_size=8, embed_dim=32, heads=2, layers=2)
    w = vit.init_weights(cfg, rng_stream(3, 0))
    w["pos_embed"] = np.zeros_like(w["pos_embed"])
    masks = (RNG.uniform(size=(1, 2, 32, 32)) > 0.5).astype(float)
    theta = RNG.normal(size=(1, 10))
    base = vit.forward(cfg, w, masks, theta)

    # permute 8x8 patch blocks of the image: identical token multiset
    perm = np.random.default_rng(9).permutation(16)
    blocks = masks.reshape(1, 2, 4, 8, 4, 8).transpose(0, 2, 4, 1, 3, 5).reshape(1, 16, 2, 8, 8)
    blocks = blocks[:, perm]
    shuffled = blocks.reshape(1, 4, 4, 2, 8, 8).transpose(0, 3, 1, 4, 2, 5).reshape(1, 2, 32, 32)
    out = vit.forward(cfg, w, shuffled, theta)
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_weight_init_zero_head_gives_identity_correction(chain, k_scale):
    cfg = vit.VitConfig()
    w = vit.init_weights(cfg, rng_stream(7, 0))
    masks = (RNG.uniform(size=(2, 2, 64, 64)) > 0.5).astype(float)
    theta = np.zeros((2, 10))
    theta[:, 6:10] = 0.3
    raw = vit.forward(cfg, w, masks, theta / np.maximum(k_scale, 1e-9))
    np.testing.assert_array_equal(raw, 0.0)
    out = corrector.apply_correction(raw, theta, k_scale, chain)
    np.testing.assert_allclose(out, theta, atol=1e-12)


def test_weights_file_round_trip(tmp_path):
    cfg = vit.VitConfig(image_size=32, patch_size=8, embed_dim=32, heads=2, layers=2)
    w = vit.init_weights(cfg, rng_stream(11, 0))
    model = corrector.CorrectorModel(cfg, w, np.linspace(0.1, 1.0, 10), "centered",
                                     alpha=0.25, beta=0.05, gamma=500.0)
    path = tmp_path / "m.npz"
    model.save(path)
    back = corrector.CorrectorModel.load(path)
    assert back.config == cfg
    assert back.squash == "centered"
    assert (back.alpha, back.beta, back.gamma) == (0.25, 0.05, 500.0)
    np.testing.assert_array_equal(back.k, model.k)
    assert set(back.weights) == set(w)
    for name in w:
        assert back.weights[name].dtype == np.float64
        np.testing.assert_array_equal(back.weights[name], w[name])


def test_reloaded_model_infers_bit_identically(tiny_store, tmp_path):
    # a trained head3.w (non-zero) reaches the output; float32 rounding of
    # the stored weights would show in the corrections
    cfg = vit.VitConfig()
    w = vit.init_weights(cfg, rng_stream(12, 0))
    w["head3.w"] = rng_stream(12, 1).normal(0.0, 0.3, w["head3.w"].shape)
    model = corrector.CorrectorModel(cfg, w, corrector.default_scale(tiny_store.scene.chain),
                                     "centered", alpha=0.25, beta=0.05, gamma=500.0)
    path = tmp_path / "model.npz"
    model.save(path)
    idx = np.arange(16)
    np.testing.assert_array_equal(
        corrector.infer(corrector.CorrectorModel.load(path), tiny_store, idx),
        corrector.infer(model, tiny_store, idx))


def test_load_weights_rejects_garbage(tmp_path):
    p = tmp_path / "bad.npz"
    p.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        corrector.CorrectorModel.load(p)


# --------------------------------------------------- the correction node

def _correction_case(chain, k_scale, case):
    """Two frames of noisy vectors and raw outputs, and a squashing mode, for
    one row of the correction node's checks."""
    rng = np.random.default_rng(8)
    theta = np.zeros((2, 10))
    theta[:, :6] = rng.normal(size=(2, 6)) * 0.1
    theta[:, 6:10] = (chain.lower_limits[3:7] + chain.upper_limits[3:7]) / 2
    raw = rng.normal(size=(2, 10))
    if case == "saturated":
        raw[0, [1, 4, 7]] = (50.0, -50.0, 50.0)
    if case == "joint-clamped":
        # beyond the limit by more than any correction: clipped at every probe
        theta[1, 8] = chain.upper_limits[5] + 2.0 * k_scale[8]
    return theta, raw, "literal" if case == "literal" else "centered"


@pytest.mark.parametrize("case", ["interior", "saturated", "joint-clamped", "literal"])
def test_correction_gradient_matches_finite_differences(chain, k_scale, case):
    theta, raw0, squash = _correction_case(chain, k_scale, case)
    w = np.random.default_rng(9).normal(size=(2, 10))

    def f(raw):
        return weighted_sum(corrector.apply_correction(raw, theta, k_scale, chain, squash), w)

    rep = finite_diff_check(f, raw0, epsilon=1e-6, tolerance=1e-6)
    assert rep.passed, rep
    plain = corrector.apply_correction(raw0, theta, k_scale, chain, squash)
    if case == "saturated":
        np.testing.assert_array_equal(rep.analytic[0, [1, 4, 7]], 0.0)
    if case == "joint-clamped":
        assert plain[1, 8] == chain.upper_limits[5]
        assert rep.analytic[1, 8] == 0.0
    assert np.count_nonzero(rep.analytic) == {"saturated": 17, "joint-clamped": 19}.get(case, 20)
    # one node, whose value is the plain one to the bit
    tape = ad.Tape()
    out = corrector.apply_correction(ad.leaf(tape, raw0), theta, k_scale, chain, squash)
    assert len(tape) == 2
    np.testing.assert_array_equal(out.value, plain)


# --------------------------------------------------------- the loss node

def loss_parts(render=None, keypoints=None, joints=None, weights=(1.0, 1.0, 1.0)):
    """``weighted_loss`` of one frame: each given term is a (prediction,
    reference) pair, an omitted one is zero. Returns (total, parts)."""
    s, m = render if render is not None else (np.zeros((1, 1)),) * 2
    p, r = keypoints if keypoints is not None else (np.zeros((6, 2)),) * 2
    j, jr = joints if joints is not None else (np.zeros(4),) * 2
    theta = np.concatenate([np.zeros(6), j])
    total, parts = corrector.weighted_loss(s[None], p[None], theta[None], m[None], r[None],
                                           jr[None], *weights)
    return total, {name: part[0] for name, part in parts.items()}


def test_loss_render_examples():
    z = np.zeros((64, 64))
    assert loss_parts(render=(z, z))[1]["render"] == 0.0
    assert loss_parts(render=(np.ones((64, 64)), z))[1]["render"] == 4096.0


def test_loss_render_matches_double_loop_oracle():
    a, b = RNG.uniform(size=(16, 16)), RNG.uniform(size=(16, 16))
    expect = 0.0
    for i in range(16):
        for j in range(16):
            expect += (a[i, j] - b[i, j]) ** 2
    np.testing.assert_allclose(loss_parts(render=(a, b))[1]["render"], expect, atol=1e-12)


def test_loss_keypoints_examples_and_oracle():
    p = RNG.uniform(0, 64, size=(6, 2))
    assert loss_parts(keypoints=(p, p))[1]["keypoints"] == 0.0
    q = p.copy()
    q[2] += (3.0, 4.0)
    np.testing.assert_allclose(loss_parts(keypoints=(q, p))[1]["keypoints"], 25.0, atol=1e-12)
    r = RNG.uniform(-10, 74, size=(6, 2))  # negative/off-image participate normally
    expect = sum((r[i, 0] - p[i, 0]) ** 2 + (r[i, 1] - p[i, 1]) ** 2 for i in range(6))
    np.testing.assert_allclose(loss_parts(keypoints=(r, p))[1]["keypoints"], expect,
                               atol=1e-12)


def test_loss_joint_examples_and_oracle():
    a = np.array([0.4, 0.1, -0.2, 0.5])
    assert loss_parts(joints=(a, a))[1]["joints"] == 0.0
    np.testing.assert_allclose(loss_parts(joints=(a + [0.1, 0, 0, 0], a))[1]["joints"], 0.01,
                               atol=1e-15)
    b = RNG.normal(size=4)
    expect = sum((a[i] - b[i]) ** 2 for i in range(4))
    np.testing.assert_allclose(loss_parts(joints=(a, b))[1]["joints"], expect, atol=1e-12)


def test_loss_total_weighting():
    # parts 3, 5 and 7
    terms = dict(render=(np.ones((1, 3)), np.zeros((1, 3))),
                 keypoints=(np.array([[1.0, 2.0]] + [[0.0, 0.0]] * 5), np.zeros((6, 2))),
                 joints=(np.array([1.0, 1.0, 1.0, 2.0]), np.zeros(4)))
    assert loss_parts(**terms)[1] == {"render": 3.0, "keypoints": 5.0, "joints": 7.0}
    assert loss_parts(**terms, weights=(0, 0, 0))[0] == 0.0
    assert loss_parts(**terms, weights=(1, 1, 1))[0] == 15.0
    np.testing.assert_allclose(loss_parts(**terms, weights=(2, 0.5, 10))[0], 78.5)


def _loss_case():
    """Three frames of predictions (silhouettes, keypoints, theta) and
    their references."""
    rng = np.random.default_rng(10)
    preds = [rng.uniform(size=(3, 4, 5)), rng.uniform(0, 64, (3, 6, 2)),
             rng.normal(size=(3, 10))]
    refs = ((rng.uniform(size=(3, 4, 5)) > 0.5).astype(np.uint8),
            rng.uniform(0, 64, (3, 6, 2)), rng.normal(size=(3, 4)))
    return preds, refs


@pytest.mark.parametrize("gamma", [500.0, 0.0])
def test_loss_gradient_matches_finite_differences(gamma):
    # each prediction in turn is the one input, the other two plain
    preds, refs = _loss_case()
    reports = []
    for i, x0 in enumerate(preds):
        def f(x, i=i):
            args = preds[:i] + [x] + preds[i + 1:]
            return corrector.weighted_loss(*args, *refs, 0.3, 0.05, gamma)[0]

        rep = finite_diff_check(f, x0, epsilon=1e-5, tolerance=1e-6)
        assert rep.passed, (i, rep)
        reports.append(rep)
    joints = reports[2].analytic
    np.testing.assert_array_equal(joints[:, :6], 0.0)
    assert (np.count_nonzero(joints) == 0) == (gamma == 0.0)


def test_loss_node_taped_value_is_plain_value():
    preds0, refs = _loss_case()
    plain, plain_parts = corrector.weighted_loss(*preds0, *refs, 0.3, 0.05, 500.0)
    tape = ad.Tape()
    preds = [ad.leaf(tape, p) for p in preds0]
    taped, taped_parts = corrector.weighted_loss(*preds, *refs, 0.3, 0.05, 500.0)
    assert len(tape) == len(preds) + 1
    assert taped.value == plain
    for name, part in plain_parts.items():
        np.testing.assert_array_equal(taped_parts[name], part)
    # with plain keypoints and theta, the silhouette is the node's one parent
    taped, _ = corrector.weighted_loss(preds[0], preds0[1], preds0[2],
                                       *refs, 0.3, 0.05, 500.0)
    assert taped.value == plain
    grads = ad.backward(taped)
    assert list(grads) == [preds[0].nid]
    np.testing.assert_allclose(grads[preds[0].nid], 2 * 0.3 * (preds0[0] - refs[0]) / 3,
                               rtol=1e-15)


def test_loss_reads_the_last_keypoint_rows_of_the_points():
    # the keypoints ride at the end of the projected point array: the loss
    # and its gradient equal those of the keypoint slice, and the rows
    # before it get exactly 0
    preds, refs = _loss_case()
    rows = np.random.default_rng(11).uniform(0, 64, (3, 40, 2))
    points = np.concatenate([rows, preds[1]], axis=1)
    outs = []
    for p in (points, preds[1]):
        tape = ad.Tape()
        leaf = ad.leaf(tape, p)
        total, parts = corrector.weighted_loss(preds[0], leaf, preds[2], *refs,
                                               0.3, 0.05, 500.0)
        outs.append((total.value, parts, ad.backward(total)[leaf.nid]))
    (total, parts, grad), (total_k, parts_k, grad_k) = outs
    assert total == total_k and np.count_nonzero(grad_k)
    for name, part in parts_k.items():
        np.testing.assert_array_equal(parts[name], part)
    np.testing.assert_array_equal(grad[:, 40:], grad_k)
    np.testing.assert_array_equal(grad[:, :40], 0.0)


def test_loss_rejects_fewer_points_than_keypoints():
    preds, refs = _loss_case()
    for rows in (0, 1, 5):
        with pytest.raises(ad.ShapeMismatch, match=re.escape(f"(3, {rows}, 2) vs (3, 6, 2)")):
            corrector.weighted_loss(preds[0], preds[1][:, :rows], preds[2], *refs,
                                    0.3, 0.05, 500.0)


# ------------------------------------------------- corrected-render pipeline

def truth_theta(store, i):
    pose, _ = se3.transform_to_euler(store.base_true)
    return np.concatenate([pose, store.q_true_full[i, corrector.VISIBLE_SLICE]])


def test_render_corrected_at_truth_matches_reference(tiny_store):
    # soft > 0.5 is the hard inside test at any temperature, so this checks
    # the pose path, not the soft blur level
    store = tiny_store
    i = 7
    theta = truth_theta(store, i)[None]
    points, depth = scene.project_theta(store.scene, theta, store.q_true_full[i][None, :3])
    s_hat = scene.render_points(store.scene, points, depth, "soft")
    soft_bin = s_hat[0] > 0.5
    ref = store.masks_ref[i] > 0.5
    iou = np.logical_and(soft_bin, ref).sum() / np.logical_or(soft_bin, ref).sum()
    assert iou > 0.95
    np.testing.assert_allclose(points[0, -6:], store.keypoints[i], atol=0.5)


def test_zero_correction_renders_noisy_config(tiny_store):
    store = tiny_store
    i = 11
    out = corrector.apply_correction(np.zeros((1, 10)), store.theta_noisy[i][None],
                                     corrector.default_scale(store.scene.chain),
                                     store.scene.chain)
    xy, depth = scene.project_theta(store.scene, out, store.q_noisy_full[i, :3][None])
    s_hat = scene.render_points(store.scene, xy, depth, "soft")
    rot = store.scene.base  # recompute directly from the noisy parametrization
    from silgrad.scene import render_masks
    e = store.theta_noisy[i]
    r = se3.euler_to_matrix(e[:3])[None]
    q = np.concatenate([store.q_noisy_full[i, :3], store.theta_noisy[i, 6:10]])[None]
    direct = render_masks(store.scene, r, e[3:6][None], q, "soft")
    np.testing.assert_allclose(s_hat, direct, atol=1e-12)


@pytest.mark.parametrize("render", ["render_corrected", "render_truth"])
def test_one_forward_kinematics_pass_per_render(monkeypatch, tiny_store, render):
    store = tiny_store
    calls = []
    fk = kinematics.forward_kinematics
    monkeypatch.setattr(kinematics, "forward_kinematics",
                        lambda *args: calls.append(1) or fk(*args))
    if render == "render_corrected":
        tape = ad.Tape()
        theta = ad.leaf(tape, store.theta_noisy[:3])
        alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
        corrector.pose_loss(store.scene, theta, store.q_noisy_full[:3, :3],
                            store.masks_ref[:3], store.keypoints[:3],
                            store.q_true_full[:3, corrector.VISIBLE_SLICE], alpha, beta, gamma)
    else:
        synth.render_truth(store.scene, store.base_true, store.q_true_full[:3])
    assert len(calls) == 1


def test_loss_gradients_flow_to_raw_outputs(tiny_store):
    store = tiny_store
    alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
    k = corrector.default_scale(store.scene.chain)
    f = frame_loss_of_raw(store, 3, alpha, beta, gamma, k)
    tape = ad.Tape()
    raw = ad.leaf(tape, np.zeros((1, 10)))
    loss = f(raw)
    grads = ad.backward(loss)
    g = grads[raw.nid]
    assert np.all(np.isfinite(g))
    assert np.count_nonzero(g) == 10


def test_end_to_end_gradcheck_five_frames(tiny_store):
    store = tiny_store
    alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
    k = corrector.default_scale(store.scene.chain)
    rng = np.random.default_rng(21)
    frames = rng.choice(len(store), size=5, replace=False)
    for i in frames:
        f = frame_loss_of_raw(store, int(i), alpha, beta, gamma, k)
        rep = finite_diff_check(f, rng.normal(size=(1, 10)) * 0.3,
                                epsilon=1e-4, tolerance=1e-3)
        assert rep.passed, (i, rep)


# ----------------------------------------------------------------- training

def test_tape_nodes_per_step(monkeypatch, tiny_store):
    # pinned: a change that grows the tape updates these counts on purpose.
    # A default-ViT batch_loss step is 60 weight leaves, the ViT's one node,
    # then the correction, the pose geometry, the soft raster and the loss.
    # A baseline gradient is its leaf and the last three.
    store = tiny_store
    cfg = vit.VitConfig()
    weights = vit.init_weights(cfg, rng_stream(0, 0))
    alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
    tape = ad.Tape()
    leaves = {name: ad.leaf(tape, w.astype(np.float32)) for name, w in weights.items()}
    total, _ = corrector.batch_loss(cfg, leaves, store, np.arange(10),
                                    corrector.default_scale(store.scene.chain),
                                    alpha, beta, gamma, "centered")
    assert (len(leaves), len(tape)) == (60, 65)
    assert total.nid == len(tape) - 1

    sizes = []
    backward = ad.backward
    monkeypatch.setattr(ad, "backward",
                        lambda loss: sizes.append(len(loss.tape)) or backward(loss))
    baseline._loss_and_grad(store.scene, store.theta_noisy[0], store.q_noisy_full[0, :3],
                            store.masks_ref[0].astype(float), store.keypoints[0], alpha, beta)
    assert sizes == [4]


SMALL_TRAIN_VIT = vit.VitConfig(image_size=64, patch_size=16, embed_dim=32, heads=2, layers=1)


def small_cfg(**kw):
    base = dict(epochs=1, batch_size=10, lr=1e-4, seed=5, vit_config=SMALL_TRAIN_VIT)
    base.update(kw)
    return corrector.TrainConfig(**base)


@pytest.mark.parametrize("name, bad", [
    ("lr", np.nan), ("lr", np.inf), ("lr", -1e-4), ("epochs", 0), ("batch_size", 0),
    ("patience", 0), ("batch_size", 2.5),
    ("epochs", 2.0), ("epochs", True), ("weight_decay", -1e-4),
    ("weight_decay", np.inf), ("beta", np.nan), ("beta", -0.05), ("gamma", -500.0),
    ("gamma", np.inf), ("squash", "tanh"), ("lr", True), ("lr", "1e-4"),
    ("weight_decay", None), pytest.param("beta", np.True_, id="beta-bad21"), ("gamma", "500"),
    ("seed", "x"), ("seed", 1.5), ("seed", True),
    pytest.param("vit_config", {"image_size": 64}, id="vit_config-dict"), ("vit_config", None),
])
def test_train_config_rejects_bad_field(name, bad):
    with pytest.raises(ValueError, match=name):
        corrector.TrainConfig(**{name: bad})


def test_adam_step_is_the_written_out_update_and_keeps_its_inputs():
    rng = np.random.default_rng(8)
    w0 = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    zeros = {n: np.zeros_like(w) for n, w in w0.items()}
    # m and v start as the same arrays, as shallow copies of one dict would
    weights, state = dict(w0), corrector.AdamState(m=dict(zeros), v=dict(zeros))
    lr, wd, b1, b2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
    want_w, want_m, want_v = dict(w0), dict(zeros), dict(zeros)
    for t in range(1, 4):
        grads = {n: rng.normal(size=w.shape) for n, w in w0.items()}
        passed = [*weights.values(), *state.m.values(), *state.v.values(), *grads.values()]
        copies = [a.copy() for a in passed]
        corrector.adam_step(weights, grads, state, lr, wd)
        for a, copy in zip(passed, copies):
            np.testing.assert_array_equal(a, copy)
        for n in w0:
            g = grads[n] + wd * want_w[n]
            want_m[n] = b1 * want_m[n] + (1 - b1) * g
            want_v[n] = b2 * want_v[n] + (1 - b2) * g * g
            m_hat = want_m[n] / (1 - b1 ** t)
            v_hat = want_v[n] / (1 - b2 ** t)
            want_w[n] = want_w[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in ((weights, want_w), (state.m, want_m), (state.v, want_v)):
                assert np.array_equal(got[n], want[n]), (t, n)
    assert state.t == 3


def test_evaluate_loss_is_the_frame_weighted_mean_of_batch_losses(tiny_store):
    store, cfg = tiny_store, SMALL_TRAIN_VIT
    n = corrector._EVAL_BATCH + 8  # one full batch and one of 8 frames
    assert len(store) >= n
    rng = rng_stream(9, 0)
    w = {k: v + rng.normal(0.0, 0.05, v.shape) for k, v in vit.init_weights(cfg, rng).items()}
    k = corrector.default_scale(store.scene.chain)
    alpha, beta, gamma = corrector.default_loss_weights(store.scene.camera)
    model = corrector.CorrectorModel(cfg, w, k, "centered", alpha, beta, gamma)
    idx = rng.permutation(len(store))[:n]
    got = corrector.evaluate_loss(model, store, idx)

    want, means = dict.fromkeys(got, 0.0), []
    for sel in (idx[:corrector._EVAL_BATCH], idx[corrector._EVAL_BATCH:]):
        total, parts = corrector.batch_loss(cfg, w, store, sel, k, alpha, beta, gamma,
                                            "centered")
        means.append(float(total))
        for key, value in {"total": float(total), **parts}.items():
            want[key] += value * len(sel) / n
    assert got == pytest.approx(want, rel=1e-12)
    # the batches' plain mean is another number: the weights are tested
    assert abs(np.mean(means) - got["total"]) > 1e-6 * got["total"]


def test_train_frees_each_step_before_the_next(tiny_train, tiny_val, tiny_store):
    # one step's tape holds the whole ViT node; a train() call that keeps the
    # last step's tape through the next forward pass peaks near two steps
    # (1.74 here), one that frees it near one step plus its stores (1.15)
    cfg = corrector.TrainConfig(epochs=1, batch_size=10, seed=5)
    w = vit.init_weights(cfg.vit_config, rng_stream(5, 0))
    state = corrector.AdamState(m={n: np.zeros_like(v) for n, v in w.items()},
                                v={n: np.zeros_like(v) for n, v in w.items()})
    k = corrector.default_scale(tiny_store.scene.chain)
    alpha = corrector.default_loss_weights(tiny_store.scene.camera)[0]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def step():
        tape = ad.Tape()
        dvs = {n: ad.leaf(tape, v.astype(np.float32)) for n, v in w.items()}
        total, _ = corrector.batch_loss(cfg.vit_config, dvs, tiny_store, np.arange(10), k,
                                        alpha, cfg.beta, cfg.gamma, cfg.squash)
        grads = ad.backward(total)
        corrector.adam_step(w, {n: grads[dv.nid].astype(np.float64) for n, dv in dvs.items()},
                            state, cfg.lr, cfg.weight_decay)

    assert len(tiny_store) >= 3 * cfg.batch_size
    one_step = peak(step)
    whole = peak(lambda: corrector.train(tiny_train, tiny_val, cfg, log_fn=None))
    assert whole < 1.4 * one_step, (whole, one_step)


def test_zero_lr_keeps_weights(tiny_train, tiny_val):
    model, _ = corrector.train(tiny_train, tiny_val, small_cfg(lr=0.0), log_fn=None)
    fresh = vit.init_weights(model.config, rng_stream(5, corrector._TRAIN_STREAM))
    for name in fresh:
        np.testing.assert_array_equal(model.weights[name], fresh[name])


def test_train_rejects_image_size_other_than_camera(monkeypatch, tiny_train, tiny_val):
    def no_store(*args, **kw):
        raise AssertionError("frame store built before the size check")

    monkeypatch.setattr(corrector, "build_frame_store", no_store)
    cfg = small_cfg(vit_config=vit.VitConfig(image_size=128, patch_size=16,
                                             embed_dim=32, heads=2, layers=1))
    with pytest.raises(ValueError, match=re.escape(str(tiny_train.root))):
        corrector.train(tiny_train, tiny_val, cfg, log_fn=None)


def test_training_deterministic_same_seed(tiny_train, tiny_val):
    _, log_a = corrector.train(tiny_train, tiny_val, small_cfg(), log_fn=None)
    _, log_b = corrector.train(tiny_train, tiny_val, small_cfg(), log_fn=None)
    assert log_a[0]["train"]["total"] == log_b[0]["train"]["total"]
    assert log_a[0]["val"]["total"] == log_b[0]["val"]["total"]


def test_training_log_is_a_mean_over_frames(tiny_train, tiny_val, tiny_store):
    # with lr = 0 the zero-initialised head corrects nothing, so the logged
    # train loss is the loss of the noisy frames; 120 frames in batches of 7
    # end with a batch of 1, which a mean of batch means would over-weight
    cfg = corrector.TrainConfig(epochs=1, lr=0.0, weight_decay=0.0, batch_size=7, seed=3)
    model, log = corrector.train(tiny_train, tiny_val, cfg, log_fn=None)
    assert len(tiny_store) % cfg.batch_size == 1
    want = corrector.evaluate_loss(model, tiny_store, np.arange(len(tiny_store)))
    assert log[0]["train"].keys() == want.keys()
    assert log[0]["train"]["total"] == pytest.approx(want["total"], rel=1e-12)


def test_training_decreases_loss_and_saves_checkpoints(tiny_train, tiny_val, tmp_path):
    cfg = small_cfg(epochs=4, lr=3e-4)
    model, log = corrector.train(tiny_train, tiny_val, cfg, out_dir=tmp_path, log_fn=None)
    assert (tmp_path / "model.npz").exists()
    assert (tmp_path / "checkpoint.npz").exists()
    assert log[-1]["train"]["total"] < log[0]["train"]["total"]


def test_infer_is_finite_and_single_pass(tiny_train, tiny_val, tiny_store):
    model, _ = corrector.train(tiny_train, tiny_val, small_cfg(), log_fn=None)
    theta = corrector.infer(model, tiny_store, np.arange(16))
    assert theta.shape == (16, 10)
    assert np.all(np.isfinite(theta))


def test_frame_store_rejects_trajectories_with_different_true_bases(tmp_path, scene64):
    # the store keeps one true base; a second trajectory's, 10 mm off, would
    # have its errors scored against the first one's
    ds = synth.generate_dataset(tmp_path, "t", 2, 0.1, 3, scene=scene64,
                                frames_per_trajectory=2)
    rec = ds.load_trajectory(1)
    base = rec.base_true
    rec.base_true = se3.RigidTransform(base.rotation, base.translation + [0.01, 0.0, 0.0])
    synth.write_trajectory(ds.trajectory_path(1), rec)
    with pytest.raises(ValueError, match=re.escape(str(ds.trajectory_path(1)))):
        corrector.build_frame_store(ds)
