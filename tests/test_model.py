"""Model tests: factorized forward, gradients, training, circuits, checkpoints."""

import dataclasses
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnkit import statevec
from qnnkit.arch import (
    ArchitectureError,
    ArchitectureSpec,
    LayerSpec,
    from_kinds,
    load_architecture,
)
from qnnkit.encoding import normalize_rows
from qnnkit.model import (
    ResourceLimitError,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    backward_batch,
    build_network_circuit,
    circuit_inference,
    circuit_inference_batch,
    forward,
    forward_batch,
    init_parameters,
    load_checkpoint,
    loss_batch,
    pipeline,
    save_checkpoint,
    train,
)
from qnnkit.neurons import u_forward_batch, v_stage_forward
from qnnkit.statevec import Gate, StateVector

NETS = Path(__file__).resolve().parent.parent / "nets"


def small_random_archs():
    """A grab bag of trainable architectures for property sweeps."""
    return [
        from_kinds(4, 2, "v"),
        from_kinds(8, 2, "v", repeat=2),
        from_kinds(4, 2, "vu"),
        from_kinds(8, 3, "vun", repeat=2),
        from_kinds(4, 2, "vunp", hidden=3),
        from_kinds(8, 2, "vunp", repeat=2),
        from_kinds(4, 2, "vp"),
        from_kinds(8, 3, "vnp"),
        from_kinds(4, 2, "u"),
        from_kinds(8, 3, "un"),
    ]


def real_param_views(params):
    """The real-valued (non-latent) parameter arrays."""
    return [params.v_thetas] + list(params.n_thetas)


def grad_views(grads):
    return [grads.v_thetas] + list(grads.n_thetas)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_identity_network_keeps_ground_state_probabilities():
    arch = from_kinds(4, 2, "v")
    params = init_parameters(arch, seed=0)
    params.v_thetas[:] = 0.0
    trace = forward(arch, params, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(trace.probs, [[0.0, 0.0]], atol=1e-15)


def test_uniform_input_saturates_all_plus_u_layer():
    arch = from_kinds(4, 2, "vu")
    params = init_parameters(arch, seed=0)
    params.v_thetas[:] = 0.0
    params.uw_latent[:] = 1.0
    trace = forward(arch, params, [0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(trace.probs, [[1.0, 1.0]], atol=1e-12)


def test_probability_stage_outputs_stay_in_range():
    rng = np.random.default_rng(31)
    for arch in small_random_archs():
        params = init_parameters(arch, seed=5)
        X = rng.uniform(0, 1, size=(8, arch.input_dim))
        trace = forward_batch(arch, params, X)
        assert np.all(trace.probs >= -1e-12)
        assert np.all(trace.probs <= 1 + 1e-12)
        for stage in trace.stages:
            assert np.all(stage["output"] >= -1e-12)
            assert np.all(stage["output"] <= 1 + 1e-12)
        # amplitude stage keeps unit norm
        np.testing.assert_allclose(
            np.linalg.norm(trace.stages[0]["input"], axis=1), 1.0, atol=1e-10
        )


def test_forward_rejects_wrong_input_dim():
    arch = from_kinds(4, 2, "v")
    with pytest.raises(ValueError, match="input dim"):
        forward(arch, init_parameters(arch), [1.0, 0.0])


def test_forward_batch_takes_only_a_batch():
    # one sample goes through forward, which makes it a batch of one
    arch = from_kinds(4, 2, "v")
    with pytest.raises(ValueError, match="expected a 2-D input"):
        forward_batch(arch, init_parameters(arch), np.ones(4))


def bad_inputs():
    """(name, an input that mnist2-vu takes as one sample, the error) of each bad-input case."""
    x = np.linspace(0.1, 1.0, 16)
    for width in (9, 10):
        yield str(width), x[:width], f"^expected input dim 16, got {width}$"
    # forward_batch sees a batch of this sample, of shape (1, 1, 16)
    yield "2d", x[None], r"^expected a [12]-D input, got shape \((1, )+16\)$"
    for name, value in (("nan", np.nan), ("inf", np.inf)):
        row = np.where(np.arange(16) == 3, value, x)
        yield name, row, "^cannot amplitude-encode an all-zero or non-finite input row$"


def forward_batch_of_one(arch, params, x):
    return forward_batch(arch, params, x[None])


@pytest.mark.parametrize("case", [pytest.param(c, id=c[0]) for c in bad_inputs()])
@pytest.mark.parametrize(
    "walker", [forward, forward_batch_of_one, circuit_inference, build_network_circuit]
)
def test_trainer_and_oracle_reject_a_short_input_alike(walker, case):
    # the oracle would otherwise check another input than the trainer, or none
    arch = load_architecture(NETS / "mnist2-vu.arch")
    _, x, message = case
    with pytest.raises(ValueError, match=message):
        walker(arch, init_parameters(arch, seed=0), x)


@pytest.mark.parametrize("shape", [(1, 6), (2, 6)], ids=["1x6", "2x6"])
def test_the_v_stage_refuses_angles_of_the_wrong_shape(shape):
    # a 4-qubit V block takes 8 angles: the stage itself refuses 6, and the
    # trainer and the oracle refuse the store alike, before any stage runs
    arch = load_architecture(NETS / "mnist2-vu.arch")
    params = dataclasses.replace(init_parameters(arch, seed=0), v_thetas=np.zeros(shape))
    x = np.full(16, 0.25)
    with pytest.raises(ValueError, match="^V block on 4 qubits needs 8 angles, got "):
        v_stage_forward(x[None], params.v_thetas)
    for call in (lambda: forward(arch, params, x), lambda: circuit_inference(arch, params, x)):
        with pytest.raises(ValueError, match=rf"^parameter shapes \(\({shape[0]}, 6\), .* do not fit "):
            call()


def misfit_stores():
    """(arch, params) pairs whose store does not fit its arch: one per group,
    and a u latent on a u-less net."""
    mixed = load_architecture(NETS / "mixed.arch")
    params = init_parameters(mixed, seed=0)
    yield pytest.param(mixed, dataclasses.replace(params, v_thetas=np.zeros((2, 6))), id="v")
    yield pytest.param(mixed, dataclasses.replace(params, uw_latent=np.ones((2, 16))), id="u")
    yield pytest.param(mixed, dataclasses.replace(params, n_thetas=[np.zeros(1)]), id="n")
    yield pytest.param(mixed, dataclasses.replace(params, n_thetas=[]), id="n-missing")
    yield pytest.param(mixed, dataclasses.replace(params, pw_latent=[np.ones((2, 1))]), id="p")
    vnp = from_kinds(16, 2, "vnp")
    extra_u = dataclasses.replace(init_parameters(vnp, seed=0), uw_latent=np.ones((2, 16)))
    yield pytest.param(vnp, extra_u, id="u-less")


@pytest.mark.parametrize("arch, params", misfit_stores())
def test_every_walker_refuses_a_store_that_does_not_fit_its_arch(tmp_path, arch, params):
    # one shape check: the trainer, the oracle, the circuit builder and both
    # checkpoint functions raise the same error, and a refused save writes
    # nothing; a u latent on a u-less net is no "None". The oracle's memo
    # key holds every shape, so a misfit store always misses it
    x = np.full(arch.input_dim, 0.25)
    message = rf"^parameter shapes .* do not fit {re.escape(arch.name)}, which needs "
    path = tmp_path / "misfit.json"
    for call in (
        lambda: forward(arch, params, x),
        lambda: forward_batch(arch, params, x[None]),
        lambda: circuit_inference(arch, params, x),
        lambda: circuit_inference_batch(arch, params, x[None]),
        lambda: build_network_circuit(arch, params, x),
        lambda: save_checkpoint(path, arch, params),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert not path.exists()
    path.write_text(_checkpoint_text(arch, params), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_uniform_outputs_give_log_num_classes():
    probs = np.full((3, 4), 0.25)
    assert loss_batch(probs, [0, 1, 3]) == pytest.approx(math.log(4), abs=1e-12)


def test_one_hot_output_is_argmin_over_labels():
    probs = np.array([[0.0, 1.0, 0.0]])
    losses = [loss_batch(probs, [c]) for c in range(3)]
    assert np.argmin(losses) == 1


def test_loss_is_finite_on_the_cube():
    rng = np.random.default_rng(33)
    probs = rng.uniform(0, 1, size=(20, 5))
    for c in range(5):
        assert math.isfinite(loss_batch(probs, [c] * 20))


def test_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        loss_batch(np.ones((1, 2)), [2])


@pytest.mark.parametrize("labels", [None, [0], [0, 1, 0, 1], [[0], [1], [0]]])
def test_loss_gradients_and_accuracy_take_one_label_per_row(labels):
    arch = from_kinds(4, 2, "vu")
    params = init_parameters(arch, seed=0)
    X = np.random.default_rng(34).uniform(0.1, 1.0, size=(3, 4))
    trace = forward_batch(arch, params, X)
    with pytest.raises(ValueError, match="one per row"):
        loss_batch(trace.probs, labels)
    with pytest.raises(ValueError, match="one per row"):
        backward_batch(arch, params, trace, labels)
    with pytest.raises(ValueError, match="one per row"):
        accuracy(arch, params, X, labels)


# (labels for 3 rows of a 2-class net, message)
BAD_LABELS = {
    "negative": ([0, 1, -1], "label out of range 0..1"),
    "too-large": ([0, 1, 2], "label out of range 0..1"),
    "fractional": ([0, 1.9, 1], "labels must be whole numbers"),
    "nan": ([0, np.nan, 1], "labels must be whole numbers"),
    "text": (["0", "1", "0"], "labels must be whole numbers"),
}


# each takes (arch, params, X, labels); train checks before its first epoch
LABEL_READERS = {
    "loss_batch": lambda a, p, X, y: loss_batch(forward_batch(a, p, X).probs, y),
    "backward_batch": lambda a, p, X, y: backward_batch(a, p, forward_batch(a, p, X), y),
    "accuracy": accuracy,
    "train": lambda a, p, X, y: train(a, p, X, y, TrainConfig(epochs=1)),
    "train-test": lambda a, p, X, y: train(a, p, X, [0, 1, 0], TrainConfig(epochs=1), X, y),
}


@pytest.mark.parametrize("reader", list(LABEL_READERS))
@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_every_label_reader_rejects_a_label_that_is_not_a_class(case, reader):
    labels, message = BAD_LABELS[case]
    arch = from_kinds(4, 2, "vu")
    X = np.random.default_rng(35).uniform(0.1, 1.0, size=(3, 4))
    with pytest.raises(ValueError, match=message):
        LABEL_READERS[reader](arch, init_parameters(arch, seed=0), X, labels)


# each gets an empty batch; numpy would only warn ("Mean of empty slice")
EMPTY_BATCHES = {
    "loss_batch": lambda a, p, X: loss_batch(np.zeros((0, 2)), []),
    "backward_batch": lambda a, p, X: backward_batch(a, p, forward_batch(a, p, X[:0]), []),
    "accuracy": lambda a, p, X: accuracy(a, p, X[:0], []),
    "train": lambda a, p, X: train(a, p, X[:0], [], TrainConfig(epochs=1)),
    "train-test": lambda a, p, X: train(a, p, X, [0, 1, 0], TrainConfig(epochs=1), X[:0], []),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader", list(EMPTY_BATCHES))
def test_every_label_reader_refuses_an_empty_batch(reader):
    arch = from_kinds(4, 2, "vu")
    X = np.random.default_rng(35).uniform(0.1, 1.0, size=(3, 4))
    with pytest.raises(ValueError, match="^empty batch$"):
        EMPTY_BATCHES[reader](arch, init_parameters(arch, seed=0), X)


def test_whole_float_and_bool_labels_read_as_ints():
    probs = np.random.default_rng(36).uniform(0, 1, size=(3, 2))
    assert loss_batch(probs, [0.0, 1.0, 1.0]) == loss_batch(probs, [0, 1, 1])
    assert loss_batch(probs, [False, True, True]) == loss_batch(probs, [0, 1, 1])


def test_training_refuses_test_images_without_their_labels():
    arch = from_kinds(4, 2, "vu")
    X = np.random.default_rng(35).uniform(0.1, 1.0, size=(4, 4))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="one per row"):
        train(arch, init_parameters(arch), X, y, TrainConfig(epochs=1), X, None)
    with pytest.raises(ValueError, match="one per row"):
        train(arch, init_parameters(arch), X, y[:3], TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_analytic_gradients_match_central_differences():
    rng = np.random.default_rng(35)
    h = 1e-5
    for arch in small_random_archs():
        params = init_parameters(arch, seed=11)
        x = rng.uniform(0.05, 1.0, size=arch.input_dim)
        label = int(rng.integers(0, arch.num_classes))

        trace = forward(arch, params, x)
        grads = backward_batch(arch, params, trace, [label])

        for p_arr, g_arr in zip(real_param_views(params), grad_views(grads)):
            flat_p = p_arr.ravel()
            flat_g = g_arr.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss_batch(forward(arch, params, x).probs, [label])
                flat_p[i] = orig - h
                down = loss_batch(forward(arch, params, x).probs, [label])
                flat_p[i] = orig
                fd = (up - down) / (2 * h)
                assert relative_error(flat_g[i], fd) < 1e-4, (
                    f"{arch.name}: grad {flat_g[i]:.3e} vs fd {fd:.3e}"
                )


def n_run_cases():
    """Nets with a run of n layers, their angles set far from the near-zero init."""
    cases = []
    for arch in (
        ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("u", 2), LayerSpec("n", 2),
                                LayerSpec("n", 2)]),
        ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("n", 2), LayerSpec("n", 2),
                                LayerSpec("n", 2)]),
    ):
        params = init_parameters(arch, seed=1)
        for i, theta in enumerate(params.n_thetas):
            theta[:] = [0.9 - 0.4 * i, -1.3 + 0.7 * i]
        cases.append(pytest.param(arch, params, id=arch.name))
    return cases


@pytest.mark.parametrize("arch, params", n_run_cases())
def test_a_run_of_n_layers_matches_the_circuit(arch, params):
    # RX(a) RX(b) = RX(a + b); composing the layers' marginal maps instead
    # is off by 0.1 to 0.2 on these nets
    rng = np.random.default_rng(37)
    for _ in range(3):
        x = rng.uniform(0.05, 1.0, size=arch.input_dim)
        np.testing.assert_allclose(
            forward(arch, params, x).probs[0], circuit_inference(arch, params, x),
            rtol=0, atol=1e-12,
        )


@pytest.mark.parametrize("arch, params", n_run_cases())
def test_a_run_of_n_layers_has_the_circuits_gradients(arch, params):
    # central differences of the loss on the circuit's outputs
    rng = np.random.default_rng(39)
    h = 1e-5
    x = rng.uniform(0.05, 1.0, size=arch.input_dim)
    label = 1
    grads = backward_batch(arch, params, forward(arch, params, x), [label])
    for p_arr, g_arr in zip(real_param_views(params), grad_views(grads)):
        for i in range(p_arr.size):
            orig = p_arr.flat[i]
            p_arr.flat[i] = orig + h
            up = loss_batch(circuit_inference(arch, params, x)[None, :], [label])
            p_arr.flat[i] = orig - h
            down = loss_batch(circuit_inference(arch, params, x)[None, :], [label])
            p_arr.flat[i] = orig
            fd = (up - down) / (2 * h)
            assert relative_error(g_arr.flat[i], fd) < 1e-4, (arch.name, g_arr.flat[i], fd)


def test_gradient_zero_at_stationary_n_theta():
    arch = from_kinds(4, 2, "vun")
    params = init_parameters(arch, seed=0)
    params.n_thetas[0][:] = 0.0  # sin(theta) factor kills the gradient here
    trace = forward(arch, params, [0.3, 0.5, 0.1, 0.7])
    grads = backward_batch(arch, params, trace, [1])
    np.testing.assert_allclose(grads.n_thetas[0], 0.0, atol=1e-15)


def test_gradients_finite_at_confident_fixed_point():
    arch = from_kinds(4, 2, "vunp", hidden=2)
    params = init_parameters(arch, seed=3)
    trace = forward(arch, params, [1.0, 0.0, 0.0, 0.0])
    grads = backward_batch(arch, params, trace, [0])
    for arr in grads.arrays():
        assert np.all(np.isfinite(arr))


def test_straight_through_flips_weights_consistently():
    # Flipping a latent's sign flips the binarized weight and moves the
    # u output exactly as the closed form says.
    arch = from_kinds(4, 2, "vu")
    params = init_parameters(arch, seed=7)
    params.v_thetas[:] = 0.0
    # zero angles leave the CX(0,1) entangler, which fixes this vector
    x = np.array([0.6, 0.8, 0.0, 0.0])
    before = forward(arch, params, x).probs[0, 0]
    w_before = params.u_weights()[0].copy()
    params.uw_latent[0, 0] *= -1
    after = forward(arch, params, x).probs[0, 0]
    w_after = params.u_weights()[0]
    assert w_after[0] == -w_before[0]
    closed_forms = u_forward_batch((x / np.linalg.norm(x))[None], np.stack([w_before, w_after]))[0]
    assert [before, after] == pytest.approx(closed_forms[0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def two_blob_dataset(rng, n=120, dim=4):
    """Linearly separable 2-class toy set for smoke training."""
    X = rng.uniform(0.05, 1.0, size=(n, dim))
    y = (X[:, 0] > X[:, 1]).astype(int)
    return X, y


def test_training_is_deterministic_given_seed():
    rng = np.random.default_rng(41)
    X, y = two_blob_dataset(rng)
    arch = from_kinds(4, 2, "vu")
    cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=9)
    p1, m1 = train(arch, init_parameters(arch, 9), X, y, cfg)
    p2, m2 = train(arch, init_parameters(arch, 9), X, y, cfg)
    assert m1 == m2
    for a, b in zip(p1.arrays(), p2.arrays()):
        np.testing.assert_array_equal(a, b)


def test_training_takes_list_images_and_labels_like_arrays():
    rng = np.random.default_rng(42)
    X, y = two_blob_dataset(rng, n=40)
    Xt, yt = two_blob_dataset(rng, n=12)
    arch = from_kinds(4, 2, "vu")
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
    p1, m1 = train(arch, init_parameters(arch, 5), X, y, cfg, Xt, yt)
    p2, m2 = train(arch, init_parameters(arch, 5), X.tolist(), y.tolist(), cfg, Xt.tolist(), yt.tolist())
    assert m1 == m2
    for a, b in zip(p1.arrays(), p2.arrays()):
        np.testing.assert_array_equal(a, b)


def test_training_improves_over_chance_on_separable_data():
    rng = np.random.default_rng(43)
    X, y = two_blob_dataset(rng, n=200)
    arch = from_kinds(4, 2, "vu", repeat=2)
    cfg = TrainConfig(epochs=15, batch_size=16, lr=0.1, seed=1)
    params, metrics = train(arch, init_parameters(arch, 1), X, y, cfg)
    assert metrics[-1]["train_accuracy"] > 0.8
    assert accuracy(arch, params, X, y) > 0.8


def test_keep_best_returns_the_best_epochs_parameters():
    rng = np.random.default_rng(47)
    X, y = two_blob_dataset(rng, n=80)
    Xt, yt = two_blob_dataset(rng, n=40)
    arch = from_kinds(4, 2, "vu")
    cfg = TrainConfig(epochs=6, batch_size=16, lr=0.5, keep_best=True, seed=3)
    # an epoch scores its test accuracy, or minus its loss without a test set;
    # here the two pick different epochs, and neither picks the last one
    for test_set, best_epoch in (((Xt, yt), 1), ((None, None), 4)):
        best, metrics = train(arch, init_parameters(arch, 3), X, y, cfg, *test_set)
        scores = [row.get("test_accuracy", -row["train_loss"]) for row in metrics]
        assert int(np.argmax(scores)) == best_epoch
        shorter = dataclasses.replace(cfg, epochs=best_epoch + 1, keep_best=False)
        at_best, _ = train(arch, init_parameters(arch, 3), X, y, shorter, *test_set)
        for a, b in zip(best.arrays(), at_best.arrays()):
            np.testing.assert_array_equal(a, b)


def test_training_refuses_infeasible_architecture():
    bad = ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("u", 3), LayerSpec("u", 2)])
    good = from_kinds(4, 2, "vu")
    with pytest.raises(ArchitectureError, match="infeasible"):
        train(bad, init_parameters(good), np.ones((4, 4)), np.zeros(4, dtype=int))


def test_training_refuses_a_one_class_net_before_the_first_epoch(monkeypatch):
    # with one class the loss is 0 and every gradient 0, whatever the parameters
    import qnnkit.model as model

    arch = from_kinds(4, 1, "vu")
    monkeypatch.setattr(model, "forward_batch", None)  # no batch may run
    with pytest.raises(ArchitectureError, match="^training needs at least 2 classes, v\\+u has 1$"):
        train(arch, init_parameters(arch), np.ones((4, 4)), np.zeros(4, dtype=int))


def test_divergence_detection_aborts_with_diagnostic():
    rng = np.random.default_rng(47)
    X, y = two_blob_dataset(rng, n=64)
    arch = from_kinds(4, 2, "vu")
    # a subnormal temperature is valid, but probs / temperature overflows
    cfg = TrainConfig(epochs=1, temperature=1e-320, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged, match="epoch 0"):
        train(arch, init_parameters(arch), X, y, cfg)


def test_train_config_cannot_be_changed_past_its_checks():
    config = TrainConfig(epochs=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.batch_size = 0


def test_empty_dataset_is_rejected():
    arch = from_kinds(4, 2, "vu")
    with pytest.raises(ValueError, match="empty"):
        train(arch, init_parameters(arch), np.zeros((0, 4)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# circuit inference
# ---------------------------------------------------------------------------


def test_v_only_circuit_matches_factorized_exactly():
    rng = np.random.default_rng(51)
    for _ in range(10):
        arch = from_kinds(8, 2, "v", repeat=int(rng.integers(1, 3)))
        params = init_parameters(arch, seed=int(rng.integers(1000)))
        x = rng.uniform(-1.0, 1.0, size=8)
        factorized = forward(arch, params, x).probs[0]
        exact = circuit_inference(arch, params, x)
        np.testing.assert_allclose(exact, factorized, atol=1e-10)


def test_single_neuron_v_u_n_chain_matches_circuit():
    rng = np.random.default_rng(53)
    for trial in range(10):
        arch = ArchitectureSpec(
            4, 1, [LayerSpec("v", 2, repeat=2), LayerSpec("u", 1), LayerSpec("n", 1)]
        )
        params = init_parameters(arch, seed=trial)
        x = rng.uniform(-1.0, 1.0, size=4)
        factorized = forward(arch, params, x).probs[0]
        exact = circuit_inference(arch, params, x)
        np.testing.assert_allclose(exact, factorized, atol=1e-9)


def test_vu_argmax_agreement_on_random_instances():
    rng = np.random.default_rng(57)
    arch = from_kinds(4, 2, "vu")
    agree = 0
    checked = 0
    trial = 0
    while checked < 100:
        params = init_parameters(arch, seed=trial)
        trial += 1
        W = params.u_weights()
        if np.array_equal(W[0], W[1]) or np.array_equal(W[0], -W[1]):
            continue  # duplicate neurons tie exactly; argmax is undefined
        x = rng.uniform(0.01, 1.0, size=4)
        factorized = forward(arch, params, x).probs[0]
        exact = circuit_inference(arch, params, x)
        agree += int(np.argmax(factorized) == np.argmax(exact))
        checked += 1
    assert agree >= 99


def test_every_compiled_qubit_is_touched_and_outputs_are_in_range():
    nets = [load_architecture(path) for path in sorted(NETS.glob("*.arch"))]
    archs = [a for a in small_random_archs() + nets if pipeline(a).compiled_qubits <= 24]
    assert len(archs) == 13  # the four 64-input nets compile to 28-60 qubits
    for arch in archs:
        params = init_parameters(arch, seed=0)
        circ = build_network_circuit(arch, params, np.linspace(0.1, 1.0, arch.input_dim))
        touched = {q for _, qubits in circ.fragment.ops for q in qubits}
        assert touched == set(range(circ.fragment.qubit_span))
        assert len(set(circ.output_qubits)) == len(circ.output_qubits) == arch.num_classes
        assert set(circ.output_qubits) <= touched


def test_each_walker_derives_the_plan_once(monkeypatch):
    from qnnkit import model

    arch = load_architecture(NETS / "mixed.arch")
    params = init_parameters(arch, seed=0)
    x = np.linspace(0.1, 1.0, arch.input_dim)
    trace = forward_batch(arch, params, x[None, :])
    calls = []
    derive = model.pipeline
    monkeypatch.setattr(model, "pipeline", lambda a: calls.append(a) or derive(a))
    walkers = {
        "forward_batch": lambda: forward_batch(arch, params, x[None, :]),
        "circuit_inference": lambda: circuit_inference(arch, params, x),
        "build_network_circuit": lambda: build_network_circuit(arch, params, x),
        "init_parameters": lambda: init_parameters(arch, seed=1),
    }
    for name, walk in walkers.items():
        calls.clear()
        walk()
        assert len(calls) == 1, name
    calls.clear()
    backward_batch(arch, params, trace, np.array([0]))
    assert calls == []


def test_equal_specs_get_an_equal_plan():
    a, b = (from_kinds(16, 2, "vunp", repeat=2, hidden=3) for _ in range(2))
    assert a is not b
    assert pipeline(a) == pipeline(b)
    assert pipeline(a) != pipeline(from_kinds(16, 2, "vunp"))


def test_plan_merges_n_runs_and_counts_qubits():
    arch = ArchitectureSpec(
        4, 2,
        [LayerSpec("v", 2, repeat=3), LayerSpec("u", 3), LayerSpec("n", 3), LayerSpec("n", 3),
         LayerSpec("p", 2), LayerSpec("n", 2), LayerSpec("p", 2)],
    )
    plan = pipeline(arch)
    assert [(s.kind, s.width, s.indices) for s in plan.stages] == [
        ("n", 3, (0, 1)), ("p", 2, (0,)), ("n", 2, (2,)), ("p", 2, (1,)),
    ]
    assert (plan.shapes[0][0], plan.u_width, plan.p_width) == (3, 3, 4)
    assert (plan.compiled_qubits, plan.simulated_qubits) == (3 * 3 + 4, 2 * 3 + 4)
    assert plan.shapes == ((3, 4), (3, 4), ((3,), (3,), (2,)), ((2, 3), (2, 2)))
    params = init_parameters(arch, seed=0)
    assert [a.shape for a in params.arrays()] == [(3, 4), (3, 4), (3,), (3,), (2,), (2, 3), (2, 2)]


@pytest.mark.parametrize("name", ["mixed", "mnist4-vup", "vun", "small-vnp"])
def test_the_circuit_takes_every_gate_from_the_encoding_and_the_neuron_builders(monkeypatch, name):
    from qnnkit import model

    arch = from_kinds(8, 3, "vnp") if name == "small-vnp" else load_architecture(NETS / f"{name}.arch")
    plan = pipeline(arch)
    copies = plan.u_width or 1  # each u register re-runs the encoding and the v blocks
    built = Counter()

    def spy(builder, times):
        def spied(*args):
            frag = builder(*args)
            for _ in range(times):
                built.update(gate for gate, _ in frag.ops)
            return frag

        return spied

    for builder, times in [
        ("amplitude_encoding_fragment", copies),
        ("build_v_block", copies),
        ("build_u_neuron", 1),
        ("build_n_neuron", 1),
        ("build_p_neuron", 1),
    ]:
        monkeypatch.setattr(model, builder, spy(getattr(model, builder), times))
    params = init_parameters(arch, seed=0)
    circ = build_network_circuit(arch, params, np.linspace(0.1, 1.0, arch.input_dim))
    assert Counter(gate for gate, _ in circ.fragment.ops) == built


@pytest.mark.parametrize(
    "name, gates",
    [
        ("mixed", 281),
        ("mnist2-vu", 128),
        ("mnist4-un", 658),
        ("mnist4-vu", 780),
        ("mnist4-vup", 1647),
        ("vu", 722),
        ("vun", 20),
    ],
)
def test_compiled_gate_counts_are_pinned(name, gates):
    # each u sign-flip term is one Z or multi-controlled Z, and each p
    # neuron is 2m H gates and one MCX, its weight signs on the polarities
    arch = load_architecture(NETS / f"{name}.arch")
    params = init_parameters(arch, seed=0)
    circ = build_network_circuit(arch, params, np.linspace(0.1, 1.0, arch.input_dim))
    assert len(circ.fragment.ops) == gates


def layout_cases():
    for arch in small_random_archs():
        yield pytest.param(arch, id=arch.name)
    for kinds in ("vpp", "vnpnp", "vupp", "vunpnp"):
        yield pytest.param(from_kinds(4, 2, kinds, hidden=3), id=kinds)
    for path in sorted(NETS.glob("*.arch")):
        yield pytest.param(load_architecture(path), id=path.stem)


@pytest.mark.parametrize("arch", layout_cases())
def test_the_tail_is_the_stage_qubits_then_the_p_outputs_placed_after_the_registers(arch):
    from qnnkit import model

    plan = pipeline(arch)
    params = init_parameters(arch, seed=0)
    _, _, tail, outputs = model._oracle_fragments(arch, plan, params)
    assert tail.qubit_span == (plan.u_width or arch.n_qubits) + plan.p_width
    circ = build_network_circuit(arch, params, np.linspace(0.1, 1.0, arch.input_dim))
    shift = (plan.u_width or 0) * arch.n_qubits  # the u registers come first
    placed = circ.fragment.ops[len(circ.fragment.ops) - len(tail.ops) :]
    assert placed == [(gate, tuple(shift + q for q in qubits)) for gate, qubits in tail.ops]
    assert circ.output_qubits == [shift + q for q in outputs]


def test_circuit_contains_only_unitary_gates_and_final_measurement():
    arch = from_kinds(4, 2, "vunp", hidden=2)
    params = init_parameters(arch, seed=0)
    x = np.array([0.2, 0.4, 0.6, 0.8])
    circ = build_network_circuit(arch, params, x / np.linalg.norm(x))
    assert all(isinstance(g, Gate) for g, _ in circ.fragment.ops)
    assert set(circ.output_qubits) <= set(range(circ.fragment.qubit_span))


def test_circuit_inference_respects_qubit_cap():
    # ten u registers of 7 qubits compile to 70 qubits, but the factored
    # simulation runs one register at a time on the 2^6 basis states and
    # holds the ten forms of the ten ancillas' Pr[1] (10 * 2^12 values),
    # and each output reads its own ancilla's Pr[1]
    arch = from_kinds(64, 10, "vu")
    assert pipeline(arch).simulated_qubits == 16
    params = init_parameters(arch, seed=0)
    x = np.linspace(0.1, 1.0, 64)
    np.testing.assert_allclose(
        circuit_inference(arch, params, x), forward(arch, params, x).probs[0], atol=1e-9
    )
    # the last output's table is built from 2^12 basis states of 12 + 2 qubits
    wide = ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("u", 12), LayerSpec("p", 2)])
    assert pipeline(wide).simulated_qubits == 26
    with pytest.raises(ResourceLimitError, match="needs 26 qubits"):
        circuit_inference(wide, init_parameters(wide, seed=0), np.ones(4))


def full_simulation(arch, params, x, fused=True):
    """Output marginals from one run of the whole compiled circuit, fused
    by ``statevec.run_fused`` or gate by gate through ``StateVector.run``."""
    circuit = build_network_circuit(arch, params, x)
    state = StateVector(circuit.fragment.qubit_span)
    if fused:
        state.amps = statevec.run_fused(circuit.fragment, state.amps[None])[0]
    else:
        state.run(circuit.fragment)
    return state.marginals(circuit.output_qubits)


COMPILED_NETS = ["mixed", "mnist2-vu", "vun"]  # within 24 qubits


def oracle_cases():
    for i, arch in enumerate(small_random_archs()):
        yield pytest.param(arch, id=f"random{i}-{arch.name}")
    for name in COMPILED_NETS:
        yield pytest.param(load_architecture(NETS / f"{name}.arch"), id=name)


@pytest.mark.parametrize("arch", oracle_cases())
def test_factored_inference_matches_full_simulation(arch):
    rng = np.random.default_rng(61)
    for seed in range(3):
        params = init_parameters(arch, seed=seed)
        x = rng.uniform(0.01, 1.0, size=arch.input_dim)
        np.testing.assert_allclose(
            circuit_inference(arch, params, x), full_simulation(arch, params, x),
            rtol=0, atol=1e-12,
        )


def scaled_copies(X):
    """Positive multiples of each row: the walkers read only a row's direction."""
    return 0.01 * X, X / np.linalg.norm(X, axis=-1, keepdims=True), 255.0 * X


@pytest.mark.parametrize("path", sorted(NETS.glob("*.arch")), ids=lambda path: path.stem)
def test_forward_batch_gives_a_row_and_its_multiples_the_same_outputs(path):
    arch = load_architecture(path)
    X = np.random.default_rng(67).uniform(0.0, 1.0, size=(4, arch.input_dim))
    for seed in range(3):
        params = init_parameters(arch, seed=seed)
        expected = forward_batch(arch, params, X).probs
        for scaled in scaled_copies(X):
            np.testing.assert_allclose(
                forward_batch(arch, params, scaled).probs, expected, rtol=0, atol=1e-14
            )


@pytest.mark.parametrize("arch", oracle_cases())
def test_circuit_inference_gives_a_row_and_its_multiples_the_same_outputs(arch):
    params = init_parameters(arch, seed=0)
    x = np.random.default_rng(71).uniform(0.0, 1.0, size=arch.input_dim)
    expected = circuit_inference(arch, params, x)
    for scaled in scaled_copies(x):
        np.testing.assert_allclose(
            circuit_inference(arch, params, scaled), expected, rtol=0, atol=1e-14
        )


@st.composite
def factored_archs(draw):
    """v* u? [n|p]+ architectures that compile to at most 16 qubits."""
    n = width = draw(st.integers(1, 3))
    repeat = draw(st.integers(0, 2))
    layers = [LayerSpec("v", n, repeat=repeat)] if repeat else []
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        layers.append(LayerSpec("u", width))
    for kind in draw(st.lists(st.sampled_from("np"), min_size=1, max_size=2)):
        if kind == "n":
            layers.append(LayerSpec("n", width))
        else:
            width = draw(st.integers(1, 2))
            layers.append(LayerSpec("p", width))
    return ArchitectureSpec(2**n, width, layers)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(arch=factored_archs(), seed=st.integers(0, 2**16))
def test_factored_inference_matches_full_simulation_on_random_archs(arch, seed):
    params = init_parameters(arch, seed=seed)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=arch.input_dim)
    np.testing.assert_allclose(
        circuit_inference(arch, params, x), full_simulation(arch, params, x, fused=False),
        rtol=0, atol=1e-12,
    )


def test_only_the_compiled_circuit_builds_the_encoding_fragment(monkeypatch):
    # the oracle computes the encoded amplitudes without a gate list
    from qnnkit import model

    calls = []

    def spied(x):
        calls.append(x)
        return encoding_fragment(x)

    encoding_fragment = model.amplitude_encoding_fragment
    monkeypatch.setattr(model, "amplitude_encoding_fragment", spied)
    arch = load_architecture(NETS / "mixed.arch")
    params = init_parameters(arch, seed=0)
    x = np.linspace(0.1, 1.0, arch.input_dim)
    circuit_inference(arch, params, x)
    assert calls == []
    build_network_circuit(arch, params, x)
    assert len(calls) == 1


def assert_fuses_exactly(frag, rng):
    """The fused fragment matches its gate-by-gate run on a random state."""
    n = frag.qubit_span
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    fused = statevec.run_fused(frag, amps[None])[0]
    np.testing.assert_allclose(fused, StateVector(n, amps).run(frag).amps, rtol=0, atol=1e-13)


def assert_oracle_fragments_fuse_exactly(arch, params, rng):
    """Each fragment circuit_inference fuses matches its gate-by-gate run."""
    from qnnkit import model

    v, u_frags, tail, _ = model._oracle_fragments(arch, pipeline(arch), params)
    for frag in [v, *u_frags, tail]:
        assert_fuses_exactly(frag, rng)


@pytest.mark.parametrize("name", ["mnist2-vu", "vun"])
def test_compiled_circuits_fuse_exactly(name):
    """The fused full-circuit reference is itself held to gate-by-gate runs."""
    arch = load_architecture(NETS / f"{name}.arch")
    rng = np.random.default_rng(73)
    for seed in range(3):
        x = rng.uniform(-1.0, 1.0, size=arch.input_dim)
        circuit = build_network_circuit(arch, init_parameters(arch, seed=seed), x)
        assert_fuses_exactly(circuit.fragment, rng)


@pytest.mark.parametrize("path", sorted(NETS.glob("*.arch")), ids=lambda path: path.stem)
def test_the_oracle_fragments_of_every_net_fuse_exactly(path):
    arch = load_architecture(path)
    params = init_parameters(arch, seed=0)
    assert_oracle_fragments_fuse_exactly(arch, params, np.random.default_rng(71))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(arch=factored_archs(), seed=st.integers(0, 2**16))
def test_the_oracle_fragments_of_random_archs_fuse_exactly(arch, seed):
    params = init_parameters(arch, seed=seed)
    assert_oracle_fragments_fuse_exactly(arch, params, np.random.default_rng(seed))


@pytest.mark.parametrize("kinds, group", [("vnp", "v"), ("vun", "u"), ("vun", "n"), ("vnp", "p")])
def test_an_in_place_update_misses_the_oracle_memo(kinds, group):
    from qnnkit import model

    arch = from_kinds(8, 2, kinds)
    params = init_parameters(arch, seed=0)
    x = np.linspace(-0.7, 1.3, 8)
    before = circuit_inference(arch, params, x)
    if group == "v":
        params.v_thetas[0, 0] += 0.5
    elif group == "n":
        params.n_thetas[0][0] += 0.5
    else:  # flip the sign of one binary weight
        latent = params.uw_latent if group == "u" else params.pw_latent[0]
        latent[0, 0] *= -1
    after = circuit_inference(arch, params, x)
    model._ORACLE_MEMO.clear()
    np.testing.assert_array_equal(after, circuit_inference(arch, params, x))
    assert np.max(np.abs(after - before)) > 1e-9  # a stale program would give ``before`` again


def test_specs_with_equal_parameter_bytes_do_not_share_oracle_programs():
    from qnnkit import model

    n_then_p, p_then_n = (
        ArchitectureSpec(8, 2, [LayerSpec("v", 3), LayerSpec("u", 2)] + [LayerSpec(k, 2) for k in kinds])
        for kinds in ("np", "pn")
    )
    params = init_parameters(n_then_p, seed=0)
    assert [a.shape for a in params.arrays()] == [
        a.shape for a in init_parameters(p_then_n, seed=0).arrays()
    ]
    x = np.linspace(-0.7, 1.3, 8)
    first = circuit_inference(n_then_p, params, x)
    second = circuit_inference(p_then_n, params, x)
    model._ORACLE_MEMO.clear()
    np.testing.assert_array_equal(second, circuit_inference(p_then_n, params, x))
    assert np.max(np.abs(first - second)) > 1e-9


def test_the_oracle_memo_keeps_one_parameter_set():
    from qnnkit import model

    arch = load_architecture(NETS / "mnist2-vu.arch")
    x = np.linspace(0.1, 1.0, arch.input_dim)
    for seed in range(3):
        circuit_inference(arch, init_parameters(arch, seed=seed), x)
        assert len(model._ORACLE_MEMO) == 1


def test_gate_kernel_calls_do_not_depend_on_the_input(monkeypatch):
    from qnnkit import model

    calls = Counter()
    for name in ("apply_1q", "controlled_x", "phase_flip"):
        kernel = getattr(statevec, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(statevec, name, counted)
    rng = np.random.default_rng(67)
    for net in ("mixed", "mnist2-vu"):
        arch = load_architecture(NETS / f"{net}.arch")
        params = init_parameters(arch, seed=0)
        per_sample = []
        for x in (rng.uniform(0.01, 1.0, 16), np.eye(16)[5], np.linspace(0.0, 1.0, 16)):
            calls.clear()
            model._ORACLE_MEMO.clear()  # so each count covers building the memo
            circuit_inference(arch, params, x)
            per_sample.append(dict(calls))
        assert per_sample[0]["apply_1q"] > 0  # fusing runs each block's gates through the kernels
        assert all(c == per_sample[0] for c in per_sample), (net, per_sample)


def test_simulated_qubit_count_is_the_widest_state_allocated(monkeypatch):
    # every state the oracle simulates, the v and u registers' images of
    # the basis states and the tail rows its tables are built from, is run
    # by ``run_fused``, and the memo's forms hold m 4^n reals, with k u
    # neurons one form per ancilla (m = k); on a batch of one, the largest
    # of them holds at most 2^simulated_qubits values, and more than half
    # that
    from qnnkit import model

    sizes = []
    run = model.run_fused

    def recording(fragment, a):
        sizes.append(a.size)  # rows x amplitudes
        return run(fragment, a)

    monkeypatch.setattr(model, "run_fused", recording)
    nets = [load_architecture(path) for path in sorted(NETS.glob("*.arch"))]
    for arch in small_random_archs() + nets:
        x = np.linspace(0.1, 1.0, arch.input_dim)
        sizes.clear()
        model._ORACLE_MEMO.clear()  # so the tables are built again
        circuit_inference_batch(arch, init_parameters(arch, seed=0), x[None])
        (forms, _), = model._ORACLE_MEMO.values()
        widest = (max(sizes + [forms.size]) - 1).bit_length()
        assert widest == pipeline(arch).simulated_qubits, arch.name


def net_cases():
    """``oracle_cases()`` and every shipped net."""
    for case in oracle_cases():
        yield pytest.param(case.values[0], id=case.id)
    for path in sorted(NETS.glob("*.arch")):
        yield pytest.param(load_architecture(path), id=f"nets-{path.stem}")


@pytest.mark.parametrize("arch", net_cases())
def test_each_batch_row_is_the_single_sample_output_bit_for_bit(arch):
    rng = np.random.default_rng(79)
    rows = 5
    for seed in range(3):
        params = init_parameters(arch, seed=seed)
        X = rng.uniform(0.0, 1.0, size=(rows, arch.input_dim))
        X[0, : arch.input_dim // 2] = 0.0  # zero blocks in the encoding
        batch = circuit_inference_batch(arch, params, X)
        assert batch.shape == (rows, arch.num_classes)
        for x, out in zip(X, batch):
            assert np.array_equal(out, circuit_inference(arch, params, x)), arch.name


@pytest.mark.parametrize("arch", net_cases())
def test_a_warm_oracle_runs_no_program_and_no_gate_kernel(monkeypatch, arch):
    # once the memo holds the forms, a row is products with them: no
    # fragment runs through ``run_fused``, so no gate kernel either
    from qnnkit import model

    params = init_parameters(arch, seed=0)
    X = np.random.default_rng(83).uniform(0.0, 1.0, size=(3, arch.input_dim))
    expected = circuit_inference_batch(arch, params, X)  # builds the memo
    calls = Counter()

    def record(name):
        return lambda *args: calls.update([name])

    monkeypatch.setattr(model, "run_fused", record("run_fused"))
    for name in ("apply_1q", "controlled_x", "phase_flip"):
        monkeypatch.setattr(statevec, name, record(name))
    assert np.array_equal(circuit_inference_batch(arch, params, X), expected)
    assert calls == Counter(), arch.name


def test_the_batched_oracle_takes_an_empty_batch_and_refuses_one_sample():
    arch = load_architecture(NETS / "mixed.arch")
    params = init_parameters(arch, seed=0)
    empty = np.zeros((0, arch.input_dim))
    assert circuit_inference_batch(arch, params, empty).shape == (0, arch.num_classes)
    assert forward_batch(arch, params, empty).probs.shape == (0, arch.num_classes)
    with pytest.raises(ValueError, match=r"^expected a 2-D input, got shape \(16,\)$"):
        circuit_inference_batch(arch, params, np.linspace(0.1, 1.0, arch.input_dim))


def test_a_u_less_net_chunks_its_rows_by_its_image_under_the_map(monkeypatch):
    # n = 8 and m = 2 outputs: a row's products F x with the memo's forms
    # hold 2 * 2^8 values and nothing per row is wider, so 2^20 values make
    # chunks of 2048 rows
    from qnnkit import model

    arch = from_kinds(256, 2, "vp")
    chunks = []

    def spied(programs, X):
        chunks.append(len(X))
        return np.zeros((len(X), arch.num_classes))

    monkeypatch.setattr(model, "_oracle_rows", spied)
    X = np.ones((4096, arch.input_dim))
    circuit_inference_batch(arch, init_parameters(arch, seed=0), X)
    assert chunks == [2048, 2048]


def net_cases_with(u_layer: bool):
    """The ``net_cases()`` with a u layer, or those without one."""
    for case in net_cases():
        if (pipeline(case.values[0]).u_width is not None) == u_layer:
            yield case


@pytest.mark.parametrize("arch", net_cases_with(u_layer=False))
def test_a_u_less_memo_holds_the_output_qubits_and_no_table(arch):
    # one pure state until the final measurement: output o's marginal is
    # x^T F_o x, F_o being the form of o's |1> half of the v stage and the
    # tail run as one fragment on n + p qubits; the readout is no table,
    # and the plan counts no light cone
    from qnnkit import model

    plan = pipeline(arch)
    params = init_parameters(arch, seed=0)
    forms, readout = model._oracle_programs(arch, plan, params)
    assert (readout, plan.observable_qubits) == (None, 0)
    assert forms.shape == (arch.num_classes, 2**arch.n_qubits, 2**arch.n_qubits)
    assert forms.dtype == float and not forms.flags.writeable
    assert np.array_equal(forms, forms.transpose(0, 2, 1))
    X = np.random.default_rng(103).uniform(-1.0, 1.0, size=(3, arch.input_dim))
    x = normalize_rows(X)
    np.testing.assert_allclose(
        np.einsum("bi,mij,bj->bm", x, forms, x),
        [full_simulation(arch, params, row, fused=False) for row in X],
        rtol=0, atol=1e-14,
    )


def u_cases():
    """The ``net_cases()`` with a u layer, and u nets with longer tails."""
    yield from net_cases_with(u_layer=True)
    for kinds in ("vunp", "vupp", "vunpnp", "vunnp"):
        yield pytest.param(from_kinds(4, 2, kinds, hidden=3), id=kinds)


@pytest.mark.parametrize("arch", u_cases())
def test_every_u_ancilla_reaches_the_tail_as_a_classical_bit(arch):
    # the oracle reads a cone's state as the product distribution of the u
    # marginals, because each ancilla's reduced state G = M^T conj(M) is
    # diagonal: a u gadget's MCX moves one register basis state r to the
    # ancilla, so M[r, 0] = 0 and M[s, 1] = 0 for every other s, and
    # G_01 = sum_s M[s, 0] conj(M[s, 1]) is a sum of exact zeros. Each u
    # register is run here gate by gate, the v stage and its gadget through
    # ``apply_gate`` on the 2^n encoded basis states with the ancilla last
    # in |0>, and the memo's form j is Re(H1 H1^H) of register j's |1>
    # half H1, to the rounding of sums over 2^n states: the memo's runs
    # are fused (2.2e-15 apart at n = 6, 4.4e-16 at n = 4). The register's
    # run is unitary, so Re(H0 H0^H) + Re(H1 H1^H) = I, to the same
    # rounding, and a row reads its ancilla's Pr[0] as 1 - Pr[1]
    from qnnkit import model

    plan = pipeline(arch)
    n = arch.n_qubits
    rng = np.random.default_rng(89)
    for seed in range(2):
        params = init_parameters(arch, seed=seed)
        v, u_frags, _, _ = model._oracle_fragments(arch, plan, params)
        forms, _ = model._oracle_programs(arch, plan, params)
        assert forms.shape == (len(u_frags), 2**n, 2**n), arch.name
        X = rng.uniform(-1.0, 1.0, size=(16, arch.input_dim))
        X[0, : arch.input_dim // 2] = 0.0  # a zero block in the encoding
        image = np.eye(2 ** (n + 1), dtype=complex)[::2]  # row i: e_i (x) |0>
        for gate, qubits in v.ops:
            statevec.apply_gate(image, gate, qubits)
        for j, u in enumerate(u_frags):
            register = image.copy()
            for gate, qubits in u.ops:
                statevec.apply_gate(register, gate, qubits)
            states = (normalize_rows(X) @ register).reshape(len(X), -1, 2)
            g01 = np.sum(states[:, :, 0] * states[:, :, 1].conj(), axis=1)
            assert np.max(np.abs(g01)) <= 1e-15, arch.name
            h0, h1 = register.reshape(2**n, 2**n, 2).transpose(2, 0, 1)
            np.testing.assert_allclose(
                forms[j], (h1 @ h1.conj().T).real,
                rtol=0, atol=2**n * np.finfo(float).eps, err_msg=f"{arch.name}: u neuron {j}",
            )
            np.testing.assert_allclose(
                (h0 @ h0.conj().T).real + forms[j], np.eye(2**n),
                rtol=0, atol=2**n * np.finfo(float).eps, err_msg=f"{arch.name}: u neuron {j}",
            )


@pytest.mark.parametrize("arch", u_cases())
def test_each_u_form_is_the_trainers_quadratic_form(arch):
    # the trainer's u neuron j outputs (x V . w_j)^2 / 2^n for the v
    # stage's real map V, the rows of V being the images of the basis
    # states: the form (V w_j)(V w_j)^T / 2^n, which the circuit's Pr[1] of
    # ancilla j must equal on every input, not only on the rows drawn
    from qnnkit import model

    plan = pipeline(arch)
    size = 2**arch.n_qubits
    for seed in range(2):
        params = init_parameters(arch, seed=seed)
        forms, _ = model._oracle_programs(arch, plan, params)
        V = v_stage_forward(np.eye(size), params.v_thetas)[0]
        for j, w in enumerate(params.u_weights()):
            vw = V @ w
            np.testing.assert_allclose(
                forms[j], np.outer(vw, vw) / size, rtol=0, atol=1e-15,
                err_msg=f"{arch.name}, seed {seed}: u neuron {j}",
            )


@pytest.mark.parametrize("arch", net_cases_with(u_layer=True))
def test_every_tail_table_holds_one_probability_per_cone_basis_state(arch):
    # T_o(b) is output o's Pr[1] from the stage basis state |b>, so each
    # entry lies in [0, 1]; a net without a u layer has no table, its
    # outputs being marginals
    from qnnkit import model

    plan = pipeline(arch)
    for seed in range(2):
        _, tables = model._oracle_programs(arch, plan, init_parameters(arch, seed=seed))
        positions = sorted(p for _, group, _ in tables for p in group)
        assert positions == list(range(arch.num_classes))
        for cone, group, t in tables:
            assert t.dtype == float and not t.flags.writeable, arch.name
            assert t.shape == (len(group), 2 ** len(cone)), arch.name
            assert t.min() >= 0.0 and t.max() <= 1 + 1e-12, arch.name
        assert max(len(cone) for cone, _, _ in tables) == plan.observable_qubits, arch.name


@pytest.mark.parametrize(
    "arch",
    [
        load_architecture(NETS / "vun.arch"),
        load_architecture(NETS / "mixed.arch"),
        from_kinds(4, 2, "vupp", hidden=3),
    ],
    ids=["vun", "mixed", "vupp"],
)
def test_each_tail_table_entry_is_a_gate_by_gate_marginal(arch):
    # the whole tail runs through ``apply_gate`` from |b> on the cone's
    # stage qubits, random bits on the others, which lie outside the cone
    # and so cannot move the output, and the p outputs in |0>
    from qnnkit import model

    plan = pipeline(arch)
    rng = np.random.default_rng(97)
    for seed in range(2):
        params = init_parameters(arch, seed=seed)
        _, _, tail, outputs = model._oracle_fragments(arch, plan, params)
        _, tables = model._oracle_programs(arch, plan, params)
        span = tail.qubit_span
        for cone, group, t in tables:
            bits = np.zeros((2 ** len(cone), span), dtype=int)
            bits[:, : plan.u_width] = rng.integers(0, 2, size=plan.u_width)
            for i, q in enumerate(cone):  # the first cone qubit is b's most significant bit
                bits[:, q] = np.arange(2 ** len(cone)) >> (len(cone) - 1 - i) & 1
            amps = np.eye(2**span, dtype=complex)[bits @ (1 << np.arange(span)[::-1])]
            for gate, qubits in tail.ops:
                statevec.apply_gate(amps, gate, qubits)
            expected = statevec.marginals_batch(amps, [outputs[p] for p in group]).T
            np.testing.assert_allclose(t, expected, rtol=0, atol=1e-15, err_msg=arch.name)


def test_the_readout_weighs_each_table_entry_by_the_probability_of_its_bits():
    # under the H-sandwich p gadget each output's table is constant in b,
    # so no net tells the order of b's bits; one-hot tables do: output b
    # reads Pr[b], the first cone qubit being b's most significant bit
    from qnnkit import model

    arch = load_architecture(NETS / "mixed.arch")
    forms, _ = model._oracle_programs(arch, pipeline(arch), init_parameters(arch, seed=0))
    X = np.random.default_rng(101).uniform(-1.0, 1.0, size=(3, arch.input_dim))
    x = normalize_rows(X)
    u = np.einsum("bi,mij,bj->bm", x, forms, x)  # each ancilla's Pr[1]
    bits = np.stack((1 - u, u), axis=-1)  # Pr[0], Pr[1]
    cone = (3, 0, 1)
    readout = ((cone, list(range(8)), np.eye(8)),)
    expected = np.ones((len(X), 8))
    for b in range(8):
        for i, j in enumerate(cone):
            expected[:, b] *= bits[:, j, b >> (2 - i) & 1]
    out = model._oracle_rows((forms, readout), X)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "arch, size",
    [
        (from_kinds(64, 10, "vu"), 2),
        (load_architecture(NETS / "vun.arch"), 2),
        (load_architecture(NETS / "mixed.arch"), 2**4),
        (load_architecture(NETS / "mnist4-vup.arch"), 2**8),
    ],
    ids=["vu-10", "vun", "mixed", "mnist4-vup"],
)
def test_a_p_layer_widens_the_tail_tables_to_every_u_ancilla(arch, size):
    # without a p layer each output reads its own ancilla; a p neuron
    # reads all k of them, so its table holds 2^k values
    from qnnkit import model

    _, tables = model._oracle_programs(arch, pipeline(arch), init_parameters(arch, seed=0))
    assert {t.shape[1] for _, _, t in tables} == {size}
    assert sum(len(group) for _, group, _ in tables) == arch.num_classes


def test_a_u_net_chunks_its_rows_by_its_widest_per_row_array(monkeypatch):
    # k = 10 u neurons on n = 2 qubits, all read by a p layer: a row's
    # products with the 10 forms hold 10 * 2^2 values and its cone's
    # distribution 2^10 probabilities, so 2^20 values make chunks of 1024
    # rows; the chunk bound reads only the plan and the forms, so the
    # tables are left out
    from qnnkit import model

    arch = from_kinds(4, 2, "vup", hidden=10)
    chunks = []

    def spied(programs, X):
        chunks.append(len(X))
        return np.zeros((len(X), arch.num_classes))

    monkeypatch.setattr(model, "_ORACLE_MEMO", {})  # so no test sees the memo without tables
    monkeypatch.setattr(model, "_tail_tables", lambda *args: ())
    monkeypatch.setattr(model, "_oracle_rows", spied)
    X = np.ones((256, arch.input_dim))
    circuit_inference_batch(arch, init_parameters(arch, seed=0), X)
    assert chunks == [256]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    # a net with no v layer saves its (0, 6) angles as [] and loads them back
    for arch in (from_kinds(8, 3, "vunp", repeat=2), from_kinds(8, 3, "un")):
        params = init_parameters(arch, seed=13)
        path = tmp_path / "model.qnn.json"
        save_checkpoint(path, arch, params)
        arch2, params2 = load_checkpoint(path)
        assert arch2.layers == arch.layers
        assert arch2.input_dim == arch.input_dim
        for a, b in zip(params.arrays(), params2.arrays()):
            np.testing.assert_array_equal(a, b, strict=True)
        x = np.linspace(0.1, 1.0, 8)
        np.testing.assert_array_equal(
            forward(arch, params, x).probs, forward(arch2, params2, x).probs
        )


def _checkpoint_text(arch, params):
    """The checkpoint format, spelled out field by field."""
    layers = [{"kind": l.kind, "width": l.width, "repeat": l.repeat} for l in arch.layers]
    payload = {
        "format": "qnnkit-checkpoint",
        "version": 1,
        "architecture": {
            "input_dim": arch.input_dim, "num_classes": arch.num_classes, "layers": layers
        },
        "parameters": {
            "v_thetas": params.v_thetas.tolist(),
            "uw_latent": None if params.uw_latent is None else params.uw_latent.tolist(),
            "n_thetas": [t.tolist() for t in params.n_thetas],
            "pw_latent": [w.tolist() for w in params.pw_latent],
        },
    }
    return json.dumps(payload, indent=1)


@pytest.mark.parametrize("arch", layout_cases())
def test_checkpoint_bytes_follow_the_format_and_survive_a_round_trip(tmp_path, arch):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for seed in range(3):
        params = init_parameters(arch, seed)
        save_checkpoint(first, arch, params)
        assert first.read_text(encoding="utf-8") == _checkpoint_text(arch, params)
        save_checkpoint(second, *load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()


def test_a_spec_with_numpy_counts_saves_and_a_failed_save_writes_nothing(tmp_path):
    layers = [LayerSpec("v", np.int64(2), np.int64(2)), LayerSpec("u", np.int32(2))]
    arch = ArchitectureSpec(np.int64(4), np.int64(2), layers)
    params = init_parameters(arch)
    path = tmp_path / "numpy-counts.json"
    save_checkpoint(path, arch, params)
    assert load_checkpoint(path)[0] == arch
    params.v_thetas = params.v_thetas.astype(complex)  # JSON has no complex numbers
    with pytest.raises(TypeError, match="complex"):
        save_checkpoint(tmp_path / "complex.json", arch, params)
    assert not (tmp_path / "complex.json").exists()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    for text in ('{"format": "something-else"}', "[1, 2]"):
        path.write_text(text)
        with pytest.raises(ValueError, match="not a qnnkit-checkpoint"):
            load_checkpoint(path)
    arch = from_kinds(4, 2, "vu")
    save_checkpoint(path, arch, init_parameters(arch, seed=0))
    payload = json.loads(path.read_text())
    payload["version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the measured p-layer gap
# ---------------------------------------------------------------------------


def test_p_layer_on_dephased_qubits_deviation_is_measured():
    # A p-layer consuming u-neuron ancillas is the factorized model's
    # approximate regime: the exact circuit sees zero real coherence on
    # the ancillas, so its p factors collapse to 1/2 while the factorized
    # model uses sqrt(p(1-p)). The deviation is real, finite, and exposed
    # by circuit inference instead of being papered over.
    arch = ArchitectureSpec(
        4, 1, [LayerSpec("v", 2), LayerSpec("u", 2), LayerSpec("p", 1)]
    )
    params = init_parameters(arch, seed=2)
    x = np.array([0.9, 0.2, 0.4, 0.6])
    factorized = forward(arch, params, x).probs[0]
    exact = circuit_inference(arch, params, x)
    deviation = float(np.max(np.abs(factorized - exact)))
    assert np.all(np.isfinite(exact))
    assert exact[0] == pytest.approx(0.25, abs=1e-9)  # (1/2)^2: two dead factors
    assert deviation > 0.01


@pytest.mark.parametrize(
    "arch, m",
    [
        (load_architecture(NETS / "mixed.arch"), 4),
        (load_architecture(NETS / "mnist4-vup.arch"), 8),
        (from_kinds(4, 2, "vunp", hidden=3), 3),
    ],
    ids=["mixed", "mnist4-vup", "vunp"],
)
def test_a_p_layer_reading_m_u_ancillas_outputs_two_to_the_minus_m_for_every_input(arch, m):
    # the README's "measured approximation", stated plainly: under the
    # H-sandwich p gadget every input reaches the MCX as a uniform
    # superposition of its m controls (an RX of an n layer, between two
    # Hadamards, only moves phases), so the circuit returns 2^-m for every
    # input, while the factorized outputs vary. A p gadget with exact
    # semantics changes these numbers on purpose
    rng = np.random.default_rng(107)
    for seed in range(2):
        params = init_parameters(arch, seed=seed)
        X = rng.uniform(-1.0, 1.0, size=(64, arch.input_dim))
        X[0, : arch.input_dim // 2] = 0.0  # a zero block in the encoding
        exact = circuit_inference_batch(arch, params, X)
        np.testing.assert_allclose(exact, 2.0**-m, rtol=0, atol=1e-15, err_msg=arch.name)
        factorized = forward_batch(arch, params, X).probs
        assert np.ptp(factorized, axis=0).max() > 1e-3, arch.name
