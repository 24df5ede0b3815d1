"""Model tests: factorized forward, gradients, training, circuits, checkpoints."""

import math

import numpy as np
import pytest

from qnnkit.arch import (
    ArchitectureError,
    ArchitectureSpec,
    LayerSpec,
    vp_architecture,
    vqc_architecture,
    vu_architecture,
    vup_architecture,
)
from qnnkit.model import (
    TrainConfig,
    TrainingDiverged,
    accuracy,
    backward,
    build_network_circuit,
    circuit_inference,
    expected_qubit_count,
    forward,
    forward_batch,
    init_parameters,
    load_checkpoint,
    loss,
    loss_batch,
    path6_demo,
    save_checkpoint,
    train,
)
from qnnkit.neurons import u_forward
from qnnkit.statevec import Gate, ResourceLimitError


def small_random_archs():
    """A grab bag of trainable architectures for property sweeps."""
    return [
        vqc_architecture(4, 2, r1=1),
        vqc_architecture(8, 2, r1=2),
        vu_architecture(4, 2, r1=1),
        vu_architecture(8, 3, r1=2, include_n=True),
        vup_architecture(4, 2, r1=1, hidden=3),
        vup_architecture(8, 2, r1=2, hidden=4, include_n=True),
        vp_architecture(4, 2, r1=1),
        vp_architecture(8, 3, r1=1, include_n=True),
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
    arch = vqc_architecture(4, 2, r1=1)
    params = init_parameters(arch, seed=0)
    params.v_thetas[:] = 0.0
    trace = forward(arch, params, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(trace.probs, [[0.0, 0.0]], atol=1e-15)


def test_uniform_input_saturates_all_plus_u_layer():
    arch = vu_architecture(4, 2, r1=1)
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
            np.linalg.norm(trace.v_out, axis=1), 1.0, atol=1e-10
        )


def test_forward_rejects_wrong_input_dim():
    arch = vqc_architecture(4, 2)
    with pytest.raises(ValueError, match="input dim"):
        forward(arch, init_parameters(arch), [1.0, 0.0])


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
        grads = backward(arch, params, trace, label)

        for p_arr, g_arr in zip(real_param_views(params), grad_views(grads)):
            flat_p = p_arr.ravel()
            flat_g = g_arr.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss(forward(arch, params, x), label)
                flat_p[i] = orig - h
                down = loss(forward(arch, params, x), label)
                flat_p[i] = orig
                fd = (up - down) / (2 * h)
                assert relative_error(flat_g[i], fd) < 1e-4, (
                    f"{arch.name}: grad {flat_g[i]:.3e} vs fd {fd:.3e}"
                )


def test_gradient_zero_at_stationary_n_theta():
    arch = vu_architecture(4, 2, r1=1, include_n=True)
    params = init_parameters(arch, seed=0)
    params.n_thetas[0][:] = 0.0  # sin(theta) factor kills the gradient here
    trace = forward(arch, params, [0.3, 0.5, 0.1, 0.7])
    grads = backward(arch, params, trace, 1)
    np.testing.assert_allclose(grads.n_thetas[0], 0.0, atol=1e-15)


def test_gradients_finite_at_confident_fixed_point():
    arch = vup_architecture(4, 2, r1=1, hidden=2)
    params = init_parameters(arch, seed=3)
    trace = forward(arch, params, [1.0, 0.0, 0.0, 0.0])
    grads = backward(arch, params, trace, 0)
    for arr in grads.arrays():
        assert np.all(np.isfinite(arr))


def test_straight_through_flips_weights_consistently():
    # Flipping a latent's sign flips the binarized weight and moves the
    # u output exactly as the closed form says.
    arch = vu_architecture(4, 2, r1=1)
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
    assert before == pytest.approx(u_forward(x / np.linalg.norm(x), w_before))
    assert after == pytest.approx(u_forward(x / np.linalg.norm(x), w_after))


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
    arch = vu_architecture(4, 2, r1=1)
    cfg = TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=9)
    p1, m1 = train(arch, init_parameters(arch, 9), X, y, cfg)
    p2, m2 = train(arch, init_parameters(arch, 9), X, y, cfg)
    assert m1 == m2
    for a, b in zip(p1.arrays(), p2.arrays()):
        np.testing.assert_array_equal(a, b)


def test_training_improves_over_chance_on_separable_data():
    rng = np.random.default_rng(43)
    X, y = two_blob_dataset(rng, n=200)
    arch = vu_architecture(4, 2, r1=2)
    cfg = TrainConfig(epochs=15, batch_size=16, lr=0.1, seed=1)
    params, metrics = train(arch, init_parameters(arch, 1), X, y, cfg)
    assert metrics[-1]["train_accuracy"] > 0.8
    assert accuracy(arch, params, X, y) > 0.8


def test_training_refuses_infeasible_architecture():
    bad = ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("u", 3), LayerSpec("u", 2)])
    good = vu_architecture(4, 2)
    with pytest.raises(ArchitectureError, match="infeasible"):
        train(bad, init_parameters(good), np.ones((4, 4)), np.zeros(4, dtype=int))


def test_divergence_detection_aborts_with_diagnostic():
    rng = np.random.default_rng(47)
    X, y = two_blob_dataset(rng, n=64)
    arch = vu_architecture(4, 2)
    cfg = TrainConfig(epochs=1, lr=float("nan"), seed=0)
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(arch, init_parameters(arch), X, y, cfg)


def test_empty_dataset_is_rejected():
    arch = vu_architecture(4, 2)
    with pytest.raises(ValueError, match="empty"):
        train(arch, init_parameters(arch), np.zeros((0, 4)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# circuit inference
# ---------------------------------------------------------------------------


def test_v_only_circuit_matches_factorized_exactly():
    rng = np.random.default_rng(51)
    for _ in range(10):
        arch = vqc_architecture(8, 2, r1=int(rng.integers(1, 3)))
        params = init_parameters(arch, seed=int(rng.integers(1000)))
        x = rng.uniform(0.01, 1.0, size=8)
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
        x = rng.uniform(0.01, 1.0, size=4)
        factorized = forward(arch, params, x).probs[0]
        exact = circuit_inference(arch, params, x)
        np.testing.assert_allclose(exact, factorized, atol=1e-9)


def test_vu_argmax_agreement_on_random_instances():
    rng = np.random.default_rng(57)
    arch = vu_architecture(4, 2, r1=1)
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


def test_qubit_count_formula_matches_built_circuit():
    for arch in small_random_archs():
        params = init_parameters(arch, seed=0)
        x = np.linspace(0.1, 1.0, arch.input_dim)
        circ = build_network_circuit(arch, params, x / np.linalg.norm(x))
        assert circ.n_qubits == expected_qubit_count(arch)


def test_circuit_contains_only_unitary_gates_and_final_measurement():
    arch = vup_architecture(4, 2, r1=1, hidden=2)
    params = init_parameters(arch, seed=0)
    x = np.array([0.2, 0.4, 0.6, 0.8])
    circ = build_network_circuit(arch, params, x / np.linalg.norm(x))
    assert circ.mid_circuit_measurements == 0
    assert all(isinstance(g, Gate) for g, _ in circ.fragment.ops)
    assert set(circ.output_qubits) <= set(range(circ.n_qubits))


def test_circuit_inference_respects_qubit_cap():
    arch = vu_architecture(64, 10, r1=1)  # 10 registers of 7 qubits
    params = init_parameters(arch, seed=0)
    with pytest.raises(ResourceLimitError, match="needs 70"):
        circuit_inference(arch, params, np.ones(64))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    arch = vup_architecture(8, 3, r1=2, hidden=4, include_n=True)
    params = init_parameters(arch, seed=13)
    path = tmp_path / "model.qnn.json"
    save_checkpoint(path, arch, params)
    arch2, params2 = load_checkpoint(path)
    assert arch2.layers == arch.layers
    assert arch2.input_dim == arch.input_dim
    for a, b in zip(params.arrays(), params2.arrays()):
        np.testing.assert_array_equal(a, b)
    x = np.linspace(0.1, 1.0, 8)
    np.testing.assert_array_equal(
        forward(arch, params, x).probs, forward(arch2, params2, x).probs
    )


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.json"
    for text in ('{"format": "something-else"}', "[1, 2]"):
        path.write_text(text)
        with pytest.raises(ValueError, match="not a qnnkit-checkpoint"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# the path-6 counterexample and the measured p-layer gap
# ---------------------------------------------------------------------------


def test_path6_demo_shows_large_deviation():
    result = path6_demo()
    assert result["deviation"] > 0.01
    assert result["factorized"] == pytest.approx(1.0, abs=1e-12)
    assert result["exact"] == pytest.approx(0.5, abs=1e-12)


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
