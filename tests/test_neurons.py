"""Neuron gadget tests.

Every closed-form forward model is checked against an exact simulation
of the corresponding circuit fragment; the simulator is ground truth.
"""

import math

import numpy as np
import pytest

from qnnkit.encoding import decode_probabilities, probability_encode
from qnnkit.neurons import (
    amplitude_sign_flips,
    binarize,
    build_n_neuron,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
    n_forward,
    n_forward_batch,
    p_forward,
    p_forward_batch,
    simulate_p_neuron,
    simulate_u_neuron,
    u_forward,
    u_forward_batch,
    v_forward,
    v_stage_backward,
    v_stage_forward,
)
from qnnkit.statevec import (
    CircuitFragment,
    StateVector,
    apply_1q,
    controlled_x,
    new_state,
    ry_entries,
    rx,
)


def random_unit(rng, size):
    x = rng.normal(size=size)
    return x / np.linalg.norm(x)


def random_weights(rng, size):
    return rng.choice([-1.0, 1.0], size=size)


def fragment_matrix(frag: CircuitFragment) -> np.ndarray:
    """Column-by-column unitary of a fragment (test oracle only)."""
    dim = 2**frag.qubit_span
    cols = []
    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        cols.append(StateVector(frag.qubit_span, amps).run(frag).amps)
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# V block
# ---------------------------------------------------------------------------


def test_v_block_with_zero_angles_is_identity_on_ground_state():
    out = new_state(1).run(build_v_block(1, [0.0, 0.0]))
    np.testing.assert_allclose(out.amps, [1, 0], atol=1e-15)


def test_v_block_pi_rotation_then_cx():
    # RY(pi) flips qubit 0 to |1>, the entangler CX then sets qubit 1.
    out = new_state(2).run(build_v_block(2, [math.pi, 0, 0, 0]))
    np.testing.assert_allclose(np.abs(out.amps) ** 2, [0, 0, 0, 1], atol=1e-12)


def test_v_block_matrix_matches_kron_composition():
    # Oracle: compose RY layers and CX edges as explicit matrices.
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        theta = rng.uniform(-np.pi, np.pi, size=2 * n)
        got = fragment_matrix(build_v_block(n, theta))

        def ry_mat(t):
            c, s = math.cos(t / 2), math.sin(t / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)

        def embed_1q(m, q):
            full = np.eye(1, dtype=complex)
            for i in range(n):
                full = np.kron(full, m if i == q else np.eye(2))
            return full

        def cx_mat(c, t):
            full = np.zeros((2**n, 2**n), dtype=complex)
            for k in range(2**n):
                j = k ^ (1 << (n - 1 - t)) if (k >> (n - 1 - c)) & 1 else k
                full[j, k] = 1.0
            return full

        expected = np.eye(2**n, dtype=complex)
        for q in range(n):
            expected = embed_1q(ry_mat(theta[q]), q) @ expected
        if n == 2:
            expected = cx_mat(0, 1) @ expected
        elif n == 3:
            expected = cx_mat(2, 0) @ cx_mat(1, 2) @ cx_mat(0, 1) @ expected
        for q in range(n):
            expected = embed_1q(ry_mat(theta[n + q]), q) @ expected
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_v_block_rejects_wrong_angle_count():
    with pytest.raises(ValueError, match="needs 4 angles"):
        build_v_block(2, [0.0, 0.0, 0.0])


def test_v_forward_identity_at_zero_angles():
    # Zero angles leave only the CX ring, which fixes |0...0>; on a single
    # qubit there is no entangler so any input passes through untouched.
    e0 = np.zeros(8)
    e0[0] = 1.0
    np.testing.assert_allclose(v_forward(e0, np.zeros(6)), e0, atol=1e-15)

    rng = np.random.default_rng(4)
    x = random_unit(rng, 2)
    np.testing.assert_allclose(v_forward(x, np.zeros((3, 2))), x, atol=1e-15)


def test_v_forward_matches_simulator():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(30):
            blocks = int(rng.integers(1, 4))
            thetas = rng.uniform(-np.pi, np.pi, size=(blocks, 2 * n))
            x = random_unit(rng, 2**n)

            sim = StateVector(n, x.astype(complex))
            for b in range(blocks):
                sim.run(build_v_block(n, thetas[b]))
            np.testing.assert_allclose(
                v_forward(x, thetas), np.real(sim.amps), atol=1e-10
            )


def test_v_forward_preserves_norm():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_unit(rng, 8)
        thetas = rng.uniform(-np.pi, np.pi, size=(2, 6))
        assert abs(np.linalg.norm(v_forward(x, thetas)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# U neuron
# ---------------------------------------------------------------------------


def test_sign_flip_fragment_matches_diagonal_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(20):
            w = random_weights(rng, 2**n)
            x = random_unit(rng, 2**n) + 1j * 0  # complex for the simulator
            got = StateVector(n, x.copy()).run(amplitude_sign_flips(w)).amps
            np.testing.assert_allclose(got, w * x, atol=1e-12)


def test_u_neuron_basis_input():
    # x = (1,0,0,0), all-plus weights: (sum w.x)^2 / 4 = 1/4.
    assert abs(simulate_u_neuron([1, 0, 0, 0], [1, 1, 1, 1]) - 0.25) < 1e-12
    assert abs(u_forward([1, 0, 0, 0], [1, 1, 1, 1]) - 0.25) < 1e-15


def test_u_neuron_uniform_input_saturates():
    x = [0.5, 0.5, 0.5, 0.5]
    assert abs(simulate_u_neuron(x, [1, 1, 1, 1]) - 1.0) < 1e-12
    assert abs(u_forward(x, [1, 1, 1, 1]) - 1.0) < 1e-15


def test_u_neuron_cancellation():
    x = [0.5, 0.5, 0.5, 0.5]
    w = [1, -1, 1, -1]
    assert abs(simulate_u_neuron(x, w)) < 1e-12
    assert abs(u_forward(x, w)) < 1e-15


def test_u_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for _ in range(50):
            x = np.abs(random_unit(rng, 2**n))  # pixel-like non-negative
            w = random_weights(rng, 2**n)
            assert abs(u_forward(x, w) - simulate_u_neuron(x, w)) < 1e-9
        # the batched form the trainer runs: B=3 inputs against k=2 weight rows
        X = np.abs(np.stack([random_unit(rng, 2**n) for _ in range(3)]))
        W = random_weights(rng, (2, 2**n))
        out, dot = u_forward_batch(X, W)
        assert out.shape == dot.shape == (3, 2)
        for b in range(3):
            for j in range(2):
                assert abs(out[b, j] - simulate_u_neuron(X[b], W[j])) < 1e-9


def test_u_forward_invariant_under_global_sign_flip():
    rng = np.random.default_rng(9)
    x = random_unit(rng, 8)
    w = random_weights(rng, 8)
    assert u_forward(x, w) == u_forward(x, -w)


def test_u_forward_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        u_forward([1.0, 0.0], [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# P neuron
# ---------------------------------------------------------------------------


def test_p_neuron_single_input_ground():
    assert abs(simulate_p_neuron([0.0], [1]) - 0.5) < 1e-12
    assert abs(p_forward([0.0], [1]) - 0.5) < 1e-15


def test_p_neuron_single_input_half():
    assert abs(simulate_p_neuron([0.5], [1]) - 1.0) < 1e-12
    assert abs(p_forward([0.5], [1]) - 1.0) < 1e-15


def test_p_neuron_two_ground_inputs():
    assert abs(simulate_p_neuron([0.0, 0.0], [1, 1]) - 0.25) < 1e-12
    assert abs(p_forward([0.0, 0.0], [1, 1]) - 0.25) < 1e-15


def test_p_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(10)
    for m in (1, 2, 3, 4):
        for _ in range(50):
            p = rng.uniform(0, 1, size=m)
            w = random_weights(rng, m)
            assert abs(p_forward(p, w) - simulate_p_neuron(p, w)) < 1e-9
        # the batched form the trainer runs: B=3 inputs against k=2 weight rows
        P = rng.uniform(0, 1, size=(3, m))
        W = random_weights(rng, (2, m))
        out, s, factors = p_forward_batch(P, W)
        assert out.shape == (3, 2) and s.shape == (3, m) and factors.shape == (3, 2, m)
        for b in range(3):
            for j in range(2):
                assert abs(out[b, j] - simulate_p_neuron(P[b], W[j])) < 1e-9


def test_p_neuron_weight_sign_matters():
    # A negative weight must change the output, otherwise P layers are
    # untrainable; the sign flips the coherence term.
    p = [0.2]
    assert abs(p_forward(p, [1]) - (1 + 2 * math.sqrt(0.16)) / 2) < 1e-12
    assert abs(p_forward(p, [-1]) - (1 - 2 * math.sqrt(0.16)) / 2) < 1e-12
    assert abs(simulate_p_neuron(p, [1]) - p_forward(p, [1])) < 1e-12
    assert abs(simulate_p_neuron(p, [-1]) - p_forward(p, [-1])) < 1e-12


def test_sibling_p_neurons_share_inputs_exactly():
    # Two P neurons run sequentially on the same input register must each
    # match their own closed form; this is what lets one layer hold many
    # P neurons without re-preparing the inputs.
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        p = rng.uniform(0, 1, size=m)
        w1, w2 = random_weights(rng, m), random_weights(rng, m)

        frag_enc, _ = probability_encode(p)
        state = StateVector(m + 2)
        state.run(CircuitFragment(m + 2).compose(frag_enc))

        g1 = build_p_neuron(m, w1)  # ancilla at qubit m
        state.run(CircuitFragment(m + 2).compose(g1))
        g2 = build_p_neuron(m, w2)  # rewire its ancilla to qubit m + 1
        g2 = CircuitFragment(m + 2, [
            (g, tuple(m + 1 if q == m else q for q in qs)) for g, qs in g2.ops
        ])
        state.run(g2)

        assert abs(state.marginal_prob_one(m) - p_forward(p, w1)) < 1e-10
        assert abs(state.marginal_prob_one(m + 1) - p_forward(p, w2)) < 1e-10


def test_p_forward_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        p_forward([1.5], [1])


# ---------------------------------------------------------------------------
# N neuron
# ---------------------------------------------------------------------------


def test_n_neuron_zero_angle_is_identity():
    assert n_forward(0.37, 0.0) == pytest.approx(0.37, abs=1e-15)


def test_n_neuron_pi_flips_probability():
    assert n_forward(0.37, math.pi) == pytest.approx(0.63, abs=1e-12)


def test_n_neuron_half_pi_mixes_to_half():
    assert n_forward(0.3, math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    # and against the circuit
    _, state = probability_encode([0.3])
    state.run(build_n_neuron(math.pi / 2))
    assert abs(state.marginal_prob_one(0) - 0.5) < 1e-12


def test_n_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = rng.uniform(0, 1)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        _, state = probability_encode([p])
        state.run(build_n_neuron(theta))
        assert abs(n_forward(p, theta) - state.marginal_prob_one(0)) < 1e-9
    # the batched form the trainer runs: one angle per qubit, three qubits
    for _ in range(20):
        p = rng.uniform(0, 1, size=3)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
        out = n_forward_batch(p[None, :], theta)
        assert out.shape == (1, 3)
        for i in range(3):
            _, state = probability_encode([p[i]])
            state.run(build_n_neuron(theta[i]))
            assert abs(out[0, i] - state.marginal_prob_one(0)) < 1e-9


def test_n_forward_output_is_convex_between_p_and_its_complement():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = float(rng.uniform(0, 1))
        theta = float(rng.uniform(-7, 7))
        out = n_forward(p, theta)
        assert min(p, 1 - p) - 1e-12 <= out <= max(p, 1 - p) + 1e-12


def test_n_neuron_exact_on_entangled_real_states():
    # RX acting on a dephased-but-real qubit still maps Pr[1] by the same
    # closed form; this is the decoupling that makes U -> N exact.
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = np.abs(random_unit(rng, 4))
        w = random_weights(rng, 4)
        theta = float(rng.uniform(-np.pi, np.pi))

        state = StateVector(3)
        reg = np.zeros(8, dtype=complex)
        reg[::2] = x
        state.amps = reg
        state.run(build_u_neuron(2, w))
        state.apply(rx(theta), [2])

        expected = n_forward(u_forward(x, w), theta)
        assert abs(state.marginal_prob_one(2) - expected) < 1e-9


# ---------------------------------------------------------------------------
# batched V kernels (shared with training)
# ---------------------------------------------------------------------------


def test_v_stage_batch_agrees_with_single_samples():
    rng = np.random.default_rng(15)
    thetas = rng.uniform(-np.pi, np.pi, size=(2, 6))
    batch = np.stack([random_unit(rng, 8) for _ in range(5)])
    out, _ = v_stage_forward(batch, thetas)
    for i in range(5):
        np.testing.assert_allclose(out[i], v_forward(batch[i], thetas), atol=1e-12)


def test_v_stage_forward_is_the_block_circuit_bit_for_bit():
    # The ring gather must reproduce the CX gates exactly, and the RYs must
    # run the same kernel arithmetic as the circuit's gate list.
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 6):
        thetas = rng.uniform(-np.pi, np.pi, size=(3, 2 * n))
        batch = np.stack([random_unit(rng, 2**n) for _ in range(4)])
        expected = batch.copy()
        for theta in thetas:
            for gate, qubits in build_v_block(n, theta).ops:
                if gate.kind == "RY":
                    apply_1q(expected, qubits[0], *ry_entries(gate.theta))
                else:
                    controlled_x(expected, qubits[:1], (1,), qubits[1])
        out, _ = v_stage_forward(batch, thetas)
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("blocks", [1, 3], ids=lambda b: f"blocks{b}")
@pytest.mark.parametrize("n", [1, 2, 3, 6], ids=lambda n: f"n{n}")
def test_v_stage_gradients_match_finite_differences(n, blocks):
    # n = 1 has no entangler, n = 2 a single CX, n >= 3 a closed ring
    rng = np.random.default_rng(16 + 10 * n + blocks)
    thetas = rng.uniform(-1, 1, size=(blocks, 2 * n))
    batch = np.stack([random_unit(rng, 2**n) for _ in range(3)])
    target = rng.normal(size=batch.shape)

    def loss_at(t, x=batch):
        out, _ = v_stage_forward(x, t)
        return float(np.sum(out * target))

    out, tape = v_stage_forward(batch, thetas)
    grad_theta, grad_x = v_stage_backward(tape, target)

    h = 1e-6
    for idx in np.ndindex(*thetas.shape):
        tp, tm = thetas.copy(), thetas.copy()
        tp[idx] += h
        tm[idx] -= h
        fd = (loss_at(tp) - loss_at(tm)) / (2 * h)
        assert abs(fd - grad_theta[idx]) < 1e-6

    for idx in np.ndindex(*batch.shape):
        bp, bm = batch.copy(), batch.copy()
        bp[idx] += h
        bm[idx] -= h
        fd = (loss_at(thetas, bp) - loss_at(thetas, bm)) / (2 * h)
        assert abs(fd - grad_x[idx]) < 1e-6


def test_binarize_maps_zero_to_plus_one():
    np.testing.assert_array_equal(binarize([-0.5, 0.0, 2.0]), [-1.0, 1.0, 1.0])


def test_u_then_n_decouples_from_full_circuit():
    # Two-layer factorized model (one U neuron, one N neuron) equals the
    # exact end-to-end circuit with measurement only at the very end.
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = 2
        x = np.abs(random_unit(rng, 2**n))
        w = random_weights(rng, 2**n)
        theta = float(rng.uniform(-np.pi, np.pi))

        factorized = n_forward(u_forward(x, w), theta)

        state = StateVector(n + 1)
        reg = np.zeros(2 ** (n + 1), dtype=complex)
        reg[::2] = x
        state.amps = reg
        state.run(build_u_neuron(n, w))
        state.apply(rx(theta), [n])
        assert abs(state.marginal_prob_one(n) - factorized) < 1e-9
