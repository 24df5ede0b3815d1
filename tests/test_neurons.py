"""Neuron gadget tests.

Every closed-form forward model is checked against an exact simulation
of the corresponding circuit fragment; the simulator is ground truth.
"""

import itertools
import math

import numpy as np
import pytest

from qnnkit.encoding import probability_encoding_fragment
from qnnkit.neurons import (
    amplitude_sign_flips,
    binarize,
    build_n_neuron,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
    n_backward_batch,
    n_forward_batch,
    p_backward_batch,
    p_forward_batch,
    u_backward_batch,
    u_forward_batch,
    v_stage_backward,
    v_stage_forward,
    v_view_backward_batch,
    v_view_forward_batch,
)
from qnnkit.statevec import (
    CircuitFragment,
    H,
    StateVector,
    X,
    apply_1q,
    controlled_x,
    mcx,
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
    out = StateVector(1).run(build_v_block(1, [0.0, 0.0]))
    np.testing.assert_allclose(out.amps, [1, 0], atol=1e-15)


def test_v_block_pi_rotation_then_cx():
    # RY(pi) flips qubit 0 to |1>, the entangler CX then sets qubit 1.
    out = StateVector(2).run(build_v_block(2, [math.pi, 0, 0, 0]))
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
    out, _ = v_stage_forward(e0[None], np.zeros((1, 6)))
    np.testing.assert_allclose(out[0], e0, atol=1e-15)

    rng = np.random.default_rng(4)
    x = random_unit(rng, 2)
    out, _ = v_stage_forward(x[None], np.zeros((3, 2)))
    np.testing.assert_allclose(out[0], x, atol=1e-15)


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
            out, _ = v_stage_forward(x[None], thetas)
            np.testing.assert_allclose(out[0], np.real(sim.amps), atol=1e-10)


def test_v_forward_preserves_norm():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_unit(rng, 8)
        thetas = rng.uniform(-np.pi, np.pi, size=(2, 6))
        out, _ = v_stage_forward(x[None], thetas)
        assert abs(np.linalg.norm(out[0]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# U neuron
# ---------------------------------------------------------------------------


def sign_flip_weights():
    """Every sign pattern for n <= 3, then 50 random ones each for n = 4-6."""
    for n in (1, 2, 3):
        yield from (np.array(w) for w in itertools.product((1.0, -1.0), repeat=2**n))
    rng = np.random.default_rng(7)
    for n in (4, 5, 6):
        for _ in range(50):
            yield random_weights(rng, 2**n)


def test_sign_flip_fragment_matches_diagonal_oracle():
    for w in sign_flip_weights():
        n = int(math.log2(len(w)))
        # column k of U is the run on basis state k: one run with qubits 0..n-1 the rows of I
        frag = amplitude_sign_flips(w)
        unitary = StateVector(2 * n, np.eye(2**n).ravel()).run(frag).amps.reshape(2**n, 2**n)
        assert np.array_equal(unitary, w[0] * np.diag(w))  # up to the global sign w[0]


def test_sign_flip_fragment_is_one_controlled_z_per_anf_term():
    for w in sign_flip_weights():
        n = int(math.log2(len(w)))
        # ANF term m is the XOR of [w[k] < 0] over every k whose bits lie within m
        k = np.arange(2**n)
        within = ((k[None, :] & k[:, None]) == k[None, :]).astype(int)
        terms = {int(m) for m in np.flatnonzero(within @ (w < 0) % 2) if m}
        ops = amplitude_sign_flips(w).ops
        assert sorted(sum(1 << (n - 1 - q) for q in qubits) for _, qubits in ops) == sorted(terms)
        for gate, qubits in ops:
            assert gate.kind in ("Z", "CZ") and gate.polarities == (1,) * (len(qubits) - 1)


def u_gadget(x, w):
    """The u gadget's output marginal on the amplitudes ``x``, its ancilla
    (the last qubit) starting in |0>."""
    n = len(x).bit_length() - 1
    state = StateVector(n + 1, np.kron(x, [1.0, 0.0]))
    return state.run(build_u_neuron(n, w)).marginals([n])[0]


def test_u_neuron_basis_input():
    # x = (1,0,0,0), all-plus weights: (sum w.x)^2 / 4 = 1/4.
    x, w = np.array([1.0, 0, 0, 0]), np.ones(4)
    assert abs(u_gadget(x, w) - 0.25) < 1e-12
    assert abs(u_forward_batch(x[None], w[None])[0][0, 0] - 0.25) < 1e-15


def test_u_neuron_uniform_input_saturates():
    x, w = np.full(4, 0.5), np.ones(4)
    assert abs(u_gadget(x, w) - 1.0) < 1e-12
    assert abs(u_forward_batch(x[None], w[None])[0][0, 0] - 1.0) < 1e-15


def test_u_neuron_cancellation():
    x, w = np.full(4, 0.5), np.array([1.0, -1, 1, -1])
    assert abs(u_gadget(x, w)) < 1e-12
    assert abs(u_forward_batch(x[None], w[None])[0][0, 0]) < 1e-15


def test_u_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for _ in range(50):
            x = np.abs(random_unit(rng, 2**n))  # pixel-like non-negative
            w = random_weights(rng, 2**n)
            gadget = u_gadget(x, w)
            assert abs(u_forward_batch(x[None], w[None])[0][0, 0] - gadget) < 1e-9
        # the batched form the trainer runs: B=3 inputs against k=2 weight rows
        X = np.abs(np.stack([random_unit(rng, 2**n) for _ in range(3)]))
        W = random_weights(rng, (2, 2**n))
        out, dot = u_forward_batch(X, W)
        assert out.shape == dot.shape == (3, 2)
        for b in range(3):
            for j in range(2):
                assert abs(out[b, j] - u_gadget(X[b], W[j])) < 1e-9


def test_u_forward_invariant_under_global_sign_flip():
    rng = np.random.default_rng(9)
    x = random_unit(rng, 8)
    w = random_weights(rng, 8)
    out, _ = u_forward_batch(x[None], w[None])
    flipped, _ = u_forward_batch(x[None], -w[None])
    assert out[0, 0] == flipped[0, 0]


# ---------------------------------------------------------------------------
# P neuron
# ---------------------------------------------------------------------------


def test_p_neuron_single_input_ground():
    p, w = np.array([0.0]), np.ones(1)
    gadget = StateVector(2).run(probability_encoding_fragment(p)).run(build_p_neuron(1, w))
    assert abs(gadget.marginals([1])[0] - 0.5) < 1e-12
    assert abs(p_forward_batch(p[None], w[None])[0][0, 0] - 0.5) < 1e-15


def test_p_neuron_single_input_half():
    p, w = np.array([0.5]), np.ones(1)
    gadget = StateVector(2).run(probability_encoding_fragment(p)).run(build_p_neuron(1, w))
    assert abs(gadget.marginals([1])[0] - 1.0) < 1e-12
    assert abs(p_forward_batch(p[None], w[None])[0][0, 0] - 1.0) < 1e-15


def test_p_neuron_two_ground_inputs():
    p, w = np.zeros(2), np.ones(2)
    gadget = StateVector(3).run(probability_encoding_fragment(p)).run(build_p_neuron(2, w))
    assert abs(gadget.marginals([2])[0] - 0.25) < 1e-12
    assert abs(p_forward_batch(p[None], w[None])[0][0, 0] - 0.25) < 1e-15


def test_p_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(10)
    for m in (1, 2, 3, 4):
        for _ in range(50):
            p = rng.uniform(0, 1, size=m)
            w = random_weights(rng, m)
            gadget = StateVector(m + 1).run(probability_encoding_fragment(p))
            gadget.run(build_p_neuron(m, w))
            closed_form = p_forward_batch(p[None], w[None])[0][0, 0]
            assert abs(closed_form - gadget.marginals([m])[0]) < 1e-9
        # the batched form the trainer runs: B=3 inputs against k=2 weight rows
        P = rng.uniform(0, 1, size=(3, m))
        W = random_weights(rng, (2, m))
        out, s, factors = p_forward_batch(P, W)
        assert out.shape == (3, 2) and s.shape == (3, m) and factors.shape == (3, 2, m)
        for b in range(3):
            for j in range(2):
                gadget = StateVector(m + 1).run(probability_encoding_fragment(P[b]))
                gadget.run(build_p_neuron(m, W[j]))
                assert abs(out[b, j] - gadget.marginals([m])[0]) < 1e-9


def test_p_neuron_weight_sign_matters():
    # A negative weight must change the output, otherwise P layers are
    # untrainable; the sign flips the coherence term.
    p = np.array([0.2])
    plus, minus = p_forward_batch(p[None], np.array([[1.0], [-1.0]]))[0][0]
    assert abs(plus - (1 + 2 * math.sqrt(0.16)) / 2) < 1e-12
    assert abs(minus - (1 - 2 * math.sqrt(0.16)) / 2) < 1e-12
    for w, closed_form in ((1.0, plus), (-1.0, minus)):
        gadget = StateVector(2).run(probability_encoding_fragment(p)).run(build_p_neuron(1, [w]))
        assert abs(gadget.marginals([1])[0] - closed_form) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_p_gadget_puts_weight_signs_on_the_mcx_polarities(m):
    # H on each input, one MCX firing where input i holds 1 exactly when
    # w[i] = -1, H again; no X gates. X-conjugating an all-zero-polarity
    # MCX is the same permutation, so the unitaries agree bit for bit.
    for w in itertools.product([1.0, -1.0], repeat=m):
        polarities = tuple(int(wi < 0) for wi in w)
        h_layer = [(H, (q,)) for q in range(m)]
        frag = build_p_neuron(m, w)
        assert frag.qubit_span == m + 1
        assert frag.ops == h_layer + [(mcx(polarities), (*range(m), m))] + h_layer

        conjugated = CircuitFragment(m + 1)
        flipped = [q for q in range(m) if w[q] < 0]
        for q in range(m):
            conjugated.append(H, q)
        for q in flipped:
            conjugated.append(X, q)
        conjugated.append(mcx((0,) * m), *range(m), m)
        for q in flipped:
            conjugated.append(X, q)
        for q in range(m):
            conjugated.append(H, q)
        np.testing.assert_array_equal(fragment_matrix(frag), fragment_matrix(conjugated))


def test_sibling_p_neurons_share_inputs_exactly():
    # Two P neurons run sequentially on the same input register must each
    # match their own closed form; this is what lets one layer hold many
    # P neurons without re-preparing the inputs.
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        p = rng.uniform(0, 1, size=m)
        w1, w2 = random_weights(rng, m), random_weights(rng, m)

        state = StateVector(m + 2).run(probability_encoding_fragment(p))
        state.run(build_p_neuron(m, w1))  # ancilla at qubit m
        # the second ancilla moves to qubit m + 1
        state.run(CircuitFragment(m + 2).extend(build_p_neuron(m, w2), {m: m + 1}))

        closed_forms = p_forward_batch(p[None], np.stack([w1, w2]))[0][0]
        np.testing.assert_allclose(state.marginals([m, m + 1]), closed_forms, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# N neuron
# ---------------------------------------------------------------------------


def test_n_neuron_zero_angle_is_identity():
    assert n_forward_batch(0.37, 0.0) == pytest.approx(0.37, abs=1e-15)


def test_n_neuron_pi_flips_probability():
    assert n_forward_batch(0.37, math.pi) == pytest.approx(0.63, abs=1e-12)


def test_n_neuron_half_pi_mixes_to_half():
    assert n_forward_batch(0.3, math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    # and against the circuit
    state = StateVector(1).run(probability_encoding_fragment([0.3]))
    state.run(build_n_neuron(math.pi / 2))
    assert abs(state.marginal_prob_one(0) - 0.5) < 1e-12


def test_n_forward_matches_gadget_on_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = rng.uniform(0, 1)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        state = StateVector(1).run(probability_encoding_fragment([p]))
        state.run(build_n_neuron(theta))
        assert abs(n_forward_batch(p, theta) - state.marginal_prob_one(0)) < 1e-9
    # the batched form the trainer runs: one angle per qubit, three qubits
    for _ in range(20):
        p = rng.uniform(0, 1, size=3)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
        out = n_forward_batch(p[None, :], theta)
        assert out.shape == (1, 3)
        for i in range(3):
            state = StateVector(1).run(probability_encoding_fragment([p[i]]))
            state.run(build_n_neuron(theta[i]))
            assert abs(out[0, i] - state.marginal_prob_one(0)) < 1e-9


def test_n_forward_output_is_convex_between_p_and_its_complement():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = float(rng.uniform(0, 1))
        theta = float(rng.uniform(-7, 7))
        out = n_forward_batch(p, theta)
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

        expected = n_forward_batch(u_forward_batch(x[None], w[None])[0], theta)[0, 0]
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
        single, _ = v_stage_forward(batch[i : i + 1], thetas)
        np.testing.assert_allclose(out[i], single[0], atol=1e-12)


def with_signed_zeros(rng, batch):
    """``batch`` with about a quarter of its entries set to +0.0 or -0.0,
    and its last row all signed zeros when it has more than one."""
    zeros = rng.choice([0.0, -0.0], size=batch.shape)
    batch = np.where(rng.random(batch.shape) < 0.25, zeros, batch)
    if len(batch) > 1:
        batch[-1] = zeros[-1]
    return batch


def v_stage_case(rng, n, batch_size):
    """Angles in (-3 pi, 3 pi), so cos and sin of their halves take both
    signs, and a batch of random unit rows with signed zeros put in."""
    thetas = rng.uniform(-3 * np.pi, 3 * np.pi, size=(3, 2 * n))
    batch = np.stack([random_unit(rng, 2**n) for _ in range(batch_size)])
    return thetas, with_signed_zeros(rng, batch)


# The kernels compare with tobytes(): np.array_equal counts -0.0 equal to
# +0.0, and the trainer's RY negates products, so only the bytes show a
# zero of the wrong sign.
@pytest.mark.parametrize("batch_size", [1, 5, 32, 400], ids=lambda b: f"B{b}")
def test_v_stage_forward_is_the_block_circuit_bit_for_bit(batch_size):
    # The ring gather must reproduce the CX gates exactly, and the RYs must
    # run the same kernel arithmetic as the circuit's gate list.
    rng = np.random.default_rng(18 + batch_size)
    for n in (1, 2, 3, 6):
        thetas, batch = v_stage_case(rng, n, batch_size)
        expected = batch.copy()
        for theta in thetas:
            for gate, qubits in build_v_block(n, theta).ops:
                if gate.kind == "RY":
                    apply_1q(expected, qubits[0], *ry_entries(gate.theta))
                else:
                    controlled_x(expected, qubits[:1], (1,), qubits[1])
        out, _ = v_stage_forward(batch, thetas)
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("batch_size", [1, 5, 32], ids=lambda b: f"B{b}")
def test_v_stage_backward_is_the_adjoint_circuit_bit_for_bit(batch_size):
    # The input adjoint must be the block circuit run backwards with the
    # kernel's arithmetic: each RY layer as RY(-theta) in qubit order, the
    # ring as its CX gates in reverse.
    rng = np.random.default_rng(20 + batch_size)
    for n in (1, 2, 3, 6):
        thetas, batch = v_stage_case(rng, n, batch_size)
        grad_out = with_signed_zeros(rng, rng.normal(size=batch.shape))
        expected = grad_out.copy()
        for theta in thetas[::-1]:
            ops = build_v_block(n, theta).ops
            for gate, qubits in ops[-n:] + ops[n:-n][::-1] + ops[:n]:
                if gate.kind == "RY":
                    apply_1q(expected, qubits[0], *ry_entries(-gate.theta))
                else:
                    controlled_x(expected, qubits[:1], (1,), qubits[1])
        out, tape = v_stage_forward(batch, thetas)
        assert out.flags.c_contiguous
        _, grad_x = v_stage_backward(tape, grad_out)
        assert np.ascontiguousarray(grad_x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("batch_size", [1, 5, 32], ids=lambda b: f"B{b}")
@pytest.mark.parametrize("n", [1, 2, 3, 6], ids=lambda n: f"n{n}")
def test_v_stage_gives_the_same_bytes_for_every_input_layout(n, batch_size):
    rng = np.random.default_rng(40 + 10 * n + batch_size)
    thetas = rng.uniform(-np.pi, np.pi, size=(2, 2 * n))
    wide = np.stack([random_unit(rng, 2**n) for _ in range(2 * batch_size)])
    wide_grad = rng.normal(size=wide.shape)

    def layouts(a):
        return {"C": a[::2].copy(), "F": np.asfortranarray(a[::2]), "strided": a[::2]}

    results = {}
    for (name, x), grad_out in zip(layouts(wide).items(), layouts(wide_grad).values()):
        out, tape = v_stage_forward(x, thetas)
        assert out.flags.c_contiguous
        results[name] = (out, *v_stage_backward(tape, grad_out))
    out, grad_theta, grad_x = results["C"]
    for name in ("F", "strided"):
        assert np.array_equal(results[name][0], out)
        assert np.array_equal(results[name][2], grad_x)
        # the GEMM G = mu^T psi may round differently by its operands' layout,
        # and the first layer's psi is x as given
        np.testing.assert_allclose(results[name][1], grad_theta, rtol=0, atol=1e-14)


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


# ---------------------------------------------------------------------------
# each gradient against central differences of its own forward form
# ---------------------------------------------------------------------------


def central_differences(loss, x, h=1e-6):
    """d loss / d x entry by entry, for a scalar function of the array x."""
    grad = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (loss(xp) - loss(xm)) / (2 * h)
    return grad


@pytest.mark.parametrize("width", [1, 2, 3])
def test_v_view_gradient_matches_central_differences(width):
    rng = np.random.default_rng(40 + width)
    A = rng.normal(size=(4, 8))
    grad = rng.normal(size=(4, width))
    got = v_view_backward_batch(grad, A)
    want = central_differences(lambda a: np.sum(grad * v_view_forward_batch(a, width)), A)
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_u_gradients_match_central_differences():
    rng = np.random.default_rng(44)
    X = np.stack([random_unit(rng, 8) for _ in range(3)])
    W = random_weights(rng, (2, 8))
    grad = rng.normal(size=(3, 2))
    gW, gX = u_backward_batch(grad, X, W, u_forward_batch(X, W)[1])

    def loss(x, w):
        return np.sum(grad * u_forward_batch(x, w)[0])

    np.testing.assert_allclose(gW, central_differences(lambda w: loss(X, w), W), atol=1e-7)
    np.testing.assert_allclose(gX, central_differences(lambda x: loss(x, W), X), atol=1e-7)


def test_n_gradients_match_central_differences():
    rng = np.random.default_rng(45)
    P = rng.uniform(0.0, 1.0, size=(3, 4))
    theta = rng.uniform(-np.pi, np.pi, size=4)
    grad = rng.normal(size=(3, 4))
    gtheta, gP = n_backward_batch(grad, P, theta)

    def loss(p, t):
        return np.sum(grad * n_forward_batch(p, t))

    np.testing.assert_allclose(gtheta, central_differences(lambda t: loss(P, t), theta), atol=1e-7)
    np.testing.assert_allclose(gP, central_differences(lambda p: loss(p, theta), P), atol=1e-7)


def test_p_gradients_match_central_differences_and_stay_finite_at_the_endpoints():
    rng = np.random.default_rng(46)
    P = rng.uniform(0.1, 0.9, size=(4, 3))
    P[0, 0], P[1, 2], P[3, 1] = 0.0, 1.0, 1.0  # where sqrt(p(1-p)) has no derivative
    W = random_weights(rng, (2, 3))
    grad = rng.normal(size=(4, 2))
    _, s, factors = p_forward_batch(P, W)
    gW, gP = p_backward_batch(grad, P, W, s, factors)

    def loss(p, w):
        return np.sum(grad * p_forward_batch(p, w)[0])

    np.testing.assert_allclose(gW, central_differences(lambda w: loss(P, w), W), atol=1e-7)
    fd = central_differences(lambda p: loss(p, W), P)
    interior = (P > 0) & (P < 1)
    np.testing.assert_allclose(gP[interior], fd[interior], atol=1e-6)
    # at an endpoint the true slope is infinite; the guarded gradient is
    # finite, points the way of the one-sided quotient into [0, 1], and
    # is at least as steep
    h = 1e-6
    assert np.all(np.isfinite(gP))
    for idx in zip(*np.nonzero(~interior)):
        step = np.zeros_like(P)
        step[idx] = h if P[idx] == 0 else -h
        quotient = (loss(P + step, W) - loss(P, W)) / step[idx]
        assert np.sign(gP[idx]) == np.sign(quotient) != 0
        assert abs(gP[idx]) >= abs(quotient)


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

        factorized = n_forward_batch(u_forward_batch(x[None], w[None])[0], theta)[0, 0]

        state = StateVector(n + 1)
        reg = np.zeros(2 ** (n + 1), dtype=complex)
        reg[::2] = x
        state.amps = reg
        state.run(build_u_neuron(n, w))
        state.apply(rx(theta), [n])
        assert abs(state.marginal_prob_one(n) - factorized) < 1e-9
