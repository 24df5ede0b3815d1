"""Encoding tests: analytic encodings, preparation circuits, round trips."""

import math

import numpy as np
import pytest

from qnnkit.encoding import (
    amplitude_encode,
    amplitude_encoding_fragment,
    decode_probabilities,
    multiplexed_ry,
    probability_encode,
)
from qnnkit.statevec import StateVector, new_state


def multiplexor_oracle(amps: np.ndarray, angles, controls, target, n) -> np.ndarray:
    """Index-wise application of sum_p |p><p| (x) RY(angles[p])."""
    out = np.array(amps, dtype=complex).reshape([2] * n)
    k = len(controls)
    for p in range(2**k):
        sel: list = [slice(None)] * n
        for j, q in enumerate(controls):
            sel[q] = (p >> (k - 1 - j)) & 1
        s0 = list(sel)
        s1 = list(sel)
        s0[target], s1[target] = 0, 1
        c, s = math.cos(angles[p] / 2), math.sin(angles[p] / 2)
        x0, x1 = out[tuple(s0)].copy(), out[tuple(s1)].copy()
        out[tuple(s0)] = c * x0 - s * x1
        out[tuple(s1)] = s * x0 + c * x1
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# amplitude encoding
# ---------------------------------------------------------------------------


def test_unit_vector_becomes_amplitudes_directly():
    rng = np.random.default_rng(0)
    data = rng.normal(size=4)
    data /= np.linalg.norm(data)
    state, scale = amplitude_encode(data)
    assert state.n_qubits == 2
    assert abs(scale - 1.0) < 1e-12
    np.testing.assert_allclose(state.amps, data.astype(complex), atol=1e-12)


def test_basis_vector_encodes_to_basis_state():
    state, scale = amplitude_encode([1, 0, 0, 0])
    np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=1e-15)
    assert scale == 1.0


def test_three_four_normalizes_with_scale_five():
    state, scale = amplitude_encode([3.0, 4.0])
    np.testing.assert_allclose(state.amps, [0.6, 0.8], atol=1e-15)
    assert abs(scale - 5.0) < 1e-15


def test_all_zero_vector_is_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        amplitude_encode([0.0, 0.0, 0.0])


def test_padding_preserves_direction():
    data = np.array([2.0, 1.0, 2.0])  # length 3 -> padded to 4
    state, scale = amplitude_encode(data)
    recovered = np.real(state.amps) * scale
    np.testing.assert_allclose(recovered, [2.0, 1.0, 2.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# multiplexed RY and the preparation circuit
# ---------------------------------------------------------------------------


def test_multiplexed_ry_matches_block_diagonal_oracle():
    rng = np.random.default_rng(5)
    for k in range(4):  # number of controls
        n = k + 1
        angles = rng.uniform(-np.pi, np.pi, size=2**k)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        controls, target = list(range(k)), k

        frag = multiplexed_ry(angles, controls, target, n)
        got = StateVector(n, amps.copy()).run(frag).amps
        expected = multiplexor_oracle(amps, angles, controls, target, n)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_preparation_circuit_reproduces_analytic_encoding():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        data = rng.uniform(0.0, 1.0, size=2**n)
        data[rng.integers(0, 2**n)] = 0.0  # exercise zero blocks
        if np.linalg.norm(data) == 0:
            data[0] = 1.0
        frag, scale = amplitude_encoding_fragment(data)
        prepared = new_state(n).run(frag)
        analytic, scale2 = amplitude_encode(data)
        assert abs(scale - scale2) < 1e-12
        np.testing.assert_allclose(prepared.amps, analytic.amps, atol=1e-12)


def test_preparation_rejects_negative_data():
    with pytest.raises(ValueError, match="non-negative"):
        amplitude_encoding_fragment([0.5, -0.1])


# ---------------------------------------------------------------------------
# probability encoding
# ---------------------------------------------------------------------------


def test_probability_zero_gives_ground_state():
    _, state = probability_encode([0.0])
    np.testing.assert_allclose(state.amps, [1, 0], atol=1e-15)
    assert state.marginal_prob_one(0) == 0.0


def test_probability_one_gives_excited_state():
    _, state = probability_encode([1.0])
    assert abs(state.marginal_prob_one(0) - 1.0) < 1e-12


def test_probability_quarter():
    _, state = probability_encode([0.25])
    assert abs(state.marginal_prob_one(0) - 0.25) < 1e-12


def test_out_of_range_datum_is_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        probability_encode([0.3, 1.2])


def test_encode_decode_round_trip():
    _, state = probability_encode([0.1, 0.9])
    np.testing.assert_allclose(
        decode_probabilities(state, [0, 1]), [0.1, 0.9], atol=1e-12
    )


def test_round_trip_is_identity_on_random_vectors():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
        _, state = probability_encode(d)
        np.testing.assert_allclose(
            decode_probabilities(state, range(len(d))), d, atol=1e-12
        )


def test_probability_registers_are_product_states():
    rng = np.random.default_rng(23)
    _, state = probability_encode(rng.uniform(0, 1, size=4))
    for q in range(4):
        assert state.is_product_qubit(q, tol=1e-10)


def test_decode_matches_per_qubit_marginals_on_random_states():
    rng = np.random.default_rng(24)
    for n in (1, 3, 6):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        qubits = list(rng.permutation(n))
        expected = [state.marginal_prob_one(q) for q in qubits]
        np.testing.assert_allclose(decode_probabilities(state, qubits), expected, rtol=0, atol=1e-12)


def test_decode_rejects_a_qubit_outside_the_register():
    with pytest.raises(ValueError, match="out of range"):
        decode_probabilities(new_state(2), [0, 2])


def test_decode_ground_state():
    np.testing.assert_allclose(decode_probabilities(new_state(1), [0]), [0.0])
