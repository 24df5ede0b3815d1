"""Encoding tests: analytic encodings, preparation circuits, round trips."""

import math

import numpy as np
import pytest

from qnnkit.encoding import (
    amplitude_encoding_batch,
    amplitude_encoding_fragment,
    multiplexed_ry,
    normalize_rows,
    probability_encoding_fragment,
)
from qnnkit.statevec import StateVector


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
    data = rng.normal(size=(1, 4))
    data /= np.linalg.norm(data)
    np.testing.assert_allclose(normalize_rows(data), data, atol=1e-15)


def test_basis_vector_encodes_to_basis_state():
    np.testing.assert_array_equal(normalize_rows(np.eye(4)), np.eye(4))


def test_three_four_normalizes_with_scale_five():
    np.testing.assert_allclose(
        normalize_rows(np.array([[3.0, 4.0], [-3.0, 4.0]])), [[0.6, 0.8], [-0.6, 0.8]], atol=1e-15
    )


def test_all_zero_vector_is_rejected():
    for bad in (0.0, np.nan, np.inf):  # the norm of the second row is 0, NaN, inf
        rows = np.array([[0.5, 0.5, 0.5, 0.5], [bad, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^cannot amplitude-encode an all-zero or non-finite"):
            normalize_rows(rows)


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
    for n in range(1, 7):
        for _ in range(100):
            data = rng.uniform(-1.0, 1.0, size=2**n)
            data[rng.integers(0, 2**n)] = 0.0  # exercise zero blocks
            if n > 1:
                pair = 2 * rng.integers(0, 2 ** (n - 1))
                data[pair : pair + 2] = 0.0
            prepared = StateVector(n).run(amplitude_encoding_fragment(data))
            np.testing.assert_allclose(
                prepared.amps, normalize_rows(data[None])[0], rtol=0, atol=1e-15
            )


def encoding_rows(n: int, rng) -> list[np.ndarray]:
    """Signed rows, rows with a whole zero block at each level (so
    arctan2(0, 0) angles), and signed basis vectors, on 2^n values."""
    rows = [rng.uniform(-1.0, 1.0, size=2**n) for _ in range(10)]
    for level in range(n):
        for _ in range(3):
            row = rng.normal(size=2**n)
            blocks = row.reshape(2**level, 2, -1)
            blocks[rng.integers(0, 2**level), rng.integers(0, 2)] = 0.0
            rows.append(row)
    basis = np.eye(2**n)[[0, -1, *rng.integers(0, 2**n, size=2)]]
    return rows + list(basis) + list(-basis)


def test_the_encoded_state_is_the_fragments_run_bit_for_bit():
    rng = np.random.default_rng(13)
    for n in range(1, 8):
        rows = np.array(encoding_rows(n, rng))
        batch = amplitude_encoding_batch(rows)
        assert batch.shape == rows.shape
        for row, encoded in zip(rows, batch):
            expected = StateVector(n).run(amplitude_encoding_fragment(row)).amps
            assert np.array_equal(encoded, expected)
            assert np.array_equal(amplitude_encoding_batch(row[None])[0], expected)


def test_the_batch_encoder_takes_rows_only():
    assert amplitude_encoding_batch(np.zeros((0, 8))).shape == (0, 8)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]):
        with pytest.raises(ValueError, match="a batch of rows of 2\\^n >= 2 values"):
            amplitude_encoding_batch(bad)


@pytest.mark.parametrize(
    "encode",
    [amplitude_encoding_fragment, lambda row: amplitude_encoding_batch(row[None])[0]],
    ids=["amplitude_encoding_fragment", "amplitude_encoding_batch"],
)
@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_both_encoders_refuse_a_zero_or_non_finite_row_as_normalize_rows_does(encode, bad):
    with pytest.raises(ValueError, match="^cannot amplitude-encode an all-zero or non-finite"):
        encode(np.array([bad, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("data", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]], ids=["1", "3", "2d"])
def test_preparation_takes_a_power_of_two_values_in_one_axis(data):
    with pytest.raises(ValueError, match="2\\^n >= 2 values in one axis"):
        amplitude_encoding_fragment(data)


# ---------------------------------------------------------------------------
# probability encoding
# ---------------------------------------------------------------------------


def test_probability_zero_gives_ground_state():
    state = StateVector(1).run(probability_encoding_fragment([0.0]))
    np.testing.assert_allclose(state.amps, [1, 0], atol=1e-15)
    assert state.marginal_prob_one(0) == 0.0


def test_probability_one_gives_excited_state():
    state = StateVector(1).run(probability_encoding_fragment([1.0]))
    assert abs(state.marginal_prob_one(0) - 1.0) < 1e-12


def test_probability_quarter():
    state = StateVector(1).run(probability_encoding_fragment([0.25]))
    assert abs(state.marginal_prob_one(0) - 0.25) < 1e-12


def test_out_of_range_datum_is_rejected():
    for bad in (1.2, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"\[0, 1\], got {bad}"):
            probability_encoding_fragment([0.3, bad])


def test_encode_decode_round_trip():
    state = StateVector(2).run(probability_encoding_fragment([0.1, 0.9]))
    np.testing.assert_allclose(state.marginals([0, 1]), [0.1, 0.9], atol=1e-12)


def test_round_trip_is_identity_on_random_vectors():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
        state = StateVector(len(d)).run(probability_encoding_fragment(d))
        np.testing.assert_allclose(state.marginals(range(len(d))), d, atol=1e-12)


def test_probability_registers_are_product_states(qubit_purity):
    rng = np.random.default_rng(23)
    state = StateVector(4).run(probability_encoding_fragment(rng.uniform(0, 1, size=4)))
    for q in range(4):
        assert qubit_purity(state.amps, q) >= 1.0 - 1e-10

