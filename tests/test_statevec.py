"""State-vector simulator tests.

The embedding oracle here is deliberately independent of the library's
stride kernels: it builds the full 2^n x 2^n matrix for a gate placed at
arbitrary qubit positions and multiplies it out.
"""

import math

import numpy as np
import pytest

from qnnkit.statevec import (
    CX,
    CZ,
    CircuitFragment,
    Gate,
    H,
    ResourceLimitError,
    StateVector,
    X,
    Z,
    apply_1q,
    controlled_x,
    mcx,
    new_state,
    phase_flip,
    rx,
    ry,
)

SQRT2_INV = 1 / math.sqrt(2)


def embed_oracle(mat: np.ndarray, positions, n: int) -> np.ndarray:
    """Full 2^n matrix of ``mat`` placed at ``positions`` (qubit 0 = MSB)."""
    k = len(positions)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = sum(bits[positions[j]] << (k - 1 - j) for j in range(k))
        for sub_out in range(2**k):
            out_bits = list(bits)
            for j in range(k):
                out_bits[positions[j]] = (sub_out >> (k - 1 - j)) & 1
            row = sum(out_bits[q] << (n - 1 - q) for q in range(n))
            full[row, col] = mat[sub_out, sub_in]
    return full


def random_gate(rng) -> tuple[Gate, int]:
    """Random gate plus its arity, for circuit fuzzing."""
    kind = rng.choice(["H", "X", "Z", "RX", "RY", "CX", "CZ", "MCX"])
    if kind in ("RX", "RY"):
        g = rx(rng.uniform(-np.pi, np.pi)) if kind == "RX" else ry(rng.uniform(-np.pi, np.pi))
    elif kind == "MCX":
        n_controls = int(rng.integers(1, 4))
        g = mcx(tuple(int(b) for b in rng.integers(0, 2, n_controls)))
    else:
        g = {"H": H, "X": X, "Z": Z, "CX": CX, "CZ": CZ}[kind]
    return g, g.arity


def apply_kernel(batch: np.ndarray, gate: Gate, positions) -> None:
    """Dispatch one gate to the batch kernels, entries from its dense matrix."""
    if gate.arity == 1:
        m = gate.matrix()
        entries = m.ravel() if np.iscomplexobj(batch) else m.real.ravel()
        apply_1q(batch, positions[0], *entries)
    elif gate.kind == "CZ":
        phase_flip(batch, positions)
    else:
        polarities = gate.polarities or (1,)
        controlled_x(batch, positions[:-1], polarities, positions[-1])


# ---------------------------------------------------------------------------
# new_state
# ---------------------------------------------------------------------------


def test_ground_state_one_qubit():
    assert np.array_equal(new_state(1).amps, [1, 0])


def test_ground_state_two_qubits():
    assert np.array_equal(new_state(2).amps, [1, 0, 0, 0])


def test_qubit_cap_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match="2\\^25"):
        new_state(25)


def test_cap_is_configurable():
    assert new_state(5, max_qubits=5).n_qubits == 5
    with pytest.raises(ResourceLimitError):
        new_state(6, max_qubits=5)


# ---------------------------------------------------------------------------
# apply: spec'd examples
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    s = new_state(1).apply(H, [0])
    np.testing.assert_allclose(s.amps, [SQRT2_INV, SQRT2_INV], atol=1e-15)


def test_rx_pi_swaps_probabilities():
    # Oracle: multiply the RX(pi) matrix by the encoded state directly.
    p = 0.3
    state_vec = np.array([math.sqrt(1 - p), math.sqrt(p)], dtype=complex)
    expected = rx(math.pi).matrix() @ state_vec

    s = StateVector(1, state_vec.copy()).apply(rx(math.pi), [0])
    np.testing.assert_allclose(s.amps, expected, atol=1e-14)
    assert abs(s.marginal_prob_one(0) - (1 - p)) < 1e-12


def test_cx_on_basis_state():
    s = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
    s.apply(CX, [0, 1])
    np.testing.assert_allclose(s.amps, [0, 0, 0, 1], atol=1e-15)  # |11>


def test_apply_arity_mismatch():
    with pytest.raises(ValueError, match="takes 1 qubit"):
        new_state(2).apply(H, [0, 1])


def test_apply_duplicate_indices():
    with pytest.raises(ValueError, match="duplicate"):
        new_state(2).apply(CX, [1, 1])


def test_apply_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        new_state(2).apply(X, [2])


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_of_ground_state():
    assert new_state(1).marginal_prob_one(0) == 0.0


def test_marginal_of_bell_state():
    s = new_state(2).apply(H, [0]).apply(CX, [0, 1])
    assert abs(s.marginal_prob_one(0) - 0.5) < 1e-12
    assert abs(s.marginal_prob_one(1) - 0.5) < 1e-12


def test_marginal_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        new_state(2).marginal_prob_one(2)


def test_marginal_complements_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        s = StateVector(n, amps)
        probs = s.probabilities().reshape([2] * n)
        for q in range(n):
            axes = tuple(i for i in range(n) if i != q)
            zero = float(probs.sum(axis=axes)[0]) if axes else float(probs[0])
            assert abs(s.marginal_prob_one(q) - (1 - zero)) < 1e-12


# ---------------------------------------------------------------------------
# is_product_qubit
# ---------------------------------------------------------------------------


def test_product_basis_state():
    s = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))  # |01>
    assert s.is_product_qubit(0)
    assert s.is_product_qubit(1)


def test_bell_state_is_entangled():
    s = new_state(2).apply(H, [0]).apply(CX, [0, 1])
    assert not s.is_product_qubit(0)
    # purity of a maximally mixed qubit is exactly 1/2
    rho = s.reduced_density_matrix(0)
    assert abs(np.real(np.trace(rho @ rho)) - 0.5) < 1e-12


def test_product_of_superpositions():
    s = new_state(2).apply(H, [0]).apply(H, [1])
    assert s.is_product_qubit(1)


# ---------------------------------------------------------------------------
# properties: unitarity, embedding, norm, inverses
# ---------------------------------------------------------------------------


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(11)
    gates = [H, X, Z, CX, CZ, mcx((0,)), mcx((1, 0)), mcx((0, 1, 1))]
    gates += [rx(rng.uniform(-6, 6)) for _ in range(5)]
    gates += [ry(rng.uniform(-6, 6)) for _ in range(5)]
    for g in gates:
        m = g.matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def test_inplace_application_matches_kron_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        gate, arity = random_gate(rng)
        if arity > n:
            continue
        positions = list(rng.choice(n, size=arity, replace=False))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)

        oracle = embed_oracle(gate.matrix(), positions, n)
        got = StateVector(n, amps.copy()).apply(gate, positions).amps
        np.testing.assert_allclose(got, oracle @ amps, atol=1e-12)

        # the same gate through the shared batch kernels, on complex rows
        # and, for real gates, on real rows
        rows = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        batches = [rows] if gate.kind == "RX" else [rows, rows.real.copy()]
        for batch in batches:
            expected = batch @ oracle.T
            apply_kernel(batch, gate, positions)
            np.testing.assert_allclose(batch, expected, atol=1e-12)


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(17)
    for n in (8, 10):
        s = new_state(n)
        applied = 0
        while applied < 200:
            gate, arity = random_gate(rng)
            qubits = list(rng.choice(n, size=arity, replace=False))
            s.apply(gate, qubits)
            applied += 1
        assert s.norm_error() < 1e-9


def test_gate_then_inverse_restores_state():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = 3
        gate, arity = random_gate(rng)
        if arity > n:
            continue
        qubits = list(rng.choice(n, size=arity, replace=False))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        s = StateVector(n, amps.copy())
        s.apply(gate, qubits).apply(gate.inverse(), qubits)
        np.testing.assert_allclose(s.amps, amps, atol=1e-10)


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


def test_fragment_compose_concatenates_and_takes_max_span():
    a = CircuitFragment(2).append(H, 0)
    b = CircuitFragment(3).append(CX, 1, 2)
    c = a.compose(b)
    assert c.qubit_span == 3
    assert [g.kind for g, _ in c.ops] == ["H", "CX"]


def test_fragment_rejects_out_of_span_indices():
    with pytest.raises(ValueError, match="span"):
        CircuitFragment(2).append(X, 2)


def test_fragment_shift_moves_all_indices():
    f = CircuitFragment(2).append(CX, 0, 1).shifted(3)
    assert f.qubit_span == 5
    assert f.ops[0][1] == (3, 4)


def test_fragment_inverse_undoes_fragment():
    rng = np.random.default_rng(23)
    frag = CircuitFragment(3)
    for _ in range(30):
        gate, arity = random_gate(rng)
        if arity > 3:
            continue
        frag.append(gate, *rng.choice(3, size=arity, replace=False))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = StateVector(3, amps.copy()).run(frag).run(frag.inverse())
    np.testing.assert_allclose(s.amps, amps, atol=1e-10)


def test_run_rejects_fragment_wider_than_register():
    with pytest.raises(ValueError, match="spans"):
        new_state(1).run(CircuitFragment(2).append(H, 1))


def test_mcx_triggers_on_all_zeros_with_negative_polarity():
    # |00> with both controls at polarity 0 flips the target.
    s = new_state(3).apply(mcx((0, 0)), [0, 1, 2])
    np.testing.assert_allclose(s.amps[1], 1.0, atol=1e-15)  # |001>
