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
    FUSION_WIDTH,
    CircuitFragment,
    Gate,
    H,
    StateVector,
    X,
    Z,
    apply_1q,
    controlled_x,
    fuse,
    mcx,
    mcz,
    phase_flip,
    rx,
    ry,
    with_zeros,
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
    kind = rng.choice(["H", "X", "Z", "RX", "RY", "CX", "CZ", "MCX", "MCZ"])
    if kind in ("RX", "RY"):
        g = rx(rng.uniform(-np.pi, np.pi)) if kind == "RX" else ry(rng.uniform(-np.pi, np.pi))
    elif kind in ("MCX", "MCZ"):
        n_controls = int(rng.integers(1, 4))
        g = (mcx if kind == "MCX" else mcz)(tuple(int(b) for b in rng.integers(0, 2, n_controls)))
    else:
        g = {"H": H, "X": X, "Z": Z, "CX": CX, "CZ": CZ}[kind]
    return g, g.arity


def apply_kernel(batch: np.ndarray, gate: Gate, positions) -> None:
    """Dispatch one gate to the batch kernels: H, RX and RY with entries
    from its dense matrix, the controlled kinds with their polarities."""
    if gate.kind in ("H", "RX", "RY"):
        m = gate.matrix()
        entries = m.ravel() if np.iscomplexobj(batch) else m.real.ravel()
        apply_1q(batch, positions[0], *entries)
    else:
        kernel = phase_flip if gate.kind in ("Z", "CZ") else controlled_x
        kernel(batch, positions[:-1], gate.polarities, positions[-1])


# ---------------------------------------------------------------------------
# a fresh register
# ---------------------------------------------------------------------------


def test_ground_state_one_qubit():
    assert np.array_equal(StateVector(1).amps, [1, 0])


def test_ground_state_two_qubits():
    assert np.array_equal(StateVector(2).amps, [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# apply: spec'd examples
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    s = StateVector(1).apply(H, [0])
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
        StateVector(2).apply(H, [0, 1])


def test_apply_duplicate_indices():
    with pytest.raises(ValueError, match="duplicate"):
        StateVector(2).apply(CX, [1, 1])


def test_apply_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        StateVector(2).apply(X, [2])


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginals_of_the_ground_state_are_zero():
    assert StateVector(1).marginal_prob_one(0) == 0.0
    assert StateVector(1).marginals([0]).tolist() == [0.0]
    assert StateVector(3).marginals([2, 0, 1]).tolist() == [0.0, 0.0, 0.0]


def test_marginal_of_bell_state():
    s = StateVector(2).apply(H, [0]).apply(CX, [0, 1])
    assert abs(s.marginal_prob_one(0) - 0.5) < 1e-12
    assert abs(s.marginal_prob_one(1) - 0.5) < 1e-12


def test_marginals_reject_a_qubit_outside_the_register():
    with pytest.raises(ValueError, match="out of range"):
        StateVector(2).marginal_prob_one(2)
    with pytest.raises(ValueError, match="out of range"):
        StateVector(2).marginals([0, 2])


def test_marginals_match_the_basis_state_sums_on_random_states():
    rng = np.random.default_rng(24)
    for n in (1, 3, 6):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        qubits = list(rng.permutation(n))
        probs = np.abs(state.amps) ** 2
        bits = (np.arange(2**n)[:, None] >> (n - 1 - np.array(qubits))) & 1
        expected = probs @ bits  # Pr[1] of q: the basis states whose bit q is set
        np.testing.assert_allclose(state.marginals(qubits), expected, rtol=0, atol=1e-12)


def test_marginal_complements_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        s = StateVector(n, amps)
        probs = (np.abs(s.amps) ** 2).reshape([2] * n)
        for q in range(n):
            axes = tuple(i for i in range(n) if i != q)
            zero = float(probs.sum(axis=axes)[0]) if axes else float(probs[0])
            assert abs(s.marginal_prob_one(q) - (1 - zero)) < 1e-12


# ---------------------------------------------------------------------------
# qubit purity
# ---------------------------------------------------------------------------


def test_product_basis_state(qubit_purity):
    s = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))  # |01>
    assert qubit_purity(s.amps, 0) >= 1.0 - 1e-9
    assert qubit_purity(s.amps, 1) >= 1.0 - 1e-9


def test_bell_state_is_entangled(qubit_purity):
    s = StateVector(2).apply(H, [0]).apply(CX, [0, 1])
    assert qubit_purity(s.amps, 0) < 1.0 - 1e-9
    # purity of a maximally mixed qubit is exactly 1/2
    assert abs(qubit_purity(s.amps, 0) - 0.5) < 1e-12


def test_product_of_superpositions(qubit_purity):
    s = StateVector(2).apply(H, [0]).apply(H, [1])
    assert qubit_purity(s.amps, 1) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# properties: unitarity, embedding, norm
# ---------------------------------------------------------------------------


def test_gate_matrices_are_pinned():
    c, s = math.cos(0.3), math.sin(0.3)
    r = SQRT2_INV
    swap_6_7 = list(range(16))
    swap_6_7[6:8] = [7, 6]
    expected = {
        H: [[r, r], [r, -r]],
        X: [[0, 1], [1, 0]],
        Z: [[1, 0], [0, -1]],
        CX: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        CZ: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        rx(0.6): [[c, -1j * s], [-1j * s, c]],
        ry(0.6): [[c, -s], [s, c]],
        mcx((0,)): [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        mcx((1, 0)): np.eye(8)[[0, 1, 2, 3, 5, 4, 6, 7]],
        mcx((0, 1, 1)): np.eye(16)[swap_6_7],
        mcz((0, 1)): np.diag([1, 1, 1, -1, 1, 1, 1, 1]),
    }
    for gate, matrix in expected.items():
        got = gate.matrix()
        assert got.dtype == complex and np.array_equal(got, matrix), gate


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(11)
    gates = [H, X, Z, CX, CZ, mcx((0,)), mcx((1, 0)), mcx((0, 1, 1)), mcz((1, 0, 1))]
    gates += [rx(rng.uniform(-6, 6)) for _ in range(5)]
    gates += [ry(rng.uniform(-6, 6)) for _ in range(5)]
    for g in gates:
        m = g.matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def kron_cases(rng):
    """(n, gate): random draws that fit n qubits, then multi-controlled CZ
    with mixed polarities, which the draws may miss."""
    for _ in range(60):
        n = int(rng.integers(1, 5))
        gate, arity = random_gate(rng)
        if arity <= n:
            yield n, gate
    yield from [(3, mcz((0, 1))), (4, mcz((1, 0))), (4, mcz((1, 0, 1)))]


def test_inplace_application_matches_kron_oracle():
    rng = np.random.default_rng(13)
    for n, gate in kron_cases(rng):
        positions = list(rng.choice(n, size=gate.arity, replace=False))
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
        s = StateVector(n)
        applied = 0
        while applied < 200:
            gate, arity = random_gate(rng)
            qubits = list(rng.choice(n, size=arity, replace=False))
            s.apply(gate, qubits)
            applied += 1
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


def test_fragment_compose_concatenates_and_takes_max_span():
    a = CircuitFragment(3).append(H, 0)
    b = CircuitFragment(2).append(CX, 0, 1)
    assert a.extend(b) is a  # in place
    assert a.qubit_span == 3
    assert [g.kind for g, _ in a.ops] == ["H", "CX"]
    assert len(b.ops) == 1


def test_fragment_rejects_out_of_span_indices():
    with pytest.raises(ValueError, match="span"):
        CircuitFragment(2).append(X, 2)


def test_fragment_append_rejects_duplicate_qubits():
    with pytest.raises(ValueError, match="duplicate"):
        CircuitFragment(2).append(CX, 1, 1)


def test_fragment_append_rejects_wrong_arity():
    with pytest.raises(ValueError, match="takes 1 qubit"):
        CircuitFragment(2).append(H, 0, 1)


def test_fragment_extend_with_a_mapping_renames_only_the_listed_qubits():
    p = CircuitFragment(3).append(H, 0).append(mcx((0, 1)), 0, 1, 2)
    f = CircuitFragment(4).extend(p, {2: 3})
    assert [qs for _, qs in f.ops] == [(0,), (0, 1, 3)]
    # a mapping that moves every qubit
    f = CircuitFragment(5).extend(CircuitFragment(2).append(CX, 0, 1), {0: 3, 1: 4})
    assert f.qubit_span == 5
    assert f.ops == [(CX, (3, 4))]


def test_fragment_extend_checks_each_renamed_gate():
    with pytest.raises(ValueError, match="duplicate"):
        CircuitFragment(3).extend(CircuitFragment(2).append(CX, 0, 1), {0: 1})
    with pytest.raises(ValueError, match="span"):
        CircuitFragment(3).extend(CircuitFragment(2).append(X, 1), {1: 3})


def test_fragment_extend_rejects_a_wider_fragment():
    with pytest.raises(ValueError, match="spans 3"):
        CircuitFragment(2).extend(CircuitFragment(3).append(H, 2))


def test_fragment_ops_are_not_a_constructor_argument():
    with pytest.raises(TypeError):
        CircuitFragment(1, ops=[(H, (0,))])
    with pytest.raises(TypeError):
        CircuitFragment(1, [(H, (0,))])


def test_run_does_not_check_the_qubits_a_fragment_already_checked(monkeypatch):
    import qnnkit.statevec as statevec

    rng = np.random.default_rng(29)
    frag = random_fragment(rng, 6, 60)
    amps = random_state(rng, 6)
    expected = StateVector(6, amps.copy())
    for gate, qubits in frag.ops:
        expected.apply(gate, qubits)
    calls = []
    check = statevec.check_qubits
    monkeypatch.setattr(statevec, "check_qubits", lambda *a: calls.append(a) or check(*a))
    assert np.array_equal(StateVector(6, amps).run(frag).amps, expected.amps)
    assert calls == []


def test_run_rejects_fragment_wider_than_register():
    with pytest.raises(ValueError, match="spans"):
        StateVector(1).run(CircuitFragment(2).append(H, 1))


def test_with_zeros_puts_the_fresh_qubits_after_a_vectors_qubits():
    amps = np.random.default_rng(81).normal(size=8) + 0j
    expected = np.zeros(8 << 2, dtype=complex)
    expected[::4] = amps
    state = with_zeros(amps, 2)
    assert state.n_qubits == 5
    assert np.array_equal(state.amps, expected)


def test_with_zeros_puts_the_fresh_qubits_between_a_matrixs_row_and_column_qubits():
    rng = np.random.default_rng(82)
    m = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    expected = np.zeros(2**6, dtype=complex)  # 2 row qubits, 3 fresh, 1 column qubit
    for row in range(4):
        for col in range(2):
            expected[row * 2**4 + col] = m[row, col]
    state = with_zeros(m, 3)
    assert state.n_qubits == 6
    assert np.array_equal(state.amps, expected)
    assert np.array_equal(with_zeros(m, 0).amps, m.ravel())


def test_mcx_triggers_on_all_zeros_with_negative_polarity():
    # |00> with both controls at polarity 0 flips the target.
    s = StateVector(3).apply(mcx((0, 0)), [0, 1, 2])
    np.testing.assert_allclose(s.amps[1], 1.0, atol=1e-15)  # |001>


# ---------------------------------------------------------------------------
# fused programs
# ---------------------------------------------------------------------------


def random_state(rng, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_fragment(rng, n: int, count: int) -> CircuitFragment:
    """``count`` random gates on n qubits; a fifth are MCX or multi-controlled
    CZ on up to n qubits."""
    frag = CircuitFragment(n)
    while len(frag.ops) < count:
        if n > 1 and rng.random() < 0.2:
            arity = int(rng.integers(2, n + 1))
            controlled = mcx if rng.random() < 0.5 else mcz
            gate = controlled(tuple(int(b) for b in rng.integers(0, 2, arity - 1)))
        else:
            gate, arity = random_gate(rng)
            if arity > n:
                continue
        frag.append(gate, *(int(q) for q in rng.choice(n, size=arity, replace=False)))
    return frag


def kron_unitary(fragment: CircuitFragment) -> np.ndarray:
    """The fragment's 2^n x 2^n unitary: each Gate.matrix() np.kron'd with
    the identity on the other qubits, its axes moved to the gate's qubits."""
    n = fragment.qubit_span
    total = np.eye(2**n, dtype=complex)
    for gate, qubits in fragment.ops:
        full = np.kron(gate.matrix(), np.eye(2 ** (n - len(qubits))))  # gate qubits first
        order = list(qubits) + [q for q in range(n) if q not in qubits]
        perm = list(np.argsort(order))
        full = full.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
        total = full.reshape(2**n, 2**n) @ total
    return total


def test_a_fragment_within_the_window_fuses_to_its_kron_product():
    rng = np.random.default_rng(19)
    for n in range(1, FUSION_WIDTH + 1):
        for _ in range(10):
            frag = random_fragment(rng, n, 12)
            (step,) = fuse(frag).steps
            lo, matrix = step
            assert lo == 0 and not matrix.flags.writeable
            np.testing.assert_allclose(matrix, kron_unitary(frag), rtol=0, atol=1e-13)


def test_fused_programs_match_gate_by_gate_runs():
    rng = np.random.default_rng(23)
    wide_kinds = set()
    first_window = last_window = False
    for n in range(1, 9):
        for _ in range(15):
            frag = random_fragment(rng, n, int(rng.integers(1, 40)))
            program = fuse(frag)
            amps = random_state(rng, n)
            fused = program.run(amps[None].copy())[0]
            np.testing.assert_allclose(
                fused, StateVector(n, amps).run(frag).amps, rtol=0, atol=1e-13
            )
            for head, _ in program.steps:
                if isinstance(head, Gate):
                    wide_kinds.add(head.kind if len(set(head.polarities)) == 2 else "one polarity")
                elif n > FUSION_WIDTH:
                    first_window |= head == 0
                    last_window |= head == n - FUSION_WIDTH
            # a register wider than the program's span takes it too, like StateVector.run
            wider = random_state(rng, n + 1)
            np.testing.assert_allclose(
                program.run(wider[None].copy())[0],
                StateVector(n + 1, wider).run(frag).amps, rtol=0, atol=1e-13,
            )
    # wide gates with mixed polarities of both types ran as kernel steps
    assert {"MCX", "CZ"} <= wide_kinds and first_window and last_window


def test_a_program_rejects_a_narrower_register():
    with pytest.raises(ValueError, match="spans 2"):
        fuse(CircuitFragment(2).append(H, 1)).run(StateVector(1).amps[None])
