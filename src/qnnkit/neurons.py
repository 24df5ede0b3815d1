"""The four quantum neuron designs: circuit gadgets and closed forms.

Each neuron has two faces that must agree (the simulator is ground truth):

- a circuit builder returning a CircuitFragment, and
- a batched closed form, the one the trainer runs; the single-sample
  ``*_forward`` helpers are batch-of-one calls of it.

Kinds and their I/O encodings:

- V: variational block, amplitude in / amplitude out (or a probability
  view), reuses its input qubits. 2n trainable RY angles per block with
  a CX entangler between the two RY layers.
- U: amplitude in / probability out on one fresh ancilla. Binary +-1
  weights enter as amplitude sign flips; output Pr[1] = (sum w.x)^2 / N.
- P: probability in / probability out on one fresh ancilla. Binary
  weights enter as X gates inside a Hadamard sandwich; output is a
  product of per-input coherence factors (see p_forward).
- N: normalization, one trainable RX per qubit reshaping Pr[1] in place.

Weight conventions: binary weights are +-1 vectors (never 0); V/N angles
are unconstrained radians.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .statevec import CX, CZ, CircuitFragment, H, StateVector, X, Z, mcx, rx, ry
from .statevec import apply_1q, controlled_x, ry_entries

# ---------------------------------------------------------------------------
# weight helpers
# ---------------------------------------------------------------------------


def check_binary_weights(w) -> np.ndarray:
    w = np.asarray(w)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("binary weights must be a non-empty 1-D vector")
    if not np.all(np.abs(w) == 1):
        raise ValueError(f"binary weights must be exactly +-1, got {w}")
    return w.astype(float)


def binarize(latent) -> np.ndarray:
    """sign(latent) with sign(0) := +1, the training-time binarization."""
    return np.where(np.asarray(latent) >= 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# V: variational block
# ---------------------------------------------------------------------------


def entangler_pairs(n: int) -> list[tuple[int, int]]:
    # Ring i -> i+1 closed back to 0; the closing edge would duplicate the
    # chain edge for n=2, so the ring only closes from n=3 up.
    if n < 2:
        return []
    pairs = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        pairs.append((n - 1, 0))
    return pairs


def build_v_block(n: int, theta) -> CircuitFragment:
    """One variational block: RY layer, CX ring, RY layer (2n angles)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n,):
        raise ValueError(f"V block on {n} qubits needs {2 * n} angles, got {theta.shape}")
    frag = CircuitFragment(n)
    for q in range(n):
        frag.append(ry(theta[q]), q)
    for c, t in entangler_pairs(n):
        frag.append(CX, c, t)
    for q in range(n):
        frag.append(ry(theta[n + q]), q)
    return frag


def v_forward(x, thetas) -> np.ndarray:
    """Apply the composed V-block unitary to amplitude vector ``x``.

    ``thetas`` is one angle vector (2n,) or a stack (blocks, 2n). All the
    gates involved are real, so this runs the trainer's v stage on a real
    batch of one; the complex simulator checks it.
    """
    x = np.asarray(x, dtype=float)
    out, _ = v_stage_forward(x[None, :], _as_blocks(x.shape[0], thetas))
    return out[0]


# ---------------------------------------------------------------------------
# V: batched forward and reverse-mode gradients
# ---------------------------------------------------------------------------
#
# All V-stage gates (RY, CX) are real orthogonal, so batches of states are
# (B, 2^n) float arrays. Each RY runs through the simulator's 1-qubit
# kernel; a block's CX ring only permutes basis states, so it is one index
# gather, exact like the CX gates it replaces. The forward pass tapes the
# input of every RY layer. The backward pass is adjoint differentiation
# one layer at a time: it pulls the adjoint back through the layer's RYs
# and reads all n angle gradients of the layer off one contraction with
# the taped input (see v_stage_backward).


def _as_blocks(dim: int, thetas) -> np.ndarray:
    n = int(math.log2(dim))
    t = np.asarray(thetas, dtype=float)
    if t.ndim == 1:
        t = t[None, :]
    if t.ndim != 2 or t.shape[1] != 2 * n:
        raise ValueError(f"expected (blocks, {2 * n}) angles, got shape {t.shape}")
    return t


@functools.cache
def _v_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of an n-qubit V block: (ring, unring, pair, sign).

    ``a[:, ring]`` applies the CX ring and ``a[:, unring]`` undoes it. For
    a (2^n, 2^n) matrix G, ``G.ravel()[pair[q, i]]`` is G[i, i ^ bit_q],
    where bit_q is qubit q's bit of the index, and ``sign[q, i]`` is +1
    where i has that bit set, -1 where it has not.
    """
    idx = np.arange(2**n)
    ring = idx[None, :].copy()  # the ring run on the indices themselves
    for c, t in entangler_pairs(n):
        controlled_x(ring, (c,), (1,), t)
    ring = ring[0]
    bit = 1 << (n - 1 - np.arange(n))[:, None]  # qubit 0 is the MSB
    pair = idx * 2**n + (idx ^ bit)
    sign = np.where(idx & bit, 1.0, -1.0)
    tables = (ring, np.argsort(ring), pair, sign)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _v_stage_ops(n: int, blocks: int) -> tuple[tuple, ...]:
    """The logical gate list of ``blocks`` V blocks, as in build_v_block."""
    ops: list[tuple] = []
    for b in range(blocks):
        for q in range(n):
            ops.append(("ry", q, (b, q)))
        for c, t in entangler_pairs(n):
            ops.append(("cx", c, t))
        for q in range(n):
            ops.append(("ry", q, (b, n + q)))
    return tuple(ops)


def v_stage_forward(x: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run all V blocks over a batch (B, 2^n); returns (out, tape).

    The tape holds the angles, the logical gate list ``ops`` and
    ``inputs``: the (B, 2^n) input of each of the 2 * blocks RY layers,
    the first being ``x`` itself (kept by reference, not copied).
    """
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    n = int(math.log2(x.shape[1]))
    ring = _v_tables(n)[0]
    inputs = []
    a = x
    for block in thetas:
        for layer, angles in enumerate((block[:n], block[n:])):
            if layer:
                a = a[:, ring]
            inputs.append(a)
            a = a.copy()
            for q, theta in enumerate(angles):
                apply_1q(a, q, *ry_entries(theta))
    tape = {"ops": _v_stage_ops(n, len(thetas)), "thetas": thetas, "inputs": inputs}
    return a, tape


def v_stage_backward(tape: dict, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint pass: gradients w.r.t. every angle and the input batch.

    A layer maps its taped input psi to R psi, with R the RYs of its n
    angles. dRY/dtheta = RY K for K = [[0, -1], [1, 0]] / 2, and K on qubit
    q commutes with the RYs on the other qubits, so with mu = R^T lambda
    the gradient of angle q is sum_b mu_b . K_q psi_b = 1/2 sum_i
    sign_q[i] G[i, i ^ bit_q] for G = mu^T psi. mu is then the adjoint of
    the layer's input.
    """
    thetas = tape["thetas"]
    n = thetas.shape[1] // 2
    _, unring, pair, sign = _v_tables(n)
    lam = np.array(grad_out, dtype=float)
    grad_theta = np.empty_like(thetas)
    for k in reversed(range(len(tape["inputs"]))):
        b, layer = divmod(k, 2)
        angles = slice(layer * n, (layer + 1) * n)
        for q, theta in enumerate(thetas[b, angles]):
            apply_1q(lam, q, *ry_entries(-theta))  # RY^-1 = RY^T = RY(-theta)
        G = lam.T @ tape["inputs"][k]
        grad_theta[b, angles] = 0.5 * np.einsum("qi,qi->q", G.ravel()[pair], sign)
        if layer:
            lam = lam[:, unring]
    return grad_theta, lam


# ---------------------------------------------------------------------------
# U: sign-flip neuron on amplitude encodings
# ---------------------------------------------------------------------------


def amplitude_sign_flips(w) -> CircuitFragment:
    """Compile a +-1 diagonal into Z-family gates: amp k is negated iff w[k] = -1.

    The sign pattern (-1)^f(k) is reduced to f's algebraic normal form;
    each XOR monomial becomes Z (degree 1), CZ (degree 2) or an
    H-conjugated MCX acting as a multi-controlled Z (degree >= 3). A
    constant term is the global phase -1, realized as ZXZX on qubit 0.
    """
    w = check_binary_weights(w)
    size = len(w)
    n = int(math.log2(size))
    if 2**n != size:
        raise ValueError(f"weight length must be a power of two, got {size}")

    anf = (w < 0).astype(int)
    for bit in range(n):
        step = 1 << bit
        for k in range(size):
            if k & step:
                anf[k] ^= anf[k ^ step]

    frag = CircuitFragment(n)
    if anf[0]:
        for g in (Z, X, Z, X):  # net -I: exact global sign, no approximation
            frag.append(g, 0)
    for mask in range(1, size):
        if not anf[mask]:
            continue
        qubits = [q for q in range(n) if (mask >> (n - 1 - q)) & 1]
        if len(qubits) == 1:
            frag.append(Z, qubits[0])
        elif len(qubits) == 2:
            frag.append(CZ, qubits[0], qubits[1])
        else:
            *controls, target = qubits
            frag.append(H, target)
            frag.append(mcx((1,) * len(controls)), *controls, target)
            frag.append(H, target)
    return frag


def build_u_neuron(n: int, w) -> CircuitFragment:
    """Weighted-sum neuron: sign flips, H on all inputs, anti-controlled
    MCX onto a fresh ancilla (qubit n). Ancilla Pr[1] = (sum w.x)^2 / 2^n."""
    w = check_binary_weights(w)
    if len(w) != 2**n:
        raise ValueError(f"U neuron on {n} qubits needs {2**n} weights, got {len(w)}")
    frag = amplitude_sign_flips(w)
    frag = CircuitFragment(n + 1).compose(frag)
    for q in range(n):
        frag.append(H, q)
    frag.append(mcx((0,) * n), *range(n), n)
    return frag


def u_forward_batch(X: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, dot): (X W^T)^2 / N and X W^T for rows X (B, N), +-1 rows W (k, N)."""
    dot = X @ W.T
    return dot**2 / X.shape[1], dot


def u_forward(x, w) -> float:
    """(sum_k w_k x_k)^2 / N for an L2-normalized amplitude vector x."""
    x = np.asarray(x, dtype=float)
    w = check_binary_weights(w)
    if len(x) != len(w):
        raise ValueError(f"length mismatch: {len(x)} inputs vs {len(w)} weights")
    return float(u_forward_batch(x[None, :], w[None, :])[0][0, 0])


# ---------------------------------------------------------------------------
# P: coherence-product neuron on probability encodings
# ---------------------------------------------------------------------------


def build_p_neuron(m: int, w) -> CircuitFragment:
    """Probability neuron: H sandwich on the m inputs with weight X gates
    adjacent to an anti-controlled MCX onto a fresh ancilla (qubit m).

    The trailing X/H suffix returns the inputs to their standby frame so
    sibling P neurons in the same layer can share them; each sibling's
    ancilla marginal still equals its own p_forward value exactly.
    """
    w = check_binary_weights(w)
    if len(w) != m:
        raise ValueError(f"P neuron on {m} inputs needs {m} weights, got {len(w)}")
    frag = CircuitFragment(m + 1)
    for q in range(m):
        frag.append(H, q)
    flipped = [q for q in range(m) if w[q] < 0]
    for q in flipped:
        frag.append(X, q)
    frag.append(mcx((0,) * m), *range(m), m)
    for q in flipped:
        frag.append(X, q)
    for q in range(m):
        frag.append(H, q)
    return frag


def p_forward_batch(P: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(out, s, factors) of p_forward for rows P (B, m), +-1 rows W (k, m).

    out is (B, k), s = sqrt(p(1-p)) is (B, m), factors is (B, k, m).
    """
    # clip guards fp spill just outside [0, 1] (e.g. d^2/N = 1 + eps)
    s = np.sqrt(np.clip(P * (1.0 - P), 0.0, None))
    factors = (1.0 + 2.0 * s[:, None, :] * W[None, :, :]) / 2.0
    return factors.prod(axis=2), s, factors


def p_forward(p, w) -> float:
    """Product of per-input factors (1 + 2 w_i sqrt(p_i (1 - p_i))) / 2.

    For w_i = +1 the factor is g(p) = (1 + 2 sqrt(p(1-p))) / 2; a negative
    weight flips the sign of the coherence term, giving 1 - g(p).
    """
    p = np.asarray(p, dtype=float)
    w = check_binary_weights(w)
    if len(p) != len(w):
        raise ValueError(f"length mismatch: {len(p)} inputs vs {len(w)} weights")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("P neuron inputs are probabilities in [0, 1]")
    return float(p_forward_batch(p[None, :], w[None, :])[0][0, 0])


# ---------------------------------------------------------------------------
# N: normalization neuron
# ---------------------------------------------------------------------------


def build_n_neuron(theta: float) -> CircuitFragment:
    """One RX rotation reshaping a probability-encoded qubit in place."""
    return CircuitFragment(1).append(rx(theta), 0)


def n_forward_batch(P: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """n_forward as sin^2(theta/2) + p cos(theta); theta is (1,) or one per column."""
    return np.sin(theta / 2) ** 2 + P * np.cos(theta)


def n_forward(p: float, theta: float) -> float:
    """p cos^2(theta/2) + (1 - p) sin^2(theta/2)."""
    return float(n_forward_batch(float(p), float(theta)))


# ---------------------------------------------------------------------------
# simulation helpers used by tests and by full-network circuit inference
# ---------------------------------------------------------------------------


def simulate_u_neuron(x, w) -> float:
    """Ancilla marginal from an exact run of the U gadget on amplitudes x."""
    x = np.asarray(x, dtype=float)
    n = int(math.log2(len(x)))
    state = StateVector(n + 1)
    reg = np.zeros(2 ** (n + 1), dtype=complex)
    reg[::2] = x  # amplitudes on the input register, ancilla |0>
    state.amps = reg
    state.run(build_u_neuron(n, w))
    return state.marginal_prob_one(n)


def simulate_p_neuron(p, w) -> float:
    """Ancilla marginal from an exact run of the P gadget on fresh encodings."""
    from .encoding import probability_encode

    p = np.asarray(p, dtype=float)
    m = len(p)
    frag, _ = probability_encode(p)
    state = StateVector(m + 1)
    state.run(CircuitFragment(m + 1).compose(frag))
    state.run(build_p_neuron(m, w))
    return state.marginal_prob_one(m)
