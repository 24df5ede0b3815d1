"""The four quantum neuron designs: gadgets, forward forms and gradients.

Each neuron has three parts, kept together in its section:

- a circuit builder (the gadget) returning a CircuitFragment;
- a batched closed form, the one the trainer runs, which must agree with
  the gadget (the simulator is ground truth);
- that form's reverse-mode gradient, ``*_backward_batch`` (the v stage's
  ``v_stage_backward``).

Kinds and their I/O encodings:

- V: variational block, amplitude in / amplitude out (or a probability
  view), reuses its input qubits. 2n trainable RY angles per block with
  a CX entangler between the two RY layers.
- U: amplitude in / probability out on one fresh ancilla. Binary +-1
  weights enter as amplitude sign flips, one Z or multi-controlled Z per
  term of their algebraic normal form, up to the global sign w[0], which
  a fresh register cannot show; output Pr[1] = (sum w.x)^2 / N.
- P: probability in / probability out on one fresh ancilla. Binary
  weights enter as the control polarities of an MCX inside a Hadamard
  sandwich; output is a product of per-input coherence factors (see
  p_forward_batch).
- N: normalization, one trainable RX per qubit reshaping Pr[1] in place.

Weight conventions: binary weights are +-1 vectors (never 0); V/N angles
are unconstrained radians.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .statevec import CX, CircuitFragment, H, Z, controlled_x, mcx, mcz, rx, ry

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


# ---------------------------------------------------------------------------
# V: batched forward and reverse-mode gradients
# ---------------------------------------------------------------------------
#
# All V-stage gates (RY, CX) are real orthogonal, so batches of states are
# real arrays. The stage runs them amplitude-major: it transposes the
# (B, 2^n) batch once into a C-ordered (2^n, B) array, so each gate moves
# whole rows. An RY on qubit q mixes each amplitude with its partner
# across bit q: one row gather ``take(partner, axis=0)``, then the
# simulator's 1-qubit kernel arithmetic, products then one sum (see
# _ry_layer), byte-identical to apply_1q. A block's CX ring only permutes
# basis states, so it is one row gather too, exact like the CX gates it
# replaces. Every step but the gathers is elementwise, so the layout
# changes no rounding there.
#
# The forward pass tapes the input of every RY layer. The backward pass is
# adjoint differentiation one layer at a time: it pulls the adjoint back
# through the layer's RYs and reads all n angle gradients of the layer off
# one GEMM G = mu^T psi with the taped input (see v_stage_backward). That
# GEMM is the one step whose rounding depends on memory layout: BLAS sums
# in another order for transposed operands. Each GEMM sees the operand
# layouts of the batch-major stage that the amplitude-major one replaced,
# which kept the theta gradients byte-identical to it, so training
# reproduces earlier runs. No test pins those bytes across versions.
# psi is row-major (B, 2^n) at a block's first layer (``x`` itself, or a C copy) and the
# ``.T`` view of the ring's row gather (column-major) after the ring. mu
# is row-major (B, 2^n) in the first GEMM, before the first unring, and
# the ``.T`` view of the amplitude-major adjoint in every later one.


@functools.cache
def _v_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index tables of an n-qubit V block: (ring, unring, partner, pair, sign).

    For an amplitude-major batch A (2^n, B), ``A.take(ring, axis=0)``
    applies the CX ring and ``A.take(unring, axis=0)`` undoes it.
    ``partner[q, i]`` is i ^ bit_q, where bit_q is qubit q's bit of the
    index, and ``sign[q, i]`` is +1 where i has that bit set, -1 where it
    has not. For a (2^n, 2^n) matrix G, ``G.ravel()[pair[q, i]]`` is
    G[i, partner[q, i]].
    """
    idx = np.arange(2**n)
    ring = idx[None, :].copy()  # the ring run on the indices themselves
    for c, t in entangler_pairs(n):
        controlled_x(ring, (c,), (1,), t)
    ring = ring[0]
    bit = 1 << (n - 1 - np.arange(n))[:, None]  # qubit 0 is the MSB
    partner = idx ^ bit
    sign = np.where(idx & bit, 1.0, -1.0)
    tables = (ring, np.argsort(ring), partner, idx * 2**n + partner, sign)
    for table in tables:
        table.setflags(write=False)
    return tables


def _ry_layer(a: np.ndarray, partner: np.ndarray, sign: np.ndarray, angles) -> np.ndarray:
    """RY(angles[q]) on each qubit q in turn of the amplitude-major batch
    a (2^n, B), as a new C-ordered array.

    Row i becomes c a[i] + (s sign[i]) a[i ^ bit]: with bit clear that is
    apply_1q's c x0 + (-s) x1, with it set s x0 + c x1 summed the other
    way round, and one addition commutes exactly.
    """
    for q, theta in enumerate(angles):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        new = c * a
        new += (s * sign[q, :, None]) * a.take(partner[q], axis=0)
        a = new
    return a


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
    """Run all V blocks over a batch x (B, 2^n); returns (out, tape).

    ValueError unless x is (B, 2^n) with n >= 1 and thetas is
    (blocks, 2n). ``out`` is a new C-ordered (B, 2^n) array. The tape
    holds the angles, the logical gate list ``ops`` and ``inputs``: the
    (B, 2^n) input of each of the 2 * blocks RY layers, in the layouts
    the GEMM of v_stage_backward needs, the first being ``x`` itself
    (kept by reference, not copied).
    """
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2 or x.shape[1] & (x.shape[1] - 1):
        raise ValueError(f"V stage needs a (B, 2^n) batch with n >= 1, got shape {x.shape}")
    n = x.shape[1].bit_length() - 1
    if thetas.ndim != 2 or thetas.shape[1] != 2 * n:
        raise ValueError(f"V block on {n} qubits needs {2 * n} angles, got {thetas.shape}")
    ring, _, partner, _, sign = _v_tables(n)
    inputs = []
    a = np.ascontiguousarray(x.T)
    for block in thetas:
        inputs.append(np.ascontiguousarray(a.T) if inputs else x)
        a = _ry_layer(a, partner, sign, block[:n])
        a = a.take(ring, axis=0)
        inputs.append(a.T)
        a = _ry_layer(a, partner, sign, block[n:])
    tape = {"ops": _v_stage_ops(n, len(thetas)), "thetas": thetas, "inputs": inputs}
    return np.ascontiguousarray(a.T), tape


def v_stage_backward(tape: dict, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint pass: gradients w.r.t. every angle and the input batch.

    A layer maps its taped input psi to R psi, with R the RYs of its n
    angles. dRY/dtheta = RY K for K = [[0, -1], [1, 0]] / 2, and K on qubit
    q commutes with the RYs on the other qubits, so with mu = R^T lambda
    the gradient of angle q is sum_b mu_b . K_q psi_b = 1/2 sum_i
    sign_q[i] G[i, i ^ bit_q] for G = mu^T psi. mu is then the adjoint of
    the layer's input. The adjoint runs amplitude-major like the forward
    pass; the input gradient is returned as the (B, 2^n) ``.T`` view.
    """
    thetas = tape["thetas"]
    n = thetas.shape[1] // 2
    _, unring, partner, pair, sign = _v_tables(n)
    lam = np.array(np.asarray(grad_out, dtype=float).T, order="C")
    grad_theta = np.empty_like(thetas)
    for k in reversed(range(len(tape["inputs"]))):
        b, layer = divmod(k, 2)
        angles = slice(layer * n, (layer + 1) * n)
        lam = _ry_layer(lam, partner, sign, -thetas[b, angles])  # RY^-1 = RY^T = RY(-theta)
        # the first GEMM takes mu row-major, so mu^T (this lam) column-major; see above
        mu_t = np.asfortranarray(lam) if k == len(tape["inputs"]) - 1 else lam
        G = mu_t @ tape["inputs"][k]
        grad_theta[b, angles] = 0.5 * np.einsum("qi,qi->q", G.ravel()[pair], sign)
        if layer:
            lam = lam.take(unring, axis=0)
    return grad_theta, lam.T


@functools.cache
def _bit_matrix(n: int) -> np.ndarray:
    """Read-only (2^n, n) matrix of basis-index bits, qubit 0 = MSB."""
    idx = np.arange(2**n)
    bits = ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def v_view_forward_batch(A: np.ndarray, width: int) -> np.ndarray:
    """The probability view: Pr[1] of the first ``width`` qubits of each row of A (B, 2^n)."""
    return (A**2) @ _bit_matrix(int(math.log2(A.shape[1])))[:, :width]


def v_view_backward_batch(grad: np.ndarray, A: np.ndarray) -> np.ndarray:
    """dL/dA of v_view_forward_batch, from dL/dout (B, width)."""
    return 2.0 * A * (grad @ _bit_matrix(int(math.log2(A.shape[1])))[:, : grad.shape[1]].T)


# ---------------------------------------------------------------------------
# U: sign-flip neuron on amplitude encodings
# ---------------------------------------------------------------------------


def amplitude_sign_flips(w) -> CircuitFragment:
    """Compile a +-1 diagonal into Z-type gates: the fragment is w[0] diag(w).

    The sign pattern (-1)^f(k) is reduced to f's algebraic normal form,
    and each XOR monomial of degree d becomes one gate on its qubits: Z
    for d = 1, a CZ with d - 1 controls at polarity 1 for d >= 2. Each
    gate negates exactly the amplitudes its monomial is 1 on, so the
    diagonal is exact. The constant term, set when w[0] = -1, is the
    global sign w[0]: no gate carries it, since a fresh register cannot
    show a global phase.
    """
    w = check_binary_weights(w)
    size = len(w)
    n = int(math.log2(size))
    if 2**n != size:
        raise ValueError(f"weight length must be a power of two, got {size}")

    anf = (w < 0).astype(int)
    for bit in range(n):  # anf[k] ^= anf[k ^ 2^bit] wherever k has that bit set
        h = anf.reshape(-1, 2, 1 << bit)
        h[:, 1] ^= h[:, 0]

    frag = CircuitFragment(n)
    for mask in range(1, size):
        if anf[mask]:
            *controls, target = [q for q in range(n) if (mask >> (n - 1 - q)) & 1]
            frag.append(mcz((1,) * len(controls)) if controls else Z, *controls, target)
    return frag


def build_u_neuron(n: int, w) -> CircuitFragment:
    """Weighted-sum neuron: sign flips, H on all inputs, anti-controlled
    MCX onto a fresh ancilla (qubit n). Ancilla Pr[1] = (sum w.x)^2 / 2^n."""
    if np.size(w) != 2**n:
        raise ValueError(f"U neuron on {n} qubits needs {2**n} weights, got {np.size(w)}")
    frag = CircuitFragment(n + 1).extend(amplitude_sign_flips(w))  # which checks w is +-1
    for q in range(n):
        frag.append(H, q)
    frag.append(mcx((0,) * n), *range(n), n)
    return frag


def u_forward_batch(X: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, dot): (X W^T)^2 / N and X W^T for rows X (B, N), +-1 rows W (k, N)."""
    dot = X @ W.T
    return dot**2 / X.shape[1], dot


def u_backward_batch(grad, X, W, dot) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dW, dL/dX) of u_forward_batch, from dL/dout (B, k) and its ``dot``."""
    gd = grad * 2.0 * dot / X.shape[1]
    return gd.T @ X, gd @ W


# ---------------------------------------------------------------------------
# P: coherence-product neuron on probability encodings
# ---------------------------------------------------------------------------


def build_p_neuron(m: int, w) -> CircuitFragment:
    """Probability neuron: H on the m inputs, an MCX onto a fresh ancilla
    (qubit m) that fires where input i holds 1 if w[i] = -1 and 0 if
    w[i] = +1, then H on the inputs again.
    """
    w = check_binary_weights(w)
    if len(w) != m:
        raise ValueError(f"P neuron on {m} inputs needs {m} weights, got {len(w)}")
    frag = CircuitFragment(m + 1)
    for q in range(m):
        frag.append(H, q)
    frag.append(mcx(tuple(int(wi < 0) for wi in w)), *range(m), m)
    for q in range(m):
        frag.append(H, q)
    return frag


def p_forward_batch(P: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(out, s, factors) for rows P (B, m) of probabilities and +-1 rows W (k, m).

    out is the product over i of the factors (1 + 2 w_i sqrt(p_i (1 - p_i))) / 2,
    so a weight of -1 flips the sign of its input's coherence term. out is
    (B, k), s = sqrt(p(1-p)) is (B, m), factors is (B, k, m).
    """
    # clip guards fp spill just outside [0, 1] (e.g. d^2/N = 1 + eps)
    s = np.sqrt(np.clip(P * (1.0 - P), 0.0, None))
    factors = (1.0 + 2.0 * s[:, None, :] * W[None, :, :]) / 2.0
    return factors.prod(axis=2), s, factors


# Guards the gradient where d sqrt(p(1-p)) / dp blows up at 0 and 1; forward values stay exact.
_P_GRAD_EPS = 1e-8


def p_backward_batch(grad, P, W, s, factors) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dW, dL/dP) of p_forward_batch, from dL/dout (B, k) and its ``s`` and ``factors``."""
    # leave-one-out products via prefix/suffix scans: no division, so zero factors stay exact
    prefix, suffix = np.ones_like(factors), np.ones_like(factors)
    np.cumprod(factors[:, :, :-1], axis=2, out=prefix[:, :, 1:])
    np.cumprod(factors[:, :, :0:-1], axis=2, out=suffix[:, :, -2::-1])
    gfactor = grad[:, :, None] * (prefix * suffix)  # (B, k, m)
    gW = np.einsum("bkm,bm->km", gfactor, s)
    gs = np.einsum("bkm,km->bm", gfactor, W)
    return gW, gs * (1.0 - 2.0 * P) / (2.0 * np.maximum(s, _P_GRAD_EPS))


# ---------------------------------------------------------------------------
# N: normalization neuron
# ---------------------------------------------------------------------------


def build_n_neuron(theta: float) -> CircuitFragment:
    """One RX rotation reshaping a probability-encoded qubit in place."""
    return CircuitFragment(1).append(rx(theta), 0)


def n_forward_batch(P: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """p cos^2(theta/2) + (1 - p) sin^2(theta/2), computed as sin^2(theta/2) + p cos(theta).

    ``theta`` holds one angle per column of P.
    """
    return np.sin(theta / 2) ** 2 + P * np.cos(theta)


def n_backward_batch(grad, P, theta) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dtheta, dL/dP) of n_forward_batch, from dL/dout (B, width)."""
    gtheta = (grad * (1.0 - 2.0 * P) * np.sin(theta) / 2.0).sum(axis=0)
    return gtheta, grad * np.cos(theta)
