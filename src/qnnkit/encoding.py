"""Classical-to-quantum data encodings and their preparation circuits.

Two encodings are supported:

- *Amplitude*: N values become the amplitudes of a ceil(log2 N)-qubit
  state. The analytic form normalizes and returns the state directly;
  the circuit form builds an exact multiplexed-RY preparation network
  (valid for non-negative data, which covers pixel intensities).
- *Probability*: each value d in [0, 1] becomes one qubit rotated to
  sqrt(1-d)|0> + sqrt(d)|1>, so Pr[1] = d exactly.

Decoding reads per-qubit marginals back out of a state.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .statevec import CircuitFragment, StateVector, ry


class EncodingKind(Enum):
    AMPLITUDE = "amplitude"
    PROBABILITY = "probability"


def _pad_to_power_of_two(data: np.ndarray) -> np.ndarray:
    n = max(1, math.ceil(math.log2(len(data)))) if len(data) > 1 else 1
    padded = np.zeros(2**n, dtype=float)
    padded[: len(data)] = data
    return padded


def amplitude_encode(data) -> tuple[StateVector, float]:
    """Store ``data`` as state amplitudes; returns (state, L2 scale used).

    Data is zero-padded to the next power of two and L2-normalized; the
    returned scale times the amplitudes reproduces the padded input.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or len(data) < 1:
        raise ValueError("amplitude_encode takes a non-empty 1-D vector")
    scale = float(np.linalg.norm(data))
    if scale == 0.0:
        raise ValueError("cannot amplitude-encode an all-zero vector")
    padded = _pad_to_power_of_two(data)
    n_qubits = int(math.log2(len(padded)))
    return StateVector(n_qubits, (padded / scale).astype(complex)), scale


def multiplexed_ry(angles, controls: list[int], target: int, span: int) -> CircuitFragment:
    """RY(angles[p]) on ``target`` for each control pattern p (controls[0] = MSB).

    Gray-code ladder of 2^k RY + 2^k CX gates for k controls; with no
    controls it degenerates to a single RY.
    """
    angles = np.asarray(angles, dtype=float)
    k = len(controls)
    if len(angles) != 2**k:
        raise ValueError(f"need {2**k} angles for {k} controls, got {len(angles)}")
    frag = CircuitFragment(span)
    if k == 0:
        return frag.append(ry(angles[0]), target)

    from .statevec import CX  # local import keeps module top uncluttered

    size = 2**k
    gray = [i ^ (i >> 1) for i in range(size)]
    # Rotation angles in the ladder: beta = (1/2^k) A^T alpha with
    # A[p, i] = (-1)^popcount(p & gray(i)); each CX flips the sign of all
    # later rotations on patterns where its control bit is set.
    beta = np.empty(size)
    for i in range(size):
        signs = np.array(
            [(-1) ** bin(p & gray[i]).count("1") for p in range(size)], dtype=float
        )
        beta[i] = float(signs @ angles) / size
    for i in range(size):
        frag.append(ry(beta[i]), target)
        diff = gray[i] ^ gray[(i + 1) % size]
        bit = diff.bit_length() - 1  # bit 0 = LSB of the pattern
        frag.append(CX, controls[k - 1 - bit], target)
    return frag


def amplitude_encoding_fragment(data) -> tuple[CircuitFragment, float]:
    """Exact state-preparation circuit for non-negative ``data``.

    Recursive construction: qubit l gets a multiplexed RY whose angle for
    prefix p splits the norm of block p between its two halves. Applied
    to |0...0> the fragment reproduces amplitude_encode(data) exactly.
    """
    data = np.asarray(data, dtype=float)
    if np.any(data < 0):
        raise ValueError("state preparation circuit requires non-negative data")
    _, scale = amplitude_encode(data)  # validates and fixes the scale
    v = _pad_to_power_of_two(data) / scale
    n = int(math.log2(len(v)))

    frag = CircuitFragment(n)
    for level in range(n):
        half = len(v) >> (level + 1)
        angles = np.empty(2**level)
        for p in range(2**level):
            lo = p * 2 * half
            left = np.linalg.norm(v[lo : lo + half])
            right = np.linalg.norm(v[lo + half : lo + 2 * half])
            angles[p] = 2.0 * math.atan2(right, left)
        frag = frag.compose(multiplexed_ry(angles, list(range(level)), level, n))
    return frag, scale


def probability_encode(data) -> tuple[CircuitFragment, StateVector]:
    """One RY(2 arcsin sqrt(d)) per qubit; qubit i ends with Pr[1] = data[i]."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or len(data) < 1:
        raise ValueError("probability_encode takes a non-empty 1-D vector")
    if np.any((data < 0) | (data > 1)):
        bad = data[(data < 0) | (data > 1)][0]
        raise ValueError(f"probability encoding needs values in [0, 1], got {bad}")
    m = len(data)
    frag = CircuitFragment(m)
    for i, d in enumerate(data):
        frag.append(ry(2.0 * math.asin(math.sqrt(d))), i)
    state = StateVector(m).run(frag)
    return frag, state


def decode_probabilities(state: StateVector, qubits) -> np.ndarray:
    """Vector of marginal Pr[1] for each listed qubit, from one probabilities() pass."""
    probs = state.probabilities()
    out = []
    for q in qubits:
        if q < 0 or q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range 0..{state.n_qubits - 1}")
        out.append(probs.reshape(2**q, 2, -1)[:, 1].sum())  # the half where q reads 1
    return np.array(out, dtype=float)
