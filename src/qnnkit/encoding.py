"""Classical-to-quantum data encodings and their preparation circuits.

Two encodings are supported:

- *Amplitude*: 2^n real values, signed ones included, become the
  amplitudes of an n-qubit state. ``normalize_rows`` is the analytic
  form, and the trainer and the circuit both divide by its norms;
  ``amplitude_encoding_fragment`` builds the exact multiplexed-RY
  preparation network of the same state.
- *Probability*: each value d in [0, 1] becomes one qubit rotated to
  sqrt(1-d)|0> + sqrt(d)|1>, so Pr[1] = d exactly, by the one RY per
  qubit of ``probability_encoding_fragment``.

Both return only the fragment; run it on a fresh ``StateVector``. The
exact oracle reads each row as ``normalize_rows(row)``, the state the
amplitude fragment prepares in exact arithmetic; tests hold the
fragment's run to it within 1e-14, signed rows, zero blocks and basis
rows included.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .statevec import CX, CircuitFragment, ry


class EncodingKind(Enum):
    AMPLITUDE = "amplitude"
    PROBABILITY = "probability"


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (B, N), or the one row x (N,), divided by its L2 norm.

    ValueError on a row whose norm is zero or not finite, which a NaN or
    an infinite value gives.
    """
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if not np.all((norms > 0) & np.isfinite(norms)):
        raise ValueError("cannot amplitude-encode an all-zero or non-finite input row")
    return x / norms


@functools.cache
def _walsh(k: int) -> np.ndarray:
    """Read-only 2^k Walsh-Hadamard matrix W[p, j] = (-1)^popcount(p & j), by Sylvester."""
    walsh = np.ones((1, 1))
    for _ in range(k):
        walsh = np.kron(walsh, [[1.0, 1.0], [1.0, -1.0]])
    walsh.setflags(write=False)
    return walsh


@functools.cache
def _gray(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Gray order, W[gray]) of 2^l steps: gray[i] = i ^ (i >> 1),
    and the Walsh matrix with its rows in that order."""
    gray = np.arange(2**level)
    gray ^= gray >> 1
    walsh = _walsh(level)[gray]
    for table in (gray, walsh):
        table.setflags(write=False)
    return gray, walsh


def _ladder(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gray order, rotation angles) of the multiplexed-RY ladder for the 2^k
    ``angles``.

    Step i of the ladder is RY(beta[i]) on the target, then a CX from the
    control where gray[i] and gray[i + 1] differ. beta = (1/2^k) A^T alpha
    with A[p, i] = (-1)^popcount(p & gray(i)): the CXs before step i have
    swapped the target pair of prefix p exactly when popcount(p & gray[i])
    is odd, which flips the sign of that rotation on p. A is the
    Walsh-Hadamard matrix with its columns in Gray order.
    """
    gray, gray_walsh = _gray(len(angles).bit_length() - 1)
    return gray, gray_walsh @ angles / len(angles)


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
    gray, beta = _ladder(angles)
    for i, theta in enumerate(beta):
        frag.append(ry(theta), target)
        diff = int(gray[i] ^ gray[(i + 1) % len(gray)])
        bit = diff.bit_length() - 1  # bit 0 = LSB of the pattern
        frag.append(CX, controls[k - 1 - bit], target)
    return frag


def _row(data) -> np.ndarray:
    """``data`` as a 1-D array of floats; ValueError unless it is one axis
    of 2^n >= 2 values."""
    data = np.asarray(data, dtype=float)
    size = len(data) if data.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude encoding takes 2^n >= 2 values in one axis, got {data.shape}")
    return data


def _level_angles(row: np.ndarray) -> list[np.ndarray]:
    """Angles of the Mottonen preparation of one row of 2^n values: entry l
    holds the 2^l multiplexor angles on qubit l, one per prefix.

    Angle p splits the norm of block p between its two halves; on the
    last qubit each block is one pair of amplitudes, so its angle splits
    the signed pair and sets the signs too.
    """
    v = normalize_rows(row)
    n = len(v).bit_length() - 1
    halves = []
    for level in range(n):
        # axis 1: the two halves of the block under each prefix, as signed
        # values on the last level and as norms before it
        block = v.reshape(2**level, 2, 2 ** (n - level - 1))
        # np.linalg.norm's own sum, without its conj copy of real values
        halves.append(block[..., 0] if level == n - 1 else np.sqrt(np.add.reduce(block * block, axis=2)))
    halves = np.concatenate(halves)  # every level's prefixes, (2^n - 1, 2)
    angles = 2.0 * np.arctan2(halves[:, 1], halves[:, 0])
    return [angles[2**level - 1 : 2 ** (level + 1) - 1] for level in range(n)]


def amplitude_encoding_fragment(data) -> CircuitFragment:
    """Exact state-preparation circuit for 2^n >= 2 real values on n qubits.

    Recursive construction (Mottonen et al., quant-ph/0407010): qubit l
    gets a multiplexed RY over qubits 0..l-1 with the ``_level_angles``.
    Applied to |0...0> the fragment gives ``normalize_rows(data)``.
    """
    levels = _level_angles(_row(data))
    frag = CircuitFragment(len(levels))
    for level, angles in enumerate(levels):
        frag.extend(multiplexed_ry(angles, list(range(level)), level, len(levels)))
    return frag


def probability_encoding_fragment(data) -> CircuitFragment:
    """One RY(2 arcsin sqrt(d)) per qubit; run on |0...0>, qubit i ends with Pr[1] = data[i]."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or len(data) < 1:
        raise ValueError("probability encoding takes a non-empty 1-D vector")
    outside = ~((data >= 0) & (data <= 1))  # NaN compares false both ways
    if np.any(outside):
        raise ValueError(f"probability encoding needs values in [0, 1], got {data[outside][0]}")
    frag = CircuitFragment(len(data))
    for i, d in enumerate(data):
        frag.append(ry(2.0 * math.asin(math.sqrt(d))), i)
    return frag
