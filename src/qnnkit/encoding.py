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
exact oracle, which encodes one sample per call, instead takes
``amplitude_encoding_state``: the amplitudes of the amplitude fragment's
run, bit for bit, computed from the same ladder angles with no gate
list, because every CX of a ladder only swaps the pairs of some
prefixes, a sign per prefix.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .statevec import CX, CircuitFragment, ry, ry_entries


class EncodingKind(Enum):
    AMPLITUDE = "amplitude"
    PROBABILITY = "probability"


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (B, N) divided by its L2 norm.

    ValueError on a row whose norm is zero or not finite, which a NaN or
    an infinite value gives.
    """
    norms = np.linalg.norm(x, axis=1, keepdims=True)
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


def _ladder(angles: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(Gray order, rotation angles) of the multiplexed-RY ladder for 2^k ``angles``.

    Step i of the ladder is RY(beta[i]) on the target, then a CX from the
    control where gray[i] and gray[i + 1] differ. beta = (1/2^k) A^T alpha
    with A[p, i] = (-1)^popcount(p & gray(i)): the CXs before step i have
    swapped the target pair of prefix p exactly when popcount(p & gray[i])
    is odd, which flips the sign of that rotation on p. A is the
    Walsh-Hadamard matrix with its columns in Gray order.
    """
    size = len(angles)
    gray = [i ^ (i >> 1) for i in range(size)]
    return gray, (_walsh(size.bit_length() - 1) @ angles)[gray] / size


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
        diff = gray[i] ^ gray[(i + 1) % len(gray)]
        bit = diff.bit_length() - 1  # bit 0 = LSB of the pattern
        frag.append(CX, controls[k - 1 - bit], target)
    return frag


def _level_angles(data) -> list[np.ndarray]:
    """Angles of the Mottonen preparation of ``data``, 2^n >= 2 real values:
    entry l holds the 2^l multiplexor angles on qubit l, one per prefix.

    Angle p splits the norm of block p between its two halves; on the
    last qubit each block is one pair of amplitudes, so its angle splits
    the signed pair and sets the signs too.
    """
    data = np.asarray(data, dtype=float)
    n = int(math.log2(len(data))) if data.ndim == 1 and len(data) >= 2 else 0
    if n == 0 or len(data) != 2**n:
        raise ValueError(f"amplitude encoding takes 2^n >= 2 values in one axis, got {data.shape}")
    v = normalize_rows(data[None])[0]
    out = []
    for level in range(n):
        # row p: the two halves of the block under prefix p, as signed
        # values on the last level and as norms before it
        halves = v.reshape(2**level, 2, -1)
        left, right = halves[..., 0].T if level == n - 1 else np.linalg.norm(halves, axis=2).T
        out.append(2.0 * np.arctan2(right, left))
    return out


def amplitude_encoding_fragment(data) -> CircuitFragment:
    """Exact state-preparation circuit for 2^n >= 2 real values on n qubits.

    Recursive construction (Mottonen et al., quant-ph/0407010): qubit l
    gets a multiplexed RY over qubits 0..l-1 with the ``_level_angles``.
    Applied to |0...0> the fragment gives ``normalize_rows(data[None])[0]``.
    """
    levels = _level_angles(data)
    frag = CircuitFragment(len(levels))
    for level, angles in enumerate(levels):
        frag.extend(multiplexed_ry(angles, list(range(level)), level, len(levels)))
    return frag


def amplitude_encoding_state(data) -> np.ndarray:
    """The 2^n real amplitudes that ``amplitude_encoding_fragment(data)``
    prepares on |0...0>, bit for bit, computed without a gate list.

    Qubits after l are still |0> when qubit l's ladder runs, so the state
    is a pair (lo, hi) per prefix p, and every CX of the ladder only swaps
    some prefixes' pairs. Before step i the pair of p is swapped exactly
    when W[gray[i], p] = -1 (``_ladder``), so RY(beta[i]) on the swapped
    pairs is RY(-beta[i]) on the unswapped ones, and the whole step is one
    vectorized rotation with t = -sin(beta[i]/2) W[gray[i]]:
    lo' = c lo + t hi and hi' = c hi - t lo. These are the products that
    ``apply_1q`` forms on the swapped pairs, joined by the same sums up to
    order, and after the ladder's last CX no pair is swapped.
    """
    amps = np.ones(1)
    for level, angles in enumerate(_level_angles(data)):
        gray, beta = _ladder(angles)
        lo, hi = amps, np.zeros_like(amps)
        for theta, signs in zip(beta.tolist(), _walsh(level)[gray]):
            c, _, s, _ = ry_entries(theta)
            t = -s * signs
            lo, hi = c * lo + t * hi, c * hi - t * lo
        amps = np.empty(2 * len(lo))
        amps[0::2], amps[1::2] = lo, hi
    return amps


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
