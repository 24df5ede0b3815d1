"""Each argument check of the core raises its own error type and message.

One case per raise site that no other test reaches in process.
"""

import re

import numpy as np
import pytest

from qnnkit.arch import ArchitectureParseError, parse_architecture
from qnnkit.encoding import multiplexed_ry, probability_encoding_fragment
from qnnkit.model import TrainConfig
from qnnkit.neurons import (
    amplitude_sign_flips,
    build_p_neuron,
    build_u_neuron,
    check_binary_weights,
    v_stage_forward,
)
from qnnkit.statevec import Gate, StateVector, mcx, mcz


def _config(message, **options):
    return (lambda: TrainConfig(**options), ValueError, message)


# (call, error type, message)
GUARDS = {
    "binary-weights-not-1-d": (
        lambda: check_binary_weights([[1, -1]]),
        ValueError,
        "binary weights must be a non-empty 1-D vector",
    ),
    "binary-weights-not-signs": (
        lambda: check_binary_weights([1, 0]),
        ValueError,
        "binary weights must be exactly +-1, got [1 0]",
    ),
    "sign-flips-length": (
        lambda: amplitude_sign_flips([1, -1, 1]),
        ValueError,
        "weight length must be a power of two, got 3",
    ),
    "u-neuron-weights": (
        lambda: build_u_neuron(2, [1, -1]),
        ValueError,
        "U neuron on 2 qubits needs 4 weights, got 2",
    ),
    "p-neuron-weights": (
        lambda: build_p_neuron(3, [1, -1]),
        ValueError,
        "P neuron on 3 inputs needs 3 weights, got 2",
    ),
    "mcx-no-controls": (lambda: mcx(()), ValueError, "MCX needs at least one control"),
    "mcx-polarities": (lambda: mcx((0, 2)), ValueError, "polarities must be 0/1, got (0, 2)"),
    "mcz-no-controls": (lambda: mcz(()), ValueError, "CZ needs at least one control"),
    "mcz-polarities": (lambda: mcz((2,)), ValueError, "polarities must be 0/1, got (2,)"),
    "gate-arity": (lambda: Gate("Y").arity, ValueError, "unknown gate kind 'Y'"),
    "statevector-amplitudes": (
        lambda: StateVector(2, np.ones(3)),
        ValueError,
        "need 4 amplitudes for 2 qubits, got shape (3,)",
    ),
    "multiplexed-ry-angles": (
        lambda: multiplexed_ry([0.1], [0], 1, 2),
        ValueError,
        "need 2 angles for 1 controls, got 1",
    ),
    "probability-encoding-not-1-d": (
        lambda: probability_encoding_fragment([[0.5]]),
        ValueError,
        "probability encoding takes a non-empty 1-D vector",
    ),
    "parse-key-value": (
        lambda: parse_architecture("input_dim 4\nclasses 2\nlayer v width=2 r\n"),
        ArchitectureParseError,
        "line 3: expected key=value, got 'r'",
    ),
    "parse-missing-header": (
        lambda: parse_architecture("input_dim 4\nlayer v width=2\n"),
        ArchitectureParseError,
        "line 1: missing classes header",
    ),
    "config-epochs-zero": _config("epochs must be a positive integer, got 0", epochs=0),
    "config-epochs-negative": _config("epochs must be a positive integer, got -1", epochs=-1),
    "config-epochs-bool": _config("epochs must be a positive integer, got True", epochs=True),
    "config-batch-zero": _config("batch_size must be a positive integer, got 0", batch_size=0),
    "config-batch-negative": _config(
        "batch_size must be a positive integer, got -1", batch_size=-1
    ),
    "config-batch-fraction": _config(
        "batch_size must be a positive integer, got 2.5", batch_size=2.5
    ),
    "config-lr-zero": _config("lr must be a finite number > 0, got 0", lr=0),
    "config-lr-negative": _config("lr must be a finite number > 0, got -1", lr=-1),
    "config-lr-nan": _config("lr must be a finite number > 0, got nan", lr=float("nan")),
    "config-lr-inf": _config("lr must be a finite number > 0, got inf", lr=float("inf")),
    "config-lr-text": _config("lr must be a finite number > 0, got '0.1'", lr="0.1"),
    "v-stage-batch-width": (
        lambda: v_stage_forward(np.zeros((2, 3)), np.zeros((1, 4))),
        ValueError,
        "V stage needs a (B, 2^n) batch with n >= 1, got shape (2, 3)",
    ),
    "v-stage-batch-one-amplitude": (
        lambda: v_stage_forward(np.ones((2, 1)), np.zeros((1, 0))),
        ValueError,
        "V stage needs a (B, 2^n) batch with n >= 1, got shape (2, 1)",
    ),
    "v-stage-batch-1-d": (
        lambda: v_stage_forward(np.zeros(4), np.zeros((1, 4))),
        ValueError,
        "V stage needs a (B, 2^n) batch with n >= 1, got shape (4,)",
    ),
    "config-temperature-zero": _config(
        "temperature must be a finite number > 0, got 0", temperature=0
    ),
    "config-temperature-negative": _config(
        "temperature must be a finite number > 0, got -1", temperature=-1
    ),
    "config-temperature-nan": _config(
        "temperature must be a finite number > 0, got nan", temperature=float("nan")
    ),
    "config-temperature-inf": _config(
        "temperature must be a finite number > 0, got inf", temperature=float("inf")
    ),
    "config-momentum-negative": _config(
        "momentum must be a finite number >= 0, got -1", momentum=-1
    ),
    "config-momentum-nan": _config(
        "momentum must be a finite number >= 0, got nan", momentum=float("nan")
    ),
    "config-momentum-inf": _config(
        "momentum must be a finite number >= 0, got inf", momentum=float("inf")
    ),
    "config-lr-decay-negative": _config(
        "lr_decay must be a finite number >= 0, got -1", lr_decay=-1
    ),
    "config-lr-decay-nan": _config(
        "lr_decay must be a finite number >= 0, got nan", lr_decay=float("nan")
    ),
    "config-lr-decay-inf": _config(
        "lr_decay must be a finite number >= 0, got inf", lr_decay=float("inf")
    ),
    "config-seed-negative": _config("seed must be a non-negative integer, got -1", seed=-1),
    "config-seed-fraction": _config("seed must be a non-negative integer, got 1.5", seed=1.5),
    "config-seed-bool": _config("seed must be a non-negative integer, got True", seed=True),
    "config-keep-best-text": _config("keep_best must be True or False, got 'no'", keep_best="no"),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_a_bad_argument_raises_its_error(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
