#!/usr/bin/env python3
"""The junction rule engine: eight paths, five rules, whole-network checks.

Also demonstrates WHY the path-6 verdict is infeasible, with the
Bell-state counterexample where the factorized model errs by 0.5.
"""

import itertools

import numpy as np

from qnnkit.arch import from_kinds, parse_architecture
from qnnkit.encoding import EncodingKind
from qnnkit.neurons import build_p_neuron, p_forward_batch
from qnnkit.rules import (
    ConsumerOp,
    JunctionProfile,
    check_connection,
    validate_architecture,
)
from qnnkit.statevec import CX, H, StateVector

A, P = EncodingKind.AMPLITUDE, EncodingKind.PROBABILITY


def path6_demo() -> dict:
    """Why entangled amplitudes must not feed probability consumers.

    A Bell pair has per-qubit marginals (1/2, 1/2), so the factorized
    p-neuron model predicts g(1/2)^2 = 1. The exact gadget sees the joint
    state and yields 1/2: a 0.5 probability error from one junction.
    """
    w = np.array([1.0, 1.0])
    state = StateVector(3).apply(H, [0]).apply(CX, [0, 1])
    factorized = p_forward_batch(state.marginals([0, 1])[None], w[None])[0][0, 0]
    state.run(build_p_neuron(2, w))
    exact = state.marginal_prob_one(2)
    return {
        "factorized": float(factorized),
        "exact": float(exact),
        "deviation": float(abs(factorized - exact)),
    }


# Full truth table over (output encoding, entangled, input encoding),
# with a kickback-free control consumer.
print("out  ent  in   -> path  verdict")
for out_enc, ent, in_enc in itertools.product((A, P), (False, True), (A, P)):
    profile = JunctionProfile(
        out_encoding=out_enc,
        out_entangled=ent,
        reuses_input_qubits=False,
        in_encoding=in_enc,
        consumer_ops=frozenset({ConsumerOp.CONTROL_ONLY_NO_PHASE_KICKBACK}),
    )
    v = check_connection(profile)
    print(
        f"{out_enc.value[0].upper():3s}  {str(ent):5s} {in_enc.value[0].upper():3s}"
        f"  -> {v.path_id}     {v.status.value} (principle {v.principle})"
    )

# The full mixed template validates end to end.
print()
print(validate_architecture(from_kinds(16, 2, "vunp", repeat=2)).render_text())

# Skipping the u-layer forces the v stage into its probability view; the
# junction becomes path 8 and stays feasible.
print()
print(validate_architecture(from_kinds(16, 2, "vp")).render_text())

# Wiring one u-layer into another is the classic infeasible case: the
# producer's outputs live on fresh ancillas (no qubit reuse), so rule 4
# rejects the connection.
bad = parse_architecture(
    "input_dim 4\nclasses 2\nlayer v width=2\nlayer u width=3\nlayer u width=2\n"
)
print()
print(validate_architecture(bad).render_text())

# And the counterexample behind rule 3: a Bell pair has marginals
# (1/2, 1/2), the factorized product model predicts 1.0, the actual
# circuit gives 0.5.
print()
demo = path6_demo()
print(
    f"path-6 counterexample: factorized {demo['factorized']:.3f}, "
    f"exact {demo['exact']:.3f}, deviation {demo['deviation']:.3f}"
)
