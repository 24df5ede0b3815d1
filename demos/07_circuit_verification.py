#!/usr/bin/env python3
"""Factorized model vs the single measured-at-the-end circuit.

The classical training semantics treats layers as decoupled; the compiled
circuit is the ground truth. For v-only, v+u and v+u+n chains the two
agree to near machine precision. A p-layer consuming earlier gadget
outputs is the approximate regime: the circuit's ancillas carry no real
coherence, so the p factors collapse to 1/2 -- the gap is measured and
printed, never hidden.
"""

import numpy as np

from qnnkit.arch import ArchitectureSpec, LayerSpec
from qnnkit.model import circuit_inference_batch, forward_batch, init_parameters

rng = np.random.default_rng(5)


def compare(title, arch, samples=10):
    params = init_parameters(arch, seed=1)
    X = rng.uniform(0.01, 1.0, size=(samples, arch.input_dim))
    factorized = forward_batch(arch, params, X).probs
    exact = circuit_inference_batch(arch, params, X)
    worst = float(np.max(np.abs(factorized - exact)))
    print(f"  {title:28s} max |factorized - circuit| = {worst:.3e}")


print("exact regimes:")
compare("v-only (2 blocks)", ArchitectureSpec(8, 2, [LayerSpec("v", 3, repeat=2)]))
compare("v+u (2 neurons)", ArchitectureSpec(
    4, 2, [LayerSpec("v", 2), LayerSpec("u", 2)]))
compare("v+u+n (1 neuron/layer)", ArchitectureSpec(
    4, 1, [LayerSpec("v", 2, repeat=2), LayerSpec("u", 1), LayerSpec("n", 1)]))

print("measured approximate regime:")
compare("v+u+p (p reads ancillas)", ArchitectureSpec(
    4, 1, [LayerSpec("v", 2), LayerSpec("u", 2), LayerSpec("p", 1)]))
