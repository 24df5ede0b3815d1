"""Rule-engine tests: path classification, the 8-row truth table, and
whole-architecture validation."""

import itertools

import numpy as np
import pytest

from qnnkit.arch import ArchitectureSpec, LayerSpec, from_kinds
from qnnkit.encoding import EncodingKind
from qnnkit.model import pipeline
from qnnkit.neurons import build_p_neuron, p_forward_batch
from qnnkit.rules import (
    ConsumerOp,
    Feasibility,
    JunctionProfile,
    check_connection,
    classify_path,
    validate_architecture,
)
from qnnkit.statevec import CX, H, StateVector

A = EncodingKind.AMPLITUDE
P = EncodingKind.PROBABILITY

CONTROL = ConsumerOp.CONTROL_ONLY_NO_PHASE_KICKBACK
RX = ConsumerOp.RX_ONLY
OTHER = ConsumerOp.OTHER


def profile(out_enc, entangled, in_enc, ops=frozenset({OTHER}), reuses=False):
    return JunctionProfile(
        out_encoding=out_enc,
        out_entangled=entangled,
        reuses_input_qubits=reuses,
        in_encoding=in_enc,
        consumer_ops=frozenset(ops),
    )


# ---------------------------------------------------------------------------
# classify_path
# ---------------------------------------------------------------------------


def test_classification_is_total_and_bijective_on_the_cube():
    seen = set()
    for out_enc, entangled, in_enc in itertools.product((A, P), (False, True), (A, P)):
        seen.add(classify_path(profile(out_enc, entangled, in_enc)))
    assert seen == set(range(1, 9))


def test_named_junction_paths():
    # V (amplitude out, entangled, reuses) into U (amplitude in)
    assert classify_path(profile(A, True, A, reuses=True)) == 5
    # U (probability out, entangled) into N (probability in)
    assert classify_path(profile(P, True, P, ops={RX})) == 8
    # anything unentangled with probability on both sides sits in 1..4
    assert classify_path(profile(P, False, P)) in (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# check_connection: full truth table
# ---------------------------------------------------------------------------


def test_unentangled_paths_are_always_feasible():
    for out_enc, in_enc in itertools.product((A, P), repeat=2):
        v = check_connection(profile(out_enc, False, in_enc))
        assert v.status is Feasibility.FEASIBLE
        assert v.principle == 1
        assert v.path_id <= 4


def test_path5_feasible():
    v = check_connection(profile(A, True, A))
    assert (v.path_id, v.status, v.principle) == (5, Feasibility.FEASIBLE, 2)


def test_path6_infeasible_when_independence_required():
    v = check_connection(profile(A, True, P))
    assert (v.path_id, v.status, v.principle) == (6, Feasibility.INFEASIBLE, 3)
    assert "independent" in v.reason


def test_path6_bell_pair_breaks_the_factorized_p_model():
    # the counterexample behind rule 3 (demos/03_connection_rules.py): a
    # Bell pair has marginals (1/2, 1/2), so the factorized p model
    # predicts g(1/2)^2 = 1, but the gadget on the joint state gives 1/2
    w = np.array([1.0, 1.0])
    state = StateVector(3).apply(H, [0]).apply(CX, [0, 1])
    factorized = p_forward_batch(state.marginals([0, 1])[None], w[None])[0][0, 0]
    exact = state.run(build_p_neuron(2, w)).marginal_prob_one(2)
    assert factorized == pytest.approx(1.0, abs=1e-12)
    assert exact == pytest.approx(0.5, abs=1e-12)


def test_path7_feasible_only_with_qubit_reuse():
    good = check_connection(profile(P, True, A, reuses=True))
    assert (good.path_id, good.status, good.principle) == (7, Feasibility.FEASIBLE, 4)
    bad = check_connection(profile(P, True, A, reuses=False))
    assert (bad.path_id, bad.status, bad.principle) == (7, Feasibility.INFEASIBLE, 4)


def test_path8_feasible_for_safe_consumer_ops():
    for ops in ({CONTROL}, {RX}, {CONTROL, RX}):
        v = check_connection(profile(P, True, P, ops=ops))
        assert (v.path_id, v.status, v.principle) == (8, Feasibility.FEASIBLE, 5)


def test_path8_infeasible_for_other_ops():
    v = check_connection(profile(P, True, P, ops={OTHER}))
    assert (v.path_id, v.status, v.principle) == (8, Feasibility.INFEASIBLE, 5)
    v = check_connection(profile(P, True, P, ops={CONTROL, OTHER}))
    assert v.status is Feasibility.INFEASIBLE


def test_consumer_ops_must_be_non_empty():
    with pytest.raises(ValueError, match="non-empty"):
        profile(A, False, A, ops=set())


# ---------------------------------------------------------------------------
# validate_architecture
# ---------------------------------------------------------------------------


def test_full_mixed_template_is_feasible():
    arch = from_kinds(16, 2, "vunp", repeat=2)  # v*2 + u + n + p
    report = validate_architecture(arch)
    assert report.passed
    assert [j.verdict.path_id for j in report.junctions] == [1, 5, 8, 8]
    assert not report.encoding_flags


def test_v_into_p_uses_probability_view_via_path8():
    arch = from_kinds(16, 2, "vp")  # v + p, probability view of v
    report = validate_architecture(arch)
    assert report.passed
    v_to_p = report.junctions[1]
    assert v_to_p.verdict.path_id == 8
    assert v_to_p.verdict.principle == 5


def test_u_into_u_fails_at_principle_4():
    arch = ArchitectureSpec(
        4, 2, [LayerSpec("v", 2), LayerSpec("u", 3), LayerSpec("u", 2)]
    )
    report = validate_architecture(arch)
    assert not report.passed
    u_to_u = report.junctions[2]
    assert u_to_u.verdict.path_id == 7
    assert u_to_u.verdict.status is Feasibility.INFEASIBLE
    assert u_to_u.verdict.principle == 4
    assert report.encoding_flags  # U canonically consumes amplitudes


# Every junction type the engine serves: (producer, consumer) -> (path, feasible).
# Paths 2, 3 and 6 are never reached: the input offers both encodings, and
# every layer kind offers a probability view.
JUNCTION_TABLE = {
    **{("input", k): (1, True) for k in "vu"},
    **{("input", k): (4, True) for k in "np"},
    **{("v", k): (5, True) for k in "vu"},
    **{(k, c): (8, True) for k in "vunp" for c in "np"},
    **{("n", k): (7, True) for k in "vu"},
    **{(k, c): (7, False) for k in "up" for c in "vu"},
}


def test_the_engine_serves_the_pinned_junction_table():
    assert len(JUNCTION_TABLE) == 20
    for (producer, consumer), (path, feasible) in JUNCTION_TABLE.items():
        kinds = [consumer] if producer == "input" else [producer, consumer]
        arch = ArchitectureSpec(4, 2, [LayerSpec(k, 2) for k in kinds])
        verdict = validate_architecture(arch).junctions[-1].verdict
        status = Feasibility.FEASIBLE if feasible else Feasibility.INFEASIBLE
        assert (verdict.path_id, verdict.status) == (path, status), (producer, consumer)


def template_kind_sequences():
    """Every v+ u? [np]* sequence with 1-2 v layers, an optional u and up to 3 n/p layers."""
    for v_layers in (1, 2):
        for u in ((), ("u",)):
            for tail_len in range(4):
                for tail in itertools.product("np", repeat=tail_len):
                    yield ("v",) * v_layers + u + tail


def test_every_template_architecture_passes_the_rules():
    # the CLI checks only the template before training, relying on this
    sequences = list(template_kind_sequences())
    assert len(sequences) == 60
    for kinds in sequences:
        arch = from_kinds(4, 2, kinds, hidden=3)  # u, n and p widths do not matter to the rules
        pipeline(arch)
        report = validate_architecture(arch)
        assert report.passed, report.render_text()


def test_report_text_rendering_mentions_every_junction():
    report = validate_architecture(from_kinds(16, 2, "vunp"))
    text = report.render_text()
    assert "PASS" in text
    assert text.count("path") == len(report.junctions)


def test_report_text_names_each_encoding_flag_as_the_json_report_does():
    # ``qnnkit check`` prints this text; check_report.json lists the same
    # flags under ``encoding_flags``
    report = validate_architecture(from_kinds(4, 2, "vnu"))
    assert report.passed
    flagged = [line for line in report.render_text().splitlines() if "flag" in line]
    assert flagged == [
        "  encoding flag: u[2] canonically consumes amplitude encoding but receives "
        "probability from n[1]"
    ]
    assert report.to_dict()["encoding_flags"] == [flagged[0].removeprefix("  encoding flag: ")]


def test_report_dict_round_trip_fields():
    report = validate_architecture(from_kinds(16, 3, "vunp", hidden=8))
    d = report.to_dict()
    assert d["passed"] is True
    assert len(d["junctions"]) == len(report.junctions)
    for junction in d["junctions"]:
        assert set(junction) == {"producer", "consumer", "path", "principle", "status", "reason"}
