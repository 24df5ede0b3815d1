"""Junction feasibility rules for mixing quantum neuron designs.

Any producer-to-consumer junction is classified into one of eight paths
by three booleans: the producer's output encoding, whether its output
qubits are entangled, and the consumer's input encoding. Paths 1-4 are
the unentangled half; 5-8 mirror them with entanglement:

    path  out  entangled  in
      1    A      no       A        5    A     yes      A
      2    A      no       P        6    A     yes      P
      3    P      no       A        7    P     yes      A
      4    P      no       P        8    P     yes      P

Five rules decide feasibility:

1. Unentangled outputs (paths 1-4) connect to anything.
2. Entangled amplitudes into an amplitude consumer (path 5) are fine:
   the consumer operates on the joint state directly.
3. Entangled amplitudes into a probability consumer (path 6) are
   infeasible: the probability consumers assume independent inputs, and
   correlations break the per-qubit product picture.
4. Entangled probabilities into an amplitude consumer (path 7) work only
   when the producer reuses its input qubits as outputs, so the register
   itself carries the amplitudes onward.
5. Entangled probabilities into a probability consumer (path 8) work
   when the consumer only uses them as controls without phase kickback
   and/or rotates them around the X axis.

Entanglement is decided statically, never by simulating: validation must
run before any circuit is built. Every neuron kind leaves its output
qubits entangled; only the encoded input is fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .arch import ArchitectureSpec
from .encoding import EncodingKind

A = EncodingKind.AMPLITUDE
P = EncodingKind.PROBABILITY


class ConsumerOp(Enum):
    CONTROL_ONLY_NO_PHASE_KICKBACK = "control-only-no-phase-kickback"
    RX_ONLY = "rx-only"
    OTHER = "other"


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class JunctionProfile:
    out_encoding: EncodingKind
    out_entangled: bool
    reuses_input_qubits: bool
    in_encoding: EncodingKind
    consumer_ops: frozenset

    def __post_init__(self):
        if not self.consumer_ops:
            raise ValueError("consumer_ops must be non-empty")


@dataclass(frozen=True)
class ConnectionVerdict:
    path_id: int
    status: Feasibility
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.FEASIBLE

    @property
    def principle(self) -> int:
        """The rule that decides the path: 1 for paths 1-4, then one rule per path."""
        return 1 if self.path_id <= 4 else self.path_id - 3


def classify_path(profile: JunctionProfile) -> int:
    """Total map from the 2x2x2 profile cube onto path ids 1..8."""
    base = 1 + 2 * (profile.out_encoding is P) + (profile.in_encoding is P)
    return base + 4 if profile.out_entangled else base


_SAFE_PATH8_OPS = frozenset(
    {ConsumerOp.CONTROL_ONLY_NO_PHASE_KICKBACK, ConsumerOp.RX_ONLY}
)


def check_connection(profile: JunctionProfile) -> ConnectionVerdict:
    path = classify_path(profile)
    if path <= 5:  # unentangled (rule 1), or amplitudes into amplitudes (rule 2)
        return ConnectionVerdict(path, Feasibility.FEASIBLE)
    if path == 6:
        return ConnectionVerdict(
            path,
            Feasibility.INFEASIBLE,
            reason="entangled amplitude outputs feed a probability consumer "
            "that assumes independent inputs",
        )
    if path == 7:
        if profile.reuses_input_qubits:
            return ConnectionVerdict(path, Feasibility.FEASIBLE)
        return ConnectionVerdict(
            path,
            Feasibility.INFEASIBLE,
            reason="probability outputs live on fresh ancillas, so no register "
            "carries amplitudes into the consumer",
        )
    # path 8
    if profile.consumer_ops <= _SAFE_PATH8_OPS:
        return ConnectionVerdict(path, Feasibility.FEASIBLE)
    return ConnectionVerdict(
        path,
        Feasibility.INFEASIBLE,
        reason="consumer applies operations beyond kickback-free controls "
        "and X-axis rotations to entangled probability qubits",
    )


# ---------------------------------------------------------------------------
# per-kind static profiles
# ---------------------------------------------------------------------------

# (canonical input, reuses inputs, ops applied to the producer's qubits,
#  output views with the natural output first).
# Every kind's output counts as entangled; only the encoded input is not.
_KIND_TRAITS = {
    "v": dict(
        in_enc=A, reuses=True,
        ops=frozenset({ConsumerOp.OTHER}), views=(A, P),
    ),
    "u": dict(
        in_enc=A, reuses=False,
        ops=frozenset({ConsumerOp.OTHER}), views=(P,),
    ),
    "p": dict(
        in_enc=P, reuses=False,
        ops=frozenset({ConsumerOp.CONTROL_ONLY_NO_PHASE_KICKBACK}), views=(P,),
    ),
    "n": dict(
        in_enc=P, reuses=True,
        ops=frozenset({ConsumerOp.RX_ONLY}), views=(P,),
    ),
}


@dataclass
class JunctionRecord:
    producer: str
    consumer: str
    verdict: ConnectionVerdict


@dataclass
class ValidationReport:
    architecture: str
    junctions: list[JunctionRecord] = field(default_factory=list)
    encoding_flags: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(j.verdict.feasible for j in self.junctions)

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "passed": self.passed,
            "encoding_flags": list(self.encoding_flags),
            "junctions": [
                {
                    "producer": j.producer,
                    "consumer": j.consumer,
                    "path": j.verdict.path_id,
                    "principle": j.verdict.principle,
                    "status": j.verdict.status.value,
                    "reason": j.verdict.reason,
                }
                for j in self.junctions
            ],
        }

    def render_text(self) -> str:
        lines = [f"architecture: {self.architecture}"]
        for j in self.junctions:
            extra = f"  ({j.verdict.reason})" if j.verdict.reason else ""
            lines.append(
                f"  {j.producer} -> {j.consumer}: path {j.verdict.path_id}, "
                f"principle {j.verdict.principle}, {j.verdict.status.value}{extra}"
            )
        for flag in self.encoding_flags:
            lines.append(f"  goal-2 flag: {flag}")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate_architecture(arch: ArchitectureSpec) -> ValidationReport:
    """Check every junction of ``arch`` against the five rules.

    Pure bookkeeping over static per-kind traits: nothing is simulated,
    so this is safe to call before any state allocation. The overall
    report passes only if every junction is feasible. The circuits built
    later measure only at the very end: ``NetworkCircuit`` holds unitary
    gates alone, so there is no mid-circuit measurement to count.
    """
    report = ValidationReport(architecture=arch.name)

    # The encoded input acts as a pseudo-producer: fresh, unentangled, and
    # preparable under either encoding (the data stage supports both).
    prev_label = "input"
    prev = dict(reuses=False, views=(A, P))

    for i, layer in enumerate(arch.layers):
        traits = _KIND_TRAITS[layer.kind]
        label = f"{layer.kind}[{i}]"
        wanted = traits["in_enc"]
        if wanted in prev["views"]:
            out_enc = wanted
        else:
            out_enc = prev["views"][0]
            report.encoding_flags.append(
                f"{label} canonically consumes {wanted.value} encoding but "
                f"receives {out_enc.value} from {prev_label}"
            )
        profile = JunctionProfile(
            out_encoding=out_enc,
            out_entangled=i > 0,  # the producer is a layer, not the encoded input
            reuses_input_qubits=prev["reuses"],
            in_encoding=wanted,
            consumer_ops=traits["ops"],
        )
        verdict = check_connection(profile)
        report.junctions.append(
            JunctionRecord(prev_label, label, verdict)
        )
        prev_label = label
        prev = traits
    return report
