"""Declarative network architectures and their on-disk text format.

An architecture is a list of layers over a power-of-two input dimension:

- ``v``: variational blocks on the log2(input_dim) input qubits;
  ``repeat`` stacks blocks (more trainable angles).
- ``u``: weighted-sum neurons consuming the amplitude stage; at most one,
  directly after the v stage.
- ``n``: normalization, one trainable RX angle per channel; width always
  equals the previous layer's width.
- ``p``: probability-product neurons; may alternate with ``n``.

The file format is line-oriented and hand-writable::

    input_dim 16
    classes 2
    layer v width=4 r=2
    layer u width=2

Header keys come first; each ``layer`` line takes ``width=`` and, on v
layers only, an optional ``r=`` (``LayerSpec.repeat``).

In code, ``from_kinds(input_dim, num_classes, "vunp", repeat=2, hidden=4)``
builds the spec of a kind sequence by one width rule: v layers are
log2(input_dim) wide and repeat ``repeat`` times; an n layer is as wide
as its input; u and p layers are ``hidden`` wide, except the last u or p
layer, which is ``num_classes`` wide.

Specs are frozen and check their shape on construction, so every
``ArchitectureSpec`` in hand has a valid shape, with integer counts
(numpy ints too, stored as Python ints, but no bool or float); whether
its junctions are feasible is ``qnnkit.rules``' question.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

VALID_KINDS = ("v", "u", "n", "p")


class ArchitectureError(ValueError):
    """Structurally invalid architecture."""


class ArchitectureParseError(ValueError):
    """Unparseable architecture file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    width: int
    repeat: int = 1


def _count(what: str, value) -> int:
    """``value`` as a Python int, which JSON takes and numpy ints are not."""
    # numpy ints pass; a bool is an Integral, and 2.0 would pass every shape check
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ArchitectureSpec:
    input_dim: int
    num_classes: int
    layers: tuple[LayerSpec, ...] = ()

    @property
    def n_qubits(self) -> int:
        return int(math.log2(self.input_dim))

    @property
    def name(self) -> str:
        """Compact label like 'v*2+u' for reports and CSV rows."""
        parts = []
        for layer in self.layers:
            parts.append(f"{layer.kind}*{layer.repeat}" if layer.repeat > 1 else layer.kind)
        return "+".join(parts)

    def __post_init__(self) -> None:
        """Structural checks; junction feasibility lives in qnnkit.rules."""
        for name in ("input_dim", "num_classes"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        layers = tuple(
            LayerSpec(l.kind, _count(f"{l.kind}-layer width", l.width),
                      _count(f"{l.kind}-layer repeat", l.repeat))
            for l in self.layers  # callers may pass a list
        )
        object.__setattr__(self, "layers", layers)
        if self.input_dim < 2 or 2 ** self.n_qubits != self.input_dim:
            raise ArchitectureError(
                f"input_dim must be a power of two >= 2, got {self.input_dim}"
            )
        # num_classes = 1 is allowed for verification-only networks; train refuses it
        if self.num_classes < 1:
            raise ArchitectureError(f"need at least 1 output, got {self.num_classes}")
        if not self.layers:
            raise ArchitectureError("architecture has no layers")

        for layer in self.layers:
            if layer.kind not in VALID_KINDS:
                raise ArchitectureError(f"unknown layer kind {layer.kind!r}")
            if layer.width < 1:
                raise ArchitectureError(f"{layer.kind}-layer width must be >= 1")
            if layer.repeat < 1:
                raise ArchitectureError(f"{layer.kind}-layer repeat must be >= 1")
            if layer.repeat > 1 and layer.kind != "v":
                raise ArchitectureError("only v-layers take a repeat count")

        # Width bookkeeping; junction feasibility and the stricter trainer
        # pipeline shape are checked elsewhere, so that the rule engine can
        # analyze deliberately broken architectures.
        for i, layer in enumerate(self.layers):
            prev_width = self.n_qubits if i == 0 else self.layers[i - 1].width
            if layer.kind == "v" and layer.width != self.n_qubits:
                raise ArchitectureError(
                    f"v-layer width must be log2(input_dim) = {self.n_qubits}, "
                    f"got {layer.width}"
                )
            if layer.kind == "n" and layer.width != prev_width:
                raise ArchitectureError(
                    f"n-layer width must match its input ({prev_width}), "
                    f"got {layer.width}"
                )

        last = self.layers[-1]
        if last.kind == "v":
            if self.num_classes > self.n_qubits:
                raise ArchitectureError(
                    f"a v-final network reads one qubit per class: "
                    f"{self.num_classes} classes need >= {self.num_classes} qubits, "
                    f"have {self.n_qubits}"
                )
        elif last.width != self.num_classes:
            raise ArchitectureError(
                f"last layer width must equal num_classes ({self.num_classes}), "
                f"got {last.width}"
            )


# ---------------------------------------------------------------------------
# kind sequences
# ---------------------------------------------------------------------------


def from_kinds(
    input_dim: int, num_classes: int, kinds: Sequence[str], repeat: int = 1, hidden: int = 4
) -> ArchitectureSpec:
    """The spec of a kind sequence such as ``"vunp"``, by the module's width rule.

    The spec's own construction checks the result.
    """
    # log2 of a power of two; the spec rejects any other
    n = _count("input_dim", input_dim).bit_length() - 1
    last_up = max((i for i, kind in enumerate(kinds) if kind in ("u", "p")), default=None)
    layers, width = [], n
    for i, kind in enumerate(kinds):
        if kind == "v":
            width = n
        elif kind in ("u", "p"):
            width = num_classes if i == last_up else hidden
        layers.append(LayerSpec(kind, width, repeat if kind == "v" else 1))
    return ArchitectureSpec(input_dim, num_classes, layers)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def parse_architecture(text: str) -> ArchitectureSpec:
    headers: dict[str, int] = {}
    layers: list[LayerSpec] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0].lower()
        if key in ("input_dim", "classes"):
            if len(tokens) != 2:
                raise ArchitectureParseError(line_no, f"{key} takes one value")
            if key in headers:
                raise ArchitectureParseError(line_no, f"repeated {key} header")
            headers[key] = _parse_int(line_no, key, tokens[1])
        elif key == "layer":
            if len(tokens) < 3:
                raise ArchitectureParseError(line_no, "layer needs a kind and width=")
            kind = tokens[1].lower()
            if kind not in VALID_KINDS:
                raise ArchitectureParseError(line_no, f"unknown layer kind {kind!r}")
            options: dict[str, int] = {}
            for tok in tokens[2:]:
                if "=" not in tok:
                    raise ArchitectureParseError(line_no, f"expected key=value, got {tok!r}")
                k, v = tok.split("=", 1)
                if k not in ("width", "r"):
                    raise ArchitectureParseError(line_no, f"unknown layer option {k!r}")
                if k in options:
                    raise ArchitectureParseError(line_no, f"repeated layer option {k!r}")
                options[k] = _parse_int(line_no, k, v)
            if "width" not in options:
                raise ArchitectureParseError(line_no, "layer is missing width=")
            layers.append(LayerSpec(kind, options["width"], repeat=options.get("r", 1)))
        else:
            raise ArchitectureParseError(line_no, f"unknown directive {key!r}")

    for key in ("input_dim", "classes"):
        if key not in headers:
            raise ArchitectureParseError(1, f"missing {key} header")
    try:
        return ArchitectureSpec(headers["input_dim"], headers["classes"], layers)
    except ArchitectureError as exc:
        raise ArchitectureParseError(1, str(exc)) from exc


def _parse_int(line_no: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ArchitectureParseError(line_no, f"{key} must be an integer, got {value!r}")


def load_architecture(path) -> ArchitectureSpec:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ArchitectureParseError(
            line_no, f"not UTF-8 text (byte 0x{raw[exc.start]:02x})"
        ) from None
    return parse_architecture(text)
