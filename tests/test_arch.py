"""Architecture spec tests: shape checks on construction, frozen specs, the file format."""

import dataclasses
import re

import numpy as np
import pytest

from qnnkit.arch import (
    ArchitectureError,
    ArchitectureParseError,
    ArchitectureSpec,
    LayerSpec,
    from_kinds,
    parse_architecture,
)

# one case per message the shape check gives: (input_dim, num_classes, layers, message)
BAD_SHAPES = {
    "input-dim-not-power-of-two": (6, 2, [LayerSpec("v", 2)], "power of two"),
    "input-dim-one": (1, 1, [LayerSpec("v", 1)], "power of two"),
    "no-outputs": (4, 0, [LayerSpec("v", 2)], "at least 1 output"),
    "no-layers": (4, 2, [], "no layers"),
    "unknown-kind": (4, 2, [LayerSpec("v", 2), LayerSpec("q", 2)], "unknown layer kind 'q'"),
    "zero-width": (4, 2, [LayerSpec("v", 2), LayerSpec("u", 0)], "u-layer width must be >= 1"),
    "zero-repeat": (4, 2, [LayerSpec("v", 2, repeat=0)], "v-layer repeat must be >= 1"),
    "repeat-on-u": (4, 2, [LayerSpec("v", 2), LayerSpec("u", 2, repeat=2)], "only v-layers"),
    "v-width": (4, 2, [LayerSpec("v", 3)], "v-layer width must be log2(input_dim) = 2"),
    "n-width": (4, 2, [LayerSpec("v", 2), LayerSpec("u", 3), LayerSpec("n", 2)], "n-layer width must match its input (3)"),
    "v-final-too-many-classes": (4, 3, [LayerSpec("v", 2)], "3 classes need >= 3 qubits"),
    "last-width": (4, 2, [LayerSpec("v", 2), LayerSpec("u", 3)], "last layer width must equal num_classes (2)"),
}


@pytest.mark.parametrize("case", list(BAD_SHAPES))
def test_a_bad_shape_fails_on_construction(case):
    input_dim, num_classes, layers, message = BAD_SHAPES[case]
    with pytest.raises(ArchitectureError, match=re.escape(message)):
        ArchitectureSpec(input_dim, num_classes, layers)


# each of these equals a valid int (True == 1, 2.0 == 2), so only a type check catches it
NOT_INTEGERS = {
    "float-input-dim": (4.0, 2, [LayerSpec("v", 2)], "input_dim must be an integer, got 4.0"),
    "bool-classes": (4, True, [LayerSpec("v", 2)], "num_classes must be an integer, got True"),
    "float-width": (4, 2, [LayerSpec("v", 2.0)], "v-layer width must be an integer, got 2.0"),
    "float-repeat": (4, 2, [LayerSpec("v", 2, repeat=2.0)], "v-layer repeat must be an integer, got 2.0"),
    "bool-repeat": (4, 2, [LayerSpec("v", 2, repeat=True)], "v-layer repeat must be an integer, got True"),
}


@pytest.mark.parametrize("case", list(NOT_INTEGERS))
def test_a_count_that_is_not_an_integer_fails_on_construction(case):
    input_dim, num_classes, layers, message = NOT_INTEGERS[case]
    with pytest.raises(TypeError, match=re.escape(message)):
        ArchitectureSpec(input_dim, num_classes, layers)


def test_numpy_integers_are_counts():
    spec = ArchitectureSpec(np.int64(4), np.int32(2), [LayerSpec("v", np.int64(2), np.uint8(2))])
    assert spec == ArchitectureSpec(4, 2, [LayerSpec("v", 2, 2)])
    counts = [spec.input_dim, spec.num_classes, spec.layers[0].width, spec.layers[0].repeat]
    assert [type(c) for c in counts] == [int] * 4  # stored as Python ints
    assert from_kinds(np.int64(16), np.int32(2), "vu") == from_kinds(16, 2, "vu")


@pytest.mark.parametrize("input_dim", [16.0, "16"])
def test_from_kinds_rejects_a_non_integer_input_dim_as_the_spec_does(input_dim):
    message = f"input_dim must be an integer, got {input_dim!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        from_kinds(input_dim, 2, "vu")


def test_a_bad_shape_in_a_file_is_a_line_one_parse_error():
    with pytest.raises(ArchitectureParseError, match="line 1: last layer width"):
        parse_architecture("input_dim 4\nclasses 2\nlayer v width=2\nlayer u width=3\n")


REPEATED_KEYS = {
    "input_dim": ("input_dim 4\nclasses 2\nlayer v width=2\ninput_dim 8\n", "line 4: repeated input_dim header"),
    "classes": ("classes 2\ninput_dim 4\nclasses 2\nlayer v width=2\n", "line 3: repeated classes header"),
    "width": ("input_dim 4\nclasses 2\nlayer v width=2 width=9\n", "line 3: repeated layer option 'width'"),
    "r": ("input_dim 4\nclasses 2\nlayer v width=2 r=2 r=3\n", "line 3: repeated layer option 'r'"),
}


@pytest.mark.parametrize("key", list(REPEATED_KEYS))
def test_a_repeated_key_is_a_parse_error_on_its_line(key):
    text, message = REPEATED_KEYS[key]
    with pytest.raises(ArchitectureParseError, match=re.escape(message)):
        parse_architecture(text)


def test_from_kinds_widths_follow_one_rule():
    arch = from_kinds(16, 3, "vvunpnp", repeat=2, hidden=5)
    assert [(l.kind, l.width, l.repeat) for l in arch.layers] == [
        ("v", 4, 2), ("v", 4, 2), ("u", 5, 1), ("n", 5, 1), ("p", 5, 1), ("n", 5, 1), ("p", 3, 1),
    ]
    assert [l.width for l in from_kinds(16, 4, "vn").layers] == [4, 4]
    assert [l.width for l in from_kinds(16, 3, "vun").layers] == [4, 3, 3]
    # the spec's own construction does the checking
    for input_dim, kinds, message in ((6, "vu", "power of two"), (0, "v", "power of two"),
                                      (4, "vq", "unknown layer kind"), (16, "vn", "last layer width")):
        with pytest.raises(ArchitectureError, match=message):
            from_kinds(input_dim, 2, kinds)


def test_specs_are_frozen():
    arch = from_kinds(8, 2, "vunp")
    with pytest.raises(dataclasses.FrozenInstanceError):
        arch.num_classes = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        arch.layers[0].width = 2


def test_replace_checks_the_new_shape():
    arch = from_kinds(4, 2, "vu")
    assert dataclasses.replace(arch, layers=[LayerSpec("v", 2, repeat=3), arch.layers[1]]).name == "v*3+u"
    with pytest.raises(ArchitectureError, match="last layer width"):
        dataclasses.replace(arch, num_classes=3)


def test_layers_cannot_be_reassigned_in_place():
    arch = from_kinds(4, 2, "vu")
    assert isinstance(arch.layers, tuple)
    with pytest.raises(TypeError):
        arch.layers[1] = LayerSpec("u", 5)
    assert arch.layers[1] == LayerSpec("u", 2)


def test_equal_specs_hash_equal():
    a = from_kinds(4, 2, "vu")
    b = ArchitectureSpec(4, 2, [LayerSpec("v", 2), LayerSpec("u", 2)])  # a list is accepted
    assert a == b and hash(a) == hash(b)
    assert len({a, b, from_kinds(4, 2, "v")}) == 2
