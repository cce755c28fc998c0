"""Instances as integer rows: the one-pass parse against the Fraction parse.

``parse_instance`` reads each hyperplane straight to its integer row; the
reference in ``conftest.parse_instance_reference`` builds a Fraction per
scalar and a Hyperplane per row.  The two must agree on every accepted
file, field by field and in ``write_instance`` bytes, and on the code and
message of every rejection.
"""

import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from dualdepth import Hyperplane, Instance, gen_instance, parse_instance, write_instance
from dualdepth.cli import main
from dualdepth.generators import MODELS
from dualdepth import io
from dualdepth.io import ParseError

from conftest import assert_parses_like_reference


def _decimal_places(q: int):
    """The least m with q dividing 10^m, or None when q has another prime factor."""
    a = b = 0
    while q % 2 == 0:
        q, a = q // 2, a + 1
    while q % 5 == 0:
        q, b = q // 5, b + 1
    return max(a, b) if q == 1 else None


def _spellings(v: Fraction) -> list:
    """Equal spellings of v that an instance file may use."""
    p, q = v.numerator, v.denominator
    out = [f"{p}/{q}" if q > 1 else str(p), f"{3 * p}/{3 * q}"]
    if q == 1:
        out += [p, f"{p}/1", f"+{p}" if p >= 0 else str(p)]
    if v == 0:
        out += ["-0", "0/7", "-0/3"]
    m = _decimal_places(q)
    if m:
        digits = str(abs(p) * 10**m // q).rjust(m + 1, "0")
        out += [("-" if p < 0 else "") + digits[:-m] + "." + digits[-m:], f"{p * 10**m // q}e-{m}"]
    if Fraction(repr(float(v))) == v:
        out.append(float(v))
    return out


def _respelled(inst: Instance, rng: random.Random) -> bytes:
    """``write_instance`` of inst with every scalar in a random equal spelling."""
    obj = json.loads(write_instance(inst))
    for hp in obj["hyperplanes"]:
        hp["normal"] = [rng.choice(_spellings(Fraction(c))) for c in hp["normal"]]
        hp["offset"] = rng.choice(_spellings(Fraction(hp["offset"])))
    return json.dumps(obj).encode()


def test_spellings_are_equal():
    for v in (Fraction(0), Fraction(-3), Fraction(7, 256), Fraction(-1, 3), Fraction(5, 4)):
        for s in _spellings(v):
            assert Fraction(repr(s) if isinstance(s, float) else s) == v, s


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("model", MODELS)
def test_parse_matches_fraction_reference(model, d):
    rng = random.Random(f"{model} {d}")
    for n in (d - 1, d + 2, 9):
        for seed in range(3):
            F = gen_instance(model, n, d, seed, colors=[i % (d + 1) for i in range(n)])
            if seed == 1:
                F.metadata["general_position"] = True
            data = write_instance(F)
            assert assert_parses_like_reference(data) == F
            for _ in range(3):
                assert assert_parses_like_reference(_respelled(F, rng)) == F


def _file(*planes, **extra) -> str:
    obj = {"dim": 2, "hyperplanes": [{"normal": list(a), "offset": b} for a, b in planes]}
    obj.update(extra)
    return json.dumps(obj)


FILES = {
    "plain": _file((["1", "0"], "0"), (["0", "1"], "0"), (["1", "1"], "1")),
    "unreduced": _file((["2/4", "-0"], "6/-3"), (["0", "1"], "0")),
    "zero-denominator": _file((["1/0", "x"], "0")),
    "bad-scalar-before-length": _file((["x", "1", "2"], "0")),
    "length-before-offset": _file((["1", "2", "3"], "x")),
    "zero-normal-before-offset": _file((["0", "-0/5"], "x")),
    "zero-normal-spellings": _file((["-0", "0.0"], "1")),
    "boolean": _file((["1", True], "0")),
    "null": _file((["1", None], "0")),
    "list": _file((["1", [2]], "0")),
    "object-offset": _file((["1", "2"], {"p": 1})),
    "long-integer": _file((["1", "1" * 4400], "0")),
    "long-denominator": _file((["1", "1/" + "3" * 4400], "0")),
    "longest-integer": _file((["1", "-" + "9" * 4300], "0")),
    "long-exponent": _file((["1", "1e4300"], "0")),
    "longest-exponents": _file((["1", "1.5e4299"], "1e-4299")),
    "double-sign": _file((["--1", "1"], "0")),
    "bare-sign": _file((["-", "1"], "0")),
    "empty": _file((["", "1"], "0")),
    "other-spellings": _file(([" 1/2 ", "+3"], "1_0")),
    "arabic-indic-digits": _file((["\u0663", "1"], "\u0663/\u0664")),
    "declared-parallel": _file((["1", "2"], "0"), (["2", "4"], "1"), general_position=True),
    "metadata-declared-parallel": _file(
        (["1", "2"], "0"), (["2", "4"], "1"), metadata={"general_position": 1}),
    "metadata-undeclared-parallel": _file(
        (["1", "2"], "0"), (["2", "4"], "1"), metadata={"general_position": False}),
    "long-json-integer":
        '{"dim": 2, "hyperplanes": [{"normal": [1, %s], "offset": 0}]}' % ("7" * 4400),
    "json-floats": '{"dim": 2, "hyperplanes": [{"normal": [1, 2.5e-3], "offset": -0.0}]}',
    "json-infinity": '{"dim": 2, "hyperplanes": [{"normal": [1, Infinity], "offset": 0}]}',
    "json-nan": '{"dim": 2, "hyperplanes": [{"normal": [1, NaN], "offset": 0}]}',
    "json-integers": '{"dim": 2, "hyperplanes": [{"normal": [1, -2], "offset": 3}, '
                     '{"normal": [-0, 7], "offset": %s}]}' % ("9" * 30),
    "json-integer-zero-normal": '{"dim": 2, "hyperplanes": [{"normal": [0, -0], "offset": 1}]}',
    "string-integer-zero-normal": _file((["0", "-0"], "1")),
    "integers-and-strings": '{"dim": 2, "hyperplanes": [{"normal": [1, "2"], "offset": 0}]}',
    "integer-normal-too-long": _file((["1", "2", "3"], "0")),
    "integer-offset-missing": '{"dim": 2, "hyperplanes": [{"normal": ["1", "2"]}]}',
    "integer-normal-not-a-list": _file(("12", "0")),
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "deep-field": '{"dim": 2, "hyperplanes": [], "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("data", FILES.values(), ids=FILES.keys())
def test_accepts_and_rejects_like_fraction_reference(data):
    assert_parses_like_reference(data)
    assert_parses_like_reference(data, strict=True)


def test_rows_are_the_instance():
    # the row of a rational hyperplane is it times its lcm of denominators,
    # and normal_ints scales the normal alone
    data = _file((["1/2", "-1/3"], "5/4"), (["3", "0"], "1/6"), (["-2/6", "4"], "7"))
    F = parse_instance(data)
    assert F.scaled() == ([(6, -4), (18, 0), (-1, 12)], [15, 1, 21])
    assert F.normal_ints()[0].tolist() == [[3, -2], [3, 0], [-1, 12]]
    assert F.normal_ints()[1] == 12
    assert F.hyperplanes == [
        Hyperplane((Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 4)),
        Hyperplane((Fraction(3), Fraction(0)), Fraction(1, 6)),
        Hyperplane((Fraction(-1, 3), Fraction(4)), Fraction(7)),
    ]
    assert F == Instance(2, F.hyperplanes)
    # one integer row of two rational rows: two instances, as their Hyperplanes are
    whole, halves = _file((["1", "1"], "1")), _file((["1/2", "1/2"], "1/2"))
    assert parse_instance(whole).scaled() == parse_instance(halves).scaled()
    assert parse_instance(whole) != parse_instance(halves)


@pytest.fixture
def count_hyperplanes(monkeypatch):
    """Every Hyperplane constructed while the test runs."""
    built = []
    real = Hyperplane.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Hyperplane, "__post_init__", counting)
    return built


@pytest.mark.parametrize("argv", [["center"], ["depth"], ["validate"]], ids=lambda a: a[0])
@pytest.mark.parametrize("model,n,d,declared", [
    ("random-rational", 12, 2, False),
    ("perturbed-grid", 12, 2, False),
    ("uniform-sphere-tangent", 12, 2, True),
    ("perturbed-grid", 7, 3, True),
    ("perturbed-grid", 2, 3, True),
])
def test_commands_build_no_hyperplane(tmp_path, capsys, count_hyperplanes, argv, model, n, d,
                                      declared):
    F = gen_instance(model, n, d, seed=1)
    if declared:
        F.metadata["general_position"] = True
    path = tmp_path / "instance.json"
    path.write_bytes(write_instance(F))
    if argv == ["depth"]:
        argv = ["depth", "--point=" + ",".join(["1/3", "-5/7", "2"][:d])]
    count_hyperplanes.clear()
    assert main([argv[0], "--instance", str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert count_hyperplanes == []


@pytest.mark.parametrize("argv", [
    ["tverberg-plane"], ["tverberg-search", "--groups", "3"], ["colorful", "--r", "2"],
], ids=lambda a: a[0])
def test_partition_commands_build_no_hyperplane(tmp_path, capsys, count_hyperplanes, argv):
    # their simplices are built from the integer rows
    F = gen_instance("random-rational", 9, 2, seed=7, colors=[0, 0, 0, 1, 1, 1, 2, 2, 2])
    path = tmp_path / "nine.json"
    path.write_bytes(write_instance(F))
    count_hyperplanes.clear()
    assert main([argv[0], "--instance", str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert count_hyperplanes == []


def test_hyperplane_view_is_built_once(tmp_path, capsys, count_hyperplanes):
    # the count above sees Hyperplanes: plot draws the lines from the view
    path = tmp_path / "six.json"
    path.write_bytes(write_instance(gen_instance("random-rational", 6, 2, seed=7)))
    count_hyperplanes.clear()
    assert main(["plot", "--instance", str(path), "--out", str(tmp_path / "six.svg")]) == 0
    capsys.readouterr()
    assert len(count_hyperplanes) == 6
    F = parse_instance(path.read_bytes())
    assert F.hyperplanes is F.hyperplanes


SPELLINGS = {
    "json-int": -7, "true": True, "json-float": 1.0, "plus": "+5", "space": " 5",
    "underscore": "1_0", "minus-zero": "-0", "leading-zeros": "007",
    "arabic-indic": "\u0665", "ratio": "3/4",
    "past-digit-limit": "9" * (sys.get_int_max_str_digits() + 1),
}


@pytest.mark.parametrize("raw", SPELLINGS.values(), ids=SPELLINGS.keys())
def test_each_spelling_parses_as_ratio_reads_it(raw):
    # the spelling under test among plain integer strings, in a normal and as
    # an offset: the same rows as ``_ratio`` gives, or its ParseError code
    for plane in (([raw, "2"], "3"), (["1", "-4"], raw)):
        data = _file((["1", "1"], "0"), plane)
        try:
            values = [io._ratio(v) for v in plane[0] + [plane[1]]]
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_instance(data)
            assert got.value.code == exc.code
            continue
        *normal, offset = (Fraction(p, q) for p, q in values)
        assert parse_instance(data) == Instance(2, [Hyperplane((1, 1), 0), Hyperplane(normal, offset)])
        assert_parses_like_reference(data)


@pytest.mark.parametrize("data,batched", [
    # 18 characters at most: int64 holds every value
    (_file((["1", "-0"], "007"), (["-12", "5"], "-" + "9" * 17)), True),
    # longer strings go scalar by scalar, to int64 rows or Python ints
    (_file((["1", "-0"], "007"), (["-12", "5"], "9" * 40)), False),
    (_file((["1", str(10**18)], str(-2**63)), (["-12", "5"], str(2**63))), False),
    ('{"dim": 2, "hyperplanes": [{"normal": [3, -4], "offset": -%s}]}' % ("8" * 25), True),
    (_file((["1", "2"], "1/2")), False),
    (_file((["1", "+2"], "0")), False),
], ids=["strings", "long-strings", "nineteen-digits", "json-integers", "ratio", "plus"])
def test_integer_files_take_the_batched_pass(data, batched, monkeypatch):
    assert_parses_like_reference(data)
    want = parse_instance(data)
    calls = []
    real = io._ratio_rows
    monkeypatch.setattr(io, "_ratio_rows", lambda *a: calls.append(1) or real(*a))
    F = parse_instance(data)
    assert F == want and bool(calls) != batched
    # int64 rows while every entry fits, Python ints past that
    rows, max_abs = F.row_array()
    assert max_abs == max(abs(c) for a, b in zip(*F.scaled()) for c in (*a, b))
    assert rows.dtype == (np.int64 if max_abs < 2**63 else object)


def test_digit_limit_is_the_interpreters():
    limit = sys.get_int_max_str_digits()
    ok = _file((["1", "9" * limit], "0"))
    assert parse_instance(ok).scaled()[0][0][1] == int("9" * limit)
    with pytest.raises(ParseError) as exc:
        parse_instance(_file((["1", "9" * (limit + 1)], "0")))
    assert exc.value.code == "bad-scalar"
