"""Fuzzing the instance parser and the scalar arguments through the CLI.

Every input must end in a report or an ``error:`` line: exit 0, 1 or 2 and
no traceback, with exit 2 whenever ``parse_instance`` raises ParseError.
Inputs are random JSON trees and mutated golden instance files for
``validate`` and ``center``, mutated instances with random group counts for
the partition searches ``tverberg-search`` and ``colorful``, mutated
instances for the planar construction ``tverberg-plane``, mutated
instances, witnesses and partition reports for ``plot``, mutated measure
stanzas (some of another dimension than their instance) and transversal
specs with small sample and probe counts for ``verify-measure`` and
``verify-transversal``, and random scalar text for ``depth --point``.
``parse_scalar`` is also checked directly against ``Fraction``'s own parser
on random scalar text.  The runs are derandomized so a failure replays.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from dualdepth import gen_instance
from dualdepth.cli import main
from dualdepth.io import ParseError, _exponent_digits, parse_instance, parse_scalar, write_instance

from conftest import assert_parses_like_reference

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INSTANCES = [(GOLDEN / name).read_bytes() for name in ("triangle.json", "six.json")]
# three colour classes of sizes 3 and 2 in the plane
COLORED_INSTANCES = [
    write_instance(gen_instance("random-rational", 3 * t, 2, seed=t, colors=sorted(list(range(3)) * t)))
    for t in (3, 2)
]
# integers only: argparse itself answers a non-integer count with exit 2.
# Counts that fit the golden instances come first, so most runs search.
COUNTS = st.sampled_from(["1", "2"]) | st.sampled_from(
    ["3", "0", "-1", "4", str(10**20), str(2**61 - 1)])
# four lines whose center has coordinates of about 6000 digits
LONG_CENTER = json.dumps({"dim": 2, "hyperplanes": [
    {"normal": ["3" * 3000, "1"], "offset": "1"},
    {"normal": ["1", "7" * 3000], "offset": "1"},
    {"normal": ["1", "-1"], "offset": "1"},
    {"normal": ["2", "-1"], "offset": "3"},
]}).encode()

# each example writes and reads one file, which bounds the count
FUZZ = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KEYS = st.sampled_from([
    "format_version", "dim", "hyperplanes", "colors", "general_position",
    "measure", "metadata", "normal", "offset", "codim", "kind", "params",
    "seed", "flats", "sigma",
]) | st.text(max_size=4)
SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
    | st.floats() | st.sampled_from([float("inf"), float("nan"), 2.5, 1e300])
    | st.sampled_from(["1/2", "0", "-3", "x", "1/0", "2.5"])
    | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=24,
)


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


def run_checked(argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI run, which must end in 0, 1 or 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    return code, err.getvalue()


def check_instance_command(command: str, path: Path, data: bytes, *extra: str) -> None:
    path.write_bytes(data)
    code, _ = run_checked([command, "--instance", str(path), *extra])
    try:
        parse_instance(data)
    except ParseError:
        assert code == 2


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a key path from the root."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], value)
    return copy


@FUZZ
@given(tree=JSON | st.dictionaries(KEYS, JSON, max_size=6))
def test_random_trees(instance_path, tree):
    check_instance_command("validate", instance_path, json.dumps(tree).encode())


def _mutated_tree(data, bases, least=1):
    tree = json.loads(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(least, 3))):
        path = data.draw(st.sampled_from(list(_paths(tree))))
        tree = _replace(tree, path, data.draw(SCALARS | JSON))
    return json.dumps(tree).encode()


@FUZZ
@given(data=st.data())
def test_mutated_golden_trees(instance_path, data):
    check_instance_command("validate", instance_path, _mutated_tree(data, GOLDEN_INSTANCES))


@FUZZ
@given(data=st.data())
def test_parse_matches_reference_on_mutated_trees(data):
    # the integer-row parse against the Fraction parse, on the trees above
    # and on golden instances with valid coefficients respelled
    if data.draw(st.booleans()):
        tree = _mutated_tree(data, GOLDEN_INSTANCES + COLORED_INSTANCES)
    else:
        tree = _recoefficient(data, GOLDEN_INSTANCES + COLORED_INSTANCES)
    assert_parses_like_reference(tree, strict=data.draw(st.booleans()))


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_write_round_trip_on_mutated_trees(data):
    # parse(write(parse(b))) == parse(b) for every b that parses; most
    # mutations here keep the file valid, in its coefficients or metadata
    bases = GOLDEN_INSTANCES + COLORED_INSTANCES + MEASURED_INSTANCES[:4]
    mutate = data.draw(st.sampled_from([_recoefficient, _mutated_metadata, _mutated_tree]))
    tree = mutate(data, bases)
    try:
        first = parse_instance(tree)
    except ParseError:
        return
    again = parse_instance(write_instance(first))
    # a NaN in the metadata makes == irreflexive; repr still tells values apart
    assert again == first if first == first else repr(again) == repr(first)
    assert write_instance(again) == write_instance(first)


@FUZZ
@given(data=st.data())
def test_center_on_mutated_trees(instance_path, data):
    tree = _mutated_tree(data, [LONG_CENTER] + GOLDEN_INSTANCES, least=0)
    check_instance_command("center", instance_path, tree)


# valid coefficients, some far outside float range or below its resolution
COEFFICIENTS = st.integers(-10**6, 10**6).map(str) | st.sampled_from([
    "0", "1/3", "-7/2", "1e300", "-1e-300", "1" + "0" * 400, "-1/1" + "0" * 400,
])


def _recoefficient(data, bases):
    """A base instance with up to 3 coefficients replaced by valid scalars."""
    tree = json.loads(data.draw(st.sampled_from(bases)))
    slots = [("hyperplanes", i, "offset") for i in range(len(tree["hyperplanes"]))]
    slots += [("hyperplanes", i, "normal", k)
              for i, h in enumerate(tree["hyperplanes"]) for k in range(len(h["normal"]))]
    for _ in range(data.draw(st.integers(0, 3))):
        tree = _replace(tree, data.draw(st.sampled_from(slots)), data.draw(COEFFICIENTS))
    return json.dumps(tree).encode()


def _mutated_metadata(data, bases):
    """A base instance with its metadata, or a part of it, replaced by a random tree."""
    tree = json.loads(data.draw(st.sampled_from(bases)))
    tree.setdefault("metadata", {})
    path = data.draw(st.sampled_from([p for p in _paths(tree) if p[:1] == ("metadata",)]))
    whole = st.dictionaries(KEYS, SCALARS | JSON, max_size=4)
    value = data.draw(SCALARS | JSON if path[1:] else whole)
    return json.dumps(_replace(tree, path, value)).encode()


def _search_input(data, bases):
    if data.draw(st.booleans()):
        return _recoefficient(data, bases)
    return _mutated_tree(data, bases)


@FUZZ
@given(data=st.data())
def test_tverberg_search_on_mutated_trees(instance_path, data):
    base = data.draw(st.sampled_from(GOLDEN_INSTANCES))
    # the golden instances are planar: n lines fit n / 3 groups
    groups = data.draw(st.just(str(len(json.loads(base)["hyperplanes"]) // 3)) | COUNTS)
    tree = _search_input(data, [base])
    check_instance_command("tverberg-search", instance_path, tree, f"--groups={groups}")


@FUZZ
@given(data=st.data(), r=COUNTS)
def test_colorful_on_mutated_trees(instance_path, data, r):
    tree = _search_input(data, COLORED_INSTANCES)
    check_instance_command("colorful", instance_path, tree, f"--r={r}")


# lines in the plane: 3, 6 and 9 of them, so 1 to 3 triples
PLANE_INSTANCES = GOLDEN_INSTANCES + [write_instance(gen_instance("random-rational", 9, 2, seed=3))]


@FUZZ
@given(data=st.data())
def test_tverberg_plane_on_mutated_trees(instance_path, data):
    check_instance_command("tverberg-plane", instance_path, _search_input(data, PLANE_INSTANCES))


POINT_PART = st.sampled_from([
    "0", "-2/3", "1.5", "1e400", "1e5000", "1e100000", "9e4299", "1e-4299", "1/0", "x", "",
]) | st.text("0123456789-+./eE ", max_size=8)


@FUZZ
@given(parts=st.lists(POINT_PART, min_size=1, max_size=3))
def test_depth_point_text(parts):
    text = ",".join(parts)
    code, _ = run_checked(["depth", "--instance", str(GOLDEN / "six.json"), f"--point={text}"])
    try:
        ok = len([parse_scalar(p) for p in parts]) == 2
    except ParseError:
        ok = False
    assert code == (0 if ok else 2)


PLAIN_SCALARS = st.builds(
    lambda p, q: f"{p}/{q}" if q is not None else str(p),
    st.integers(-10**6, 10**6), st.none() | st.integers(0, 10**6),
)


@settings(FUZZ, max_examples=200)
@given(text=PLAIN_SCALARS | st.text("0123456789-+/_. e\u0663", max_size=10))
def test_parse_scalar_agrees_with_fraction(text):
    # the plain "p" and "p/q" path and Fraction's parser give one value, or
    # both refuse; an exponent past the digit limit is refused unparsed
    if _exponent_digits(text) > sys.get_int_max_str_digits():
        want = None
    else:
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            want = None
    if want is None:
        with pytest.raises(ParseError) as got:
            parse_scalar(text)
        assert got.value.code == "bad-scalar"
    else:
        assert parse_scalar(text) == want


def test_parse_scalar_refuses_long_unicode_exponents():
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which Fraction reads as 3
    assert parse_scalar("1e\u0663\u0663") == 10**33
    with pytest.raises(ParseError, match="more than"):
        parse_scalar("1e" + "\u0663" * 8)


@FUZZ
@given(data=st.data())
def test_mutated_golden_bytes(instance_path, data):
    raw = bytearray(data.draw(st.sampled_from(GOLDEN_INSTANCES)))
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = data.draw(st.sampled_from(b'0123456789-/.,:"[]{}e \\xab'))
        if op == "replace":
            raw[at] = byte
        elif op == "insert":
            raw.insert(at, byte)
        else:
            del raw[at]
    check_instance_command("validate", instance_path, bytes(raw))


def _measured(base: bytes, measure: dict) -> bytes:
    tree = json.loads(base)
    tree["measure"] = measure
    return json.dumps(tree).encode()


# the triangle under two measure kinds, six lines under the third, a
# measure in R^3, and a measure of another dimension than its instance
MEASURED_INSTANCES = [
    _measured(GOLDEN_INSTANCES[0], {"dim": 2, "codim": 1, "kind": "uniform-angle-offset",
                                    "params": {"radius": 1.0, "center": [0.5, 0.5]}, "seed": 0}),
    _measured(GOLDEN_INSTANCES[0], {"dim": 2, "codim": 1, "kind": "gaussian-offset",
                                    "params": {"mean": 0.0, "std": 1.0}, "seed": 1}),
    _measured(GOLDEN_INSTANCES[1], {"dim": 2, "codim": 1, "kind": "smoothed-points",
                                    "params": {"flats": [[[1, 0], 0], [[0, 1], 0], [[1, 1], 1]],
                                               "sigma": 0.1, "weights": [1, 1, 2]}, "seed": 2}),
    _measured(write_instance(gen_instance("random-rational", 5, 3, seed=1)),
              {"dim": 3, "codim": 1, "kind": "uniform-angle-offset",
               "params": {"radius": 2.0}, "seed": 3}),
    _measured(GOLDEN_INSTANCES[0], {"dim": 6, "codim": 1, "kind": "gaussian-offset",
                                    "params": {"mean": 0.0, "std": 1.0}, "seed": 4}),
]
# one measure on hyperplanes and a point; two measures on lines and a line
TRANSVERSAL_SPECS = [
    json.dumps({"measures": [{"dim": 2, "codim": 1, "kind": "gaussian-offset",
                              "params": {"std": 1.0}, "seed": 0}],
                "flat": {"point": ["0", "0"]}}).encode(),
    json.dumps({"measures": [{"dim": 2, "codim": 2, "kind": "uniform-angle-offset",
                              "params": {"radius": 1.0, "center": [-2.0, 0.0]}, "seed": k}
                             for k in range(2)],
                "flat": {"point": ["0", "0"], "directions": [["1", "0"]]}}).encode(),
]
# a triangle's partition and two groups of six lines, as run reports
PARTITION_REPORTS = [
    json.dumps({"result": json.loads((GOLDEN / "partition_triangle.json").read_bytes())}).encode(),
    json.dumps({"result": {"groups": [[0, 1, 2], [3, 4, 5]], "witness": ["0", "0"]}}).encode(),
]
# sample counts stay at most 200 so that each run takes milliseconds
SAMPLES = st.sampled_from(["200", "200", "50", "1", "2", "0", "-5"])
PROBES = st.sampled_from(["60", "60", "1", "3", "4", "0", "-2"])
# most measure mutations are rejected when the file is read; more examples
# let enough of them reach the sampler
MEASURE_FUZZ = settings(FUZZ, max_examples=100)
# parameter values: mostly numbers and short numeric lists of every kind
NUMBERS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)
           | st.sampled_from([0.0, -1.0, 1e300, -1e-300, float("inf"), float("nan"), 10**400]))
NUMERIC = (NUMBERS | st.lists(NUMBERS, max_size=4)
           | st.lists(st.lists(NUMBERS, max_size=3), max_size=3))


def _point_text(data) -> str:
    return ",".join(data.draw(st.lists(POINT_PART, min_size=1, max_size=3)))


def _mutated_within(data, bases, *keys):
    """A base tree with 1 to 3 positions below any of the given keys replaced."""
    tree = json.loads(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [p for p in _paths(tree) if any(k in p for k in keys)]
        value = data.draw(st.one_of(NUMBERS, NUMBERS, NUMERIC, SCALARS | JSON))
        tree = _replace(tree, data.draw(st.sampled_from(paths)), value)
    return json.dumps(tree).encode()


@MEASURE_FUZZ
@given(data=st.data(), samples=SAMPLES, probes=PROBES)
def test_verify_measure_on_mutated_trees(instance_path, data, samples, probes):
    if data.draw(st.booleans()):
        tree = _mutated_within(data, MEASURED_INSTANCES, "params")
    else:
        tree = _mutated_tree(data, MEASURED_INSTANCES, least=0)
    extra = [f"--samples={samples}", f"--probes={probes}"]
    if data.draw(st.booleans()):
        extra.append(f"--point={_point_text(data)}")
    check_instance_command("verify-measure", instance_path, tree, *extra)


@MEASURE_FUZZ
@given(data=st.data(), samples=SAMPLES, probes=PROBES)
def test_verify_transversal_on_mutated_specs(instance_path, data, samples, probes):
    if data.draw(st.booleans()):
        spec = _mutated_within(data, TRANSVERSAL_SPECS, "params", "flat")
    else:
        spec = _mutated_tree(data, TRANSVERSAL_SPECS, least=0)
    instance_path.write_bytes(spec)
    run_checked(["verify-transversal", "--spec", str(instance_path),
                 f"--samples={samples}", f"--probes={probes}"])


@FUZZ
@given(data=st.data())
def test_plot_on_mutated_trees(instance_path, data):
    extra = ["--out", str(instance_path.with_name("plot.svg"))]
    if data.draw(st.booleans()):
        extra.append(f"--witness={_point_text(data)}")
    if data.draw(st.booleans()):
        report = instance_path.with_name("report.json")
        report.write_bytes(_mutated_tree(data, PARTITION_REPORTS, least=0))
        extra.append(f"--partition-report={report}")
    check_instance_command("plot", instance_path, _search_input(data, GOLDEN_INSTANCES), *extra)
