"""Instance files, generators, and the command-line surface."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dualdepth
from dualdepth import (
    FlatMeasureSpec,
    Hyperplane,
    Instance,
    check_general_position,
    gen_instance,
    parse_instance,
    verify_dual_cpt_measure,
    write_instance,
)
from dualdepth import cli, geometry, measures
from dualdepth.cli import main
from dualdepth.depth import signature_of
from dualdepth.geometry import DegenerateInstanceError
from dualdepth.io import ParseError, instance_measure, parse_scalar, scalar_to_str


def test_exports_resolve_once():
    assert len(dualdepth.__all__) == len(set(dualdepth.__all__))
    for name in dualdepth.__all__:
        assert hasattr(dualdepth, name), name


def test_benchmark_names_resolve():
    # perfbench reaches the library as lib.<module>.<name> with lib the
    # dualdepth package; a name it uses that is gone fails here, not in a
    # benchmark run
    names = {
        m.groups()
        for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
        for m in re.finditer(r"\blib\.(\w+)\.(\w+)", path.read_text())
    }
    assert ("cli", "main") in names
    for module, name in sorted(names):
        assert hasattr(getattr(dualdepth, module), name), f"{module}.{name}"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dualdepth import *", namespace)
    assert set(dualdepth.__all__) <= set(namespace)


def test_library_has_no_dead_code():
    # every top-level function, class and assigned name of the package is
    # named in its code outside its own statement, or exported; every
    # module-level import is used.  A name in a docstring, comment or string
    # does not count.
    exported = set(dualdepth.__all__)
    nodes = []  # (module, top-level statement, the names it reads)
    for path in sorted(Path(dualdepth.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            used = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            nodes.append((path.name, node, used))

    def named(name, node, module=None):
        return any(name in used for m, other, used in nodes
                   if other is not node and module in (None, m))

    dead = []
    for module, node, _ in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name not in exported and not named(node.name, node):
                dead.append(f"{module}: {node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                if name != "__all__" and name not in exported and not named(name, node):
                    dead.append(f"{module}: {name} =")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not named(bound, node, module) and not (module == "__init__.py" and bound in exported):
                    dead.append(f"{module}: import {bound}")
    assert not dead, dead


class TestScalarSerialization:
    def test_to_string_forms(self):
        assert scalar_to_str(Fraction(3)) == "3"
        assert scalar_to_str(Fraction(-1, 2)) == "-1/2"

    def test_parse_forms(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar(5) == Fraction(5)
        assert parse_scalar("0.25") == Fraction(1, 4)
        assert parse_scalar(0.25) == Fraction(1, 4)
        # up to Python's int-conversion limit of 4300 digits
        assert parse_scalar("1.5e4299") == 15 * 10**4298
        assert parse_scalar("1e-4299") == Fraction(1, 10**4299)

    def test_bad_scalars(self):
        for raw in ("x", "1/0", True, None, "1e4300", "1e-4300", "0e99999999"):
            with pytest.raises(ParseError):
                parse_scalar(raw)


GAUSS_STANZA = {"dim": 2, "codim": 1, "kind": "gaussian-offset", "seed": 0}
SMOOTHED_ZERO_NORMAL = {
    "dim": 2, "codim": 1, "kind": "smoothed-points",
    "params": {"flats": [[[0.0, 0.0], 1.0]], "sigma": 0.1},
}


class TestInstanceRoundTrip:
    def test_triangle_round_trip(self, triangle):
        again = parse_instance(write_instance(triangle))
        assert again.dim == 2
        assert again.hyperplanes == triangle.hyperplanes

    def test_generated_round_trip_exact(self):
        F = gen_instance("perturbed-grid", 7, 2, seed=42)
        again = parse_instance(write_instance(F))
        assert again.hyperplanes == F.hyperplanes
        assert again.metadata["seed"] == 42

    def test_colors_round_trip(self):
        F = gen_instance("random-rational", 6, 2, seed=1, colors=[0, 0, 1, 1, 2, 2])
        again = parse_instance(write_instance(F))
        assert again.colors == [0, 0, 1, 1, 2, 2]

    def test_measure_stanza_round_trip(self, triangle):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 2.0}, seed=5)
        triangle.metadata["_measure"] = spec
        again = parse_instance(write_instance(triangle))
        assert instance_measure(again) == spec

    def test_zero_normal_rejected(self):
        data = json.dumps({
            "format_version": 1, "dim": 2,
            "hyperplanes": [{"normal": ["0", "0"], "offset": "1"}],
        })
        with pytest.raises(ParseError) as exc:
            parse_instance(data)
        assert exc.value.code == "zero-normal"

    def test_dimension_mismatch_rejected(self):
        data = json.dumps({
            "dim": 3, "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}],
        })
        with pytest.raises(ParseError) as exc:
            parse_instance(data)
        assert exc.value.code == "dimension-mismatch"

    def test_measure_dimension_mismatch_rejected(self, triangle):
        triangle.metadata["_measure"] = FlatMeasureSpec(6, 1, "gaussian-offset", {}, seed=0)
        with pytest.raises(ParseError, match="instance dim 2, got 6") as exc:
            parse_instance(write_instance(triangle))
        assert exc.value.code == "dimension-mismatch"

    def test_bad_color_rejected(self):
        data = json.dumps({
            "dim": 2,
            "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}],
            "colors": [9],
        })
        with pytest.raises(ParseError) as exc:
            parse_instance(data)
        assert exc.value.code == "bad-color"

    def test_bad_version(self):
        data = json.dumps({"format_version": 99, "dim": 2, "hyperplanes": []})
        with pytest.raises(ParseError) as exc:
            parse_instance(data)
        assert exc.value.code == "bad-version"

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_version_equal_to_one_is_not_the_version(self, capsys, tmp_path, version):
        # both compare equal to 1; only the integer is the format version
        path = tmp_path / "version.json"
        path.write_text(json.dumps({"format_version": version, "dim": 2, "hyperplanes": []}))
        with pytest.raises(ParseError) as exc:
            parse_instance(path.read_bytes())
        assert exc.value.code == "bad-version"
        code, report, err = run_cli(capsys, "validate", "--instance", str(path))
        assert (code, report, err) == (2, None, f"error: {exc.value}\n")

    def test_malformed_json(self):
        with pytest.raises(ParseError) as exc:
            parse_instance(b"{nope")
        assert exc.value.code == "malformed-json"

    def test_unknown_field_strict_vs_lenient(self, triangle):
        obj = json.loads(write_instance(triangle))
        obj["custom"] = {"a": 1}
        data = json.dumps(obj)
        with pytest.raises(ParseError) as exc:
            parse_instance(data, strict=True)
        assert exc.value.code == "unknown-field"
        lenient = parse_instance(data)
        again = json.loads(write_instance(lenient))
        assert again["custom"] == {"a": 1}

    def test_general_position_declaration_enforced(self):
        data = json.dumps({
            "dim": 2,
            "hyperplanes": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["1", "0"], "offset": "1"},
            ],
            "general_position": True,
        })
        with pytest.raises(ParseError) as exc:
            parse_instance(data)
        assert exc.value.code == "general-position-violation"

    def test_metadata_general_position_is_a_declaration(self, capsys, tmp_path):
        # two parallel lines, declared at the top level or in the metadata:
        # one error line, from the parser and from validate
        lines = [{"normal": ["1", "0"], "offset": "0"}, {"normal": ["1", "0"], "offset": "1"}]
        path = tmp_path / "parallel.json"
        for declared in ({"general_position": True}, {"metadata": {"general_position": True}},
                         {"metadata": {"general_position": "yes"}}):
            path.write_text(json.dumps({"dim": 2, "hyperplanes": lines, **declared}))
            with pytest.raises(ParseError) as exc:
                parse_instance(path.read_bytes())
            assert str(exc.value) == "general-position-violation: degenerate subset (0, 1)"
            code, report, err = run_cli(capsys, "validate", "--instance", str(path))
            assert (code, report, err) == (2, None, f"error: {exc.value}\n")

    def test_write_instance_output_parses_again(self):
        # every generator model, declared or not, and a metadata
        # general_position of every truth value
        for model in dualdepth.MODELS:
            for d, n in ((2, 1), (3, 2), (2, 7), (3, 5)):
                for declared in (None, True, 1, "yes", False, 0):
                    F = gen_instance(model, n, d, seed=n)
                    if declared is not None:
                        F.metadata["general_position"] = declared
                    data = write_instance(F)
                    again = parse_instance(data)
                    assert write_instance(again) == data
                    assert again.hyperplanes == F.hyperplanes
                    assert again.metadata.get("general_position") == (
                        True if declared else declared)
        # two parallel lines declared in the metadata are refused when read,
        # so no parsed instance carries a declaration the file cannot keep
        with pytest.raises(ParseError):
            parse_instance(json.dumps({
                "dim": 2,
                "hyperplanes": [{"normal": ["1", "0"], "offset": str(k)} for k in range(2)],
                "metadata": {"general_position": True},
            }))

    def test_write_instance_checks_a_declared_general_position(self):
        # a truthy metadata.general_position of an instance built in code is
        # checked before it becomes the file's declaration
        F = Instance(2, [Hyperplane((1, 0), 0), Hyperplane((1, 0), 1)],
                     metadata={"general_position": True})
        with pytest.raises(DegenerateInstanceError, match=r"degenerate subset \(0, 1\)"):
            write_instance(F)
        F.metadata["general_position"] = False
        assert parse_instance(write_instance(F)).metadata["general_position"] is False

    @pytest.mark.parametrize("obj,code", [
        ({"dim": 2, "hyperplanes": [{"normal": ["1", "0"]}]}, "malformed-json"),
        ({"dim": "x", "hyperplanes": []}, "bad-type"),
        ({"dim": 2, "hyperplanes": 5}, "bad-type"),
        ({"dim": 2, "hyperplanes": [5]}, "bad-type"),
        ({"dim": 2, "hyperplanes": [{"normal": "10", "offset": "0"}]}, "bad-type"),
        ({"dim": 2, "hyperplanes": [], "metadata": 3}, "bad-type"),
        ({"dim": 2, "hyperplanes": [], "metadata": {"_measure": GAUSS_STANZA}},
         "reserved-field"),
        ({"dim": 2, "hyperplanes": [], "metadata": {"note": 1, "_extra_fields": 5}},
         "reserved-field"),
        ({"dim": 2, "hyperplanes": [], "colors": 3}, "bad-color"),
        ({"dim": 2, "hyperplanes": [], "measure": 5}, "malformed-json"),
        ({"dim": 2.5, "hyperplanes": []}, "bad-type"),
        ({"dim": True, "hyperplanes": []}, "bad-type"),
        ({"dim": "2", "hyperplanes": []}, "bad-type"),
        ({"dim": 2, "hyperplanes": [], "measure": dict(GAUSS_STANZA, dim=2.7)},
         "malformed-json"),
        ({"dim": 2, "hyperplanes": [], "measure": dict(GAUSS_STANZA, codim=True)},
         "malformed-json"),
        ({"dim": 2, "hyperplanes": [], "measure": dict(GAUSS_STANZA, seed="3")},
         "malformed-json"),
        ({"dim": 2, "hyperplanes": [], "measure": SMOOTHED_ZERO_NORMAL}, "malformed-json"),
        ({"dim": 1, "hyperplanes": [{"normal": [float("inf")], "offset": 0}]},
         "bad-scalar"),
        ({"dim": 1, "hyperplanes": [{"normal": ["1"], "offset": "1e10000000"}]},
         "bad-scalar"),
    ])
    def test_malformed_shapes_rejected(self, obj, code):
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.code == code


class TestGenerators:
    def test_seeded_determinism(self):
        for model in ("random-rational", "uniform-sphere-tangent", "perturbed-grid"):
            a = gen_instance(model, 5, 2, seed=3)
            b = gen_instance(model, 5, 2, seed=3)
            assert a.hyperplanes == b.hyperplanes

    def test_certified_general_position(self):
        for model in ("random-rational", "uniform-sphere-tangent", "perturbed-grid"):
            for seed in range(5):
                F = gen_instance(model, 6, 2, seed=seed)
                assert check_general_position(F).ok

    def test_seed_7_example(self):
        F = gen_instance("random-rational", 6, 2, seed=7)
        assert F.n == 6 and check_general_position(F).ok

    def test_sphere_tangent_triangle(self):
        F = gen_instance("uniform-sphere-tangent", 3, 2, seed=0)
        origin = (Fraction(0), Fraction(0))
        for h in F.hyperplanes:
            # normals are exactly unit, offsets 1: tangent to the unit circle
            assert sum(c * c for c in h.normal) == 1
            assert h.offset == 1
        assert signature_of(F, origin) == (-1, -1, -1)  # the circle's center is inside

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            gen_instance("bogus", 3, 2, seed=0)

    def test_sphere_tangent_on_the_line_has_one_hyperplane(self, capsys, tmp_path):
        # in d = 1 every draw is x = 1, so two hyperplanes can never be in
        # general position; the refusal comes before any draw
        F = gen_instance("uniform-sphere-tangent", 1, 1, seed=0)
        assert F.hyperplanes == [Hyperplane((Fraction(1),), Fraction(1))]
        with pytest.raises(ValueError, match="n must be 1"):
            gen_instance("uniform-sphere-tangent", 2, 1, seed=0)
        path = tmp_path / "tangent.json"
        code, report, err = run_cli(capsys, "gen", "--model", "uniform-sphere-tangent",
                                    "--d", "1", "--n", "2", "--seed", "0", "--out", str(path))
        assert (code, report) == (2, None) and "n must be 1" in err
        assert not path.exists()


# JSON that json.loads refuses with other errors than JSONDecodeError: an
# integer past the int-to-str digit limit, and nesting past the recursion limit
JSON_PAST_LIMITS = [
    '{"result": {"groups": [[0, 1, 2]]}, "dim": %s}' % ("1" * 5000),
    "[" * 100_000 + "]" * 100_000,
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


@pytest.fixture
def tri_file(tmp_path, triangle):
    path = tmp_path / "tri.json"
    path.write_bytes(write_instance(triangle))
    return str(path)


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_bytes(write_instance(gen_instance("random-rational", 6, 2, seed=7)))
    return str(path)


class TestCli:
    def test_center_triangle(self, capsys, tri_file):
        code, report, _ = run_cli(capsys, "center", "--instance", tri_file)
        assert code == 0
        assert report["result"]["depth"] == 2
        assert report["result"]["meets_bound"] is True
        assert report["instance_digest"].startswith("sha256:")

    def test_depth_query(self, capsys, tri_file):
        code, report, _ = run_cli(
            capsys, "depth", "--instance", tri_file, "--point", "2,2"
        )
        assert code == 0
        assert report["result"]["depth"] == 0

    def test_tverberg_search(self, capsys, six_file):
        code, report, _ = run_cli(
            capsys, "tverberg-search", "--instance", six_file, "--groups", "2"
        )
        assert code == 0
        assert report["result"]["strict"] is True
        assert len(report["result"]["groups"]) == 2

    def test_tverberg_plane(self, capsys, six_file):
        code, report, _ = run_cli(capsys, "tverberg-plane", "--instance", six_file)
        assert code == 0
        assert len(report["result"]["groups"]) == 2

    @pytest.mark.parametrize("cmd", [["tverberg-plane"], ["tverberg-search", "--groups", "2"]])
    def test_partition_commands_make_one_vertex_pass(self, capsys, monkeypatch, six_file, cmd):
        # six_file declares nothing, so parsing runs no general-position check
        passes = []
        real = geometry.vertex_blocks

        def counting(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "vertex_blocks", counting)
        code, report, _ = run_cli(capsys, *cmd, "--instance", six_file)
        assert code == 0 and report["result"]["type"] == "PartitionResult"
        assert len(passes) == 1

    @pytest.mark.parametrize("cmd", [["tverberg-plane"], ["tverberg-search", "--groups", "2"]])
    @pytest.mark.parametrize("lines", [
        [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, 2), 5), ((3, -1), 7), ((1, -4), 9)],
        [((1, 2), 5), ((3, -1), 7), ((1, -4), 9), ((2, 4), 1), ((0, 1), 3), ((5, 1), -2)],
    ], ids=["concurrent", "parallel"])
    def test_partition_commands_refuse_non_general_position(self, capsys, tmp_path, cmd, lines):
        path = tmp_path / "degenerate.json"
        path.write_bytes(write_instance(Instance(2, [Hyperplane(a, b) for a, b in lines])))
        gp = check_general_position(parse_instance(path.read_bytes()))
        assert not gp.ok
        code, report, err = run_cli(capsys, *cmd, "--instance", str(path))
        assert code == 2 and report is None
        assert err == f"error: instance is not in general position: {gp.reason} subset {gp.violation}\n"

    def test_gen_and_validate(self, capsys, tmp_path):
        out = str(tmp_path / "gen.json")
        code, report, _ = run_cli(
            capsys, "gen", "--model", "random-rational",
            "--n", "5", "--d", "2", "--seed", "3", "--out", out,
        )
        assert code == 0 and report["result"]["n"] == 5
        code, report, _ = run_cli(capsys, "validate", "--instance", out, "--strict")
        assert code == 0
        assert report["result"]["general_position"] is True

    def test_validate_degenerate_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        bad = Instance(2, [
            Hyperplane((Fraction(1), Fraction(0)), Fraction(0)),
            Hyperplane((Fraction(1), Fraction(0)), Fraction(1)),
        ])
        path.write_bytes(write_instance(bad))
        code, report, _ = run_cli(capsys, "validate", "--instance", str(path))
        assert code == 1
        assert report["result"]["general_position"] is False
        assert report["result"]["violation"] == [0, 1]

    def test_colorful(self, capsys, tmp_path):
        F = gen_instance(
            "random-rational", 9, 2, seed=5, colors=[0, 0, 0, 1, 1, 1, 2, 2, 2]
        )
        path = tmp_path / "colored.json"
        path.write_bytes(write_instance(F))
        code, report, _ = run_cli(
            capsys, "colorful", "--instance", str(path), "--r", "2"
        )
        assert code == 0
        assert report["result"]["strict"] is True

    def test_verify_measure(self, capsys, tmp_path, triangle):
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        code, report, _ = run_cli(
            capsys, "verify-measure", "--instance", str(path),
            "--point", "0,0", "--samples", "2000", "--probes", "180",
        )
        assert code == 0
        assert report["result"]["pass"] is True

    @pytest.mark.parametrize("redraws", [0, 1], ids=["first-draw", "redrawn"])
    def test_verify_measure_search_draws_the_sample_once(
            self, capsys, tmp_path, triangle, monkeypatch, redraws):
        spec = FlatMeasureSpec(2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=5)
        triangle.metadata["_measure"] = spec
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        seeds = []
        real_draw, real_center = measures._draw_arrays, measures.max_depth_point

        def counting(spec, N):
            seeds.append(spec.seed)
            return real_draw(spec, N)

        def center(F):
            # the first ``redraws`` subsamples count as degenerate
            if len(seeds) <= redraws:
                raise DegenerateInstanceError("forced")
            return real_center(F)

        monkeypatch.setattr(measures, "_draw_arrays", counting)
        monkeypatch.setattr(measures, "max_depth_point", center)
        code, report, _ = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--samples", "300", "--probes", "24"
        )
        assert code in (0, 1)
        assert seeds == [5, 1006][:redraws + 1]
        # the searched point is verified on the spec's own draw
        point = [float(parse_scalar(c)) for c in report["result"]["point"]]
        monkeypatch.setattr(measures, "_draw_arrays", real_draw)
        rep = verify_dual_cpt_measure(spec, point, 300, 24)
        want = {"type": "VerificationReport", **json.loads(json.dumps(rep.to_json()))}
        assert report["result"] == {**want, "point": report["result"]["point"]}

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 21.8 TiB for an array", "Unable to allocate 21.8 TiB for an array"),
        ("", "an allocation failed"),
    ], ids=["numpy-message", "bare"])
    def test_verify_measure_out_of_memory_exits_two(
            self, capsys, tmp_path, triangle, monkeypatch, message, shown):
        # stands in for an oversized draw: a real one fails fast only where
        # the kernel refuses to overcommit
        def refuse(spec, N):
            raise MemoryError(message)

        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        monkeypatch.setattr(measures, "_draw_arrays", refuse)
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--point", "0,0",
            "--samples", "1000000000000",
        )
        assert code == 2 and report is None
        assert err == f"error: out of memory: {shown}\n"

    @pytest.mark.parametrize("kind,params", [
        ("uniform-angle-offset", {"radius": -1.0}),
        ("gaussian-offset", {"std": -1.0}),
        ("smoothed-points", {"flats": [[[1, 0], 0]], "sigma": -1.0}),
    ], ids=["radius", "std", "sigma"])
    def test_verify_measure_negative_spread_exits_two(self, capsys, tri_file, tmp_path,
                                                      kind, params):
        obj = json.loads(open(tri_file).read())
        obj["measure"] = {"dim": 2, "codim": 1, "kind": kind, "params": params, "seed": 0}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(obj))
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--point", "0,0"
        )
        assert code == 2 and report is None
        assert err.startswith("error: malformed-json: bad measure stanza:")
        assert "must not be negative" in err

    def test_verify_measure_missing_stanza(self, capsys, tri_file):
        code, _, err = run_cli(
            capsys, "verify-measure", "--instance", tri_file, "--point", "0,0"
        )
        assert code == 2
        assert "measure" in err

    def test_verify_transversal(self, capsys, tmp_path):
        spec_obj = {
            "measures": [
                {"dim": 2, "codim": 2, "kind": "uniform-angle-offset",
                 "params": {"radius": 1.0, "center": [-2.0, 0.0]}, "seed": 0},
                {"dim": 2, "codim": 2, "kind": "uniform-angle-offset",
                 "params": {"radius": 1.0, "center": [2.0, 0.0]}, "seed": 1},
            ],
            "flat": {"point": [0, 0], "directions": [[1, 0]]},
        }
        path = tmp_path / "ctr.json"
        path.write_text(json.dumps(spec_obj))
        code, report, _ = run_cli(
            capsys, "verify-transversal", "--spec", str(path), "--samples", "2000"
        )
        assert code == 0
        assert report["result"]["pass"] is True

    def test_plot_with_partition(self, capsys, tmp_path, six_file):
        code, report, _ = run_cli(
            capsys, "tverberg-plane", "--instance", six_file
        )
        rep_path = tmp_path / "partition.json"
        rep_path.write_text(json.dumps(report))
        out = tmp_path / "plot.svg"
        code, report, _ = run_cli(
            capsys, "plot", "--instance", six_file,
            "--out", str(out), "--partition-report", str(rep_path),
        )
        assert code == 0
        text = out.read_text()
        assert text.count("<polygon") == 2 and 'id="witness"' in text

    def test_unknown_flag_exits_two(self, capsys, tri_file):
        code, _, _ = run_cli(capsys, "center", "--instance", tri_file, "--bogus")
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "center", "--instance", "/no/such/file.json")
        assert code == 2 and err

    def test_malformed_instance_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "depth", "--instance", str(path), "--point", "0,0")
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("cmd", [["validate"], ["depth", "--point", "0,0"], ["center"]],
                             ids=["validate", "depth", "center"])
    @pytest.mark.parametrize("text", JSON_PAST_LIMITS, ids=["long-integer", "deep-nesting"])
    def test_instance_json_past_limits_exits_two(self, capsys, tmp_path, cmd, text):
        path = tmp_path / "instance.json"
        path.write_text(text)
        code, report, err = run_cli(capsys, cmd[0], "--instance", str(path), *cmd[1:])
        assert (code, report) == (2, None)
        assert err.startswith("error: malformed-json: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", JSON_PAST_LIMITS, ids=["long-integer", "deep-nesting"])
    def test_transversal_spec_json_past_limits_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, report, err = run_cli(capsys, "verify-transversal", "--spec", str(path))
        assert (code, report) == (2, None)
        assert err.startswith("error: bad transversal spec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", JSON_PAST_LIMITS, ids=["long-integer", "deep-nesting"])
    def test_partition_report_json_past_limits_exits_two(self, capsys, tmp_path, six_file, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        code, report, err = run_cli(capsys, "plot", "--instance", six_file, "--out",
                                    str(tmp_path / "plot.svg"), "--partition-report", str(path))
        assert (code, report) == (2, None)
        assert err.startswith("error: bad partition report: ") and err.count("\n") == 1

    @pytest.mark.parametrize("obj", [
        {"dim": 2, "hyperplanes": [{"normal": ["1", "0"]}]},
        {"dim": "x", "hyperplanes": []},
        {"dim": 2, "hyperplanes": 5},
        {"dim": 2.5, "hyperplanes": []},
        {"dim": True, "hyperplanes": []},
        {"dim": "2", "hyperplanes": []},
        {"dim": 2, "hyperplanes": [], "measure": dict(GAUSS_STANZA, dim=2.7)},
        {"dim": 2, "hyperplanes": [], "measure": SMOOTHED_ZERO_NORMAL},
        {"dim": 1, "hyperplanes": [{"normal": ["1"], "offset": "1e10000000"}]},
    ], ids=["missing-offset", "non-numeric-dim", "non-list-hyperplanes",
            "float-dim", "bool-dim", "string-dim", "float-measure-dim",
            "zero-smoothed-normal", "huge-exponent"])
    def test_malformed_shape_exits_two(self, capsys, tmp_path, obj):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        code, report, err = run_cli(capsys, "center", "--instance", str(path))
        assert code == 2 and report is None
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("cmd", [
        ["validate"],
        ["depth", "--point", "0,0"],
        ["center"],
        ["tverberg-plane"],
        ["tverberg-search", "--groups", "1"],
        ["colorful", "--r", "1"],
        ["verify-measure", "--point=0,0", "--samples", "50", "--probes", "8"],
        ["verify-measure", "--samples", "50", "--probes", "8"],
        ["plot", "--out", "never.svg"],
    ], ids=["validate", "depth", "center", "tverberg-plane", "tverberg-search",
            "colorful", "verify-measure-at-point", "verify-measure-searched", "plot"])
    @pytest.mark.parametrize("key,value", [("_measure", GAUSS_STANZA), ("_extra_fields", 5)],
                             ids=["measure", "extra-fields"])
    def test_reserved_metadata_keys_exit_two(
        self, capsys, monkeypatch, tmp_path, triangle, key, value, cmd
    ):
        monkeypatch.chdir(tmp_path)  # where plot would write
        obj = json.loads(write_instance(triangle))
        obj["metadata"] = {key: value}
        path = tmp_path / "reserved.json"
        path.write_text(json.dumps(obj))
        code, report, err = run_cli(capsys, cmd[0], "--instance", str(path), *cmd[1:])
        assert code == 2 and report is None
        assert err == f"error: reserved-field: metadata keys ['{key}'] are reserved\n"

    @pytest.mark.parametrize("flag", ["--samples", "--probes"])
    @pytest.mark.parametrize("point", [True, False], ids=["at-point", "searched"])
    def test_verify_measure_bad_counts_exit_two(self, capsys, tmp_path, triangle, flag, point):
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        argv = ["verify-measure", "--instance", str(path), flag, "0"]
        if point:
            argv += ["--point", "0,0"]
        else:  # keep the center search small when it runs before the check
            argv += ["--samples" if flag == "--probes" else "--probes", "50"]
        code, report, err = run_cli(capsys, *argv)
        assert code == 2 and report is None
        assert ">= 1" in err

    @pytest.mark.parametrize("codim", [1, 2], ids=["codim1", "codim2"])
    @pytest.mark.parametrize("flag", ["--samples", "--probes"])
    @pytest.mark.parametrize("count", ["0", "-3"], ids=["zero", "negative"])
    def test_verify_transversal_bad_counts_exit_two(self, capsys, tmp_path, codim, flag, count):
        # codim 1: one measure on hyperplanes and a point; codim 2: two
        # measures on lines and a line through the origin
        measures = [
            {"dim": 2, "codim": codim, "kind": "uniform-angle-offset",
             "params": {"radius": 1.0}, "seed": k}
            for k in range(codim)
        ]
        flat = {"point": [0, 0], "directions": [[1, 0]] if codim == 2 else []}
        path = tmp_path / "ctr.json"
        path.write_text(json.dumps({"measures": measures, "flat": flat}))
        code, report, err = run_cli(capsys, "verify-transversal", "--spec", str(path), flag, count)
        assert code == 2 and report is None
        assert ">= 1" in err

    def test_back_to_back_calls_share_no_state(self, capsys, tmp_path, triangle):
        # the parser is built once per process; a flag given to one call
        # must not reach the next, so each call answers as a fresh process
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0, "center": [3.0, 1.0]}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        measure = ["verify-measure", "--instance", str(path), "--samples", "500", "--probes", "60"]
        obj = json.loads(write_instance(triangle))
        obj["custom"] = {"a": 1}
        lenient = tmp_path / "lenient.json"
        lenient.write_text(json.dumps(obj))
        validate = ["validate", "--instance", str(lenient)]

        code, at_point, _ = run_cli(capsys, *measure, "--point", "0,0")
        assert at_point["result"]["point"] == ["0", "0"]
        code, searched, _ = run_cli(capsys, *measure)
        assert searched["result"]["point"] != ["0", "0"]
        code, _, err = run_cli(capsys, *validate, "--strict")
        assert code == 2 and "unknown" in err
        code, report, _ = run_cli(capsys, *validate)
        assert code == 0 and report["result"]["general_position"] is True

        cli._build_parser.cache_clear()
        code, fresh, _ = run_cli(capsys, *measure)
        searched.pop("timing_s")
        fresh.pop("timing_s")
        assert searched == fresh

    @pytest.mark.parametrize("measures", [[], 5], ids=["empty", "not-a-list"])
    def test_verify_transversal_bad_measures_exit_two(self, capsys, tmp_path, measures):
        path = tmp_path / "ctr.json"
        path.write_text(json.dumps({"measures": measures, "flat": {"point": [0, 0]}}))
        code, report, err = run_cli(capsys, "verify-transversal", "--spec", str(path))
        assert code == 2 and report is None
        assert err.startswith("error: ")

    @pytest.mark.parametrize("case", [
        "gen-n-zero", "gen-d-zero", "group-out-of-range", "group-negative", "group-true",
        "group-false", "group-float", "group-short", "group-repeated", "report-is-list",
        "groups-not-list", "witness-not-scalar", "witness-nested", "witness-past-float",
        "depth-point-huge-exponent", "depth-point-past-digit-limit",
        "measure-point-past-float", "plot-witness-past-float", "transversal-point-past-float",
        "plot-witness-short", "plot-witness-long", "report-witness-long",
    ])
    def test_bad_arguments_and_reports_exit_two(self, capsys, tmp_path, six_file, case):
        reports = {
            "group-out-of-range": {"result": {"groups": [[0, 1, 9]]}},
            "group-negative": {"result": {"groups": [[-1, 0, 1]]}},
            "group-true": {"result": {"groups": [[True, 0, 2]]}},
            "group-false": {"result": {"groups": [[False, 1, 2]]}},
            "group-float": {"result": {"groups": [[0.0, 1, 2]]}},
            "group-short": {"result": {"groups": [[0, 1]]}},
            "group-repeated": {"result": {"groups": [[0, 0, 1]]}},
            "report-is-list": [{"result": {"groups": []}}],
            "groups-not-list": {"result": {"groups": 5}},
            "witness-not-scalar": {"result": {"groups": [], "witness": ["x", "y"]}},
            "witness-nested": {"result": {"groups": [], "witness": [[1], [2]]}},
            "witness-past-float": {"result": {"groups": [], "witness": ["1e400", "0"]}},
            "report-witness-long": {"result": {"groups": [], "witness": ["1", "2", "3"]}},
        }
        measure = {"dim": 2, "codim": 1, "kind": "uniform-angle-offset",
                   "params": {"radius": 1.0}, "seed": 0}
        out = str(tmp_path / "out")
        if case in reports:
            rep_path = tmp_path / "report.json"
            rep_path.write_text(json.dumps(reports[case]))
            argv = ["plot", "--instance", six_file, "--out", out,
                    "--partition-report", str(rep_path)]
        elif case.startswith("depth-point"):
            point = "1e100000,0" if case == "depth-point-huge-exponent" else "1e5000,0"
            argv = ["depth", "--instance", six_file, "--point", point]
        elif case == "measure-point-past-float":
            inst = parse_instance(open(six_file, "rb").read())
            inst.metadata["_measure"] = FlatMeasureSpec.from_json(measure)
            path = tmp_path / "measured.json"
            path.write_bytes(write_instance(inst))
            argv = ["verify-measure", "--instance", str(path), "--point", "1e400,0",
                    "--samples", "100"]
        elif case.startswith("plot-witness"):
            witness = {"past-float": "1e400,0", "short": "1", "long": "1,2,3"}[case[13:]]
            argv = ["plot", "--instance", six_file, "--out", out, "--witness", witness]
        elif case == "transversal-point-past-float":
            path = tmp_path / "ctr.json"
            path.write_text(json.dumps({"measures": [measure], "flat": {"point": ["1e400", "0"]}}))
            argv = ["verify-transversal", "--spec", str(path), "--samples", "100"]
        else:
            n, d = ("0", "2") if case == "gen-n-zero" else ("3", "0")
            argv = ["gen", "--n", n, "--d", d, "--out", out]
        code, report, err = run_cli(capsys, *argv)
        assert code == 2 and report is None
        assert err.startswith("error: ") and "Traceback" not in err
        if case.startswith("group"):
            assert err.startswith("error: bad partition report: ") and err.count("\n") == 1

    def test_center_too_long_to_write_exits_two(self, capsys, tmp_path):
        # validates, but the center is the vertex of the two long lines, whose
        # coordinates have about 6000 digits: past the int-to-str limit
        a, b = "3" * 3000, "7" * 3000
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"dim": 2, "hyperplanes": [
            {"normal": [a, "1"], "offset": "1"},
            {"normal": ["1", b], "offset": "1"},
            {"normal": ["1", "-1"], "offset": "1"},
            {"normal": ["2", "-1"], "offset": "3"},
        ]}))
        assert run_cli(capsys, "validate", "--instance", str(path))[0] == 0
        code, report, err = run_cli(capsys, "center", "--instance", str(path))
        assert code == 2 and report is None
        assert err.startswith("error: ") and "Traceback" not in err

    def test_center_of_empty_instance_has_its_dimension(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 3, "hyperplanes": []}))
        code, report, _ = run_cli(capsys, "center", "--instance", str(path))
        assert code == 0
        result = report["result"]
        assert result["point"] == ["0", "0", "0"]
        assert result["depth"] == 0
        assert len(result["witness_direction"]) == 3

    def test_colorful_group_count_past_ssize_t_not_found(self, capsys, tmp_path):
        path = tmp_path / "colored.json"
        path.write_bytes(write_instance(
            gen_instance("random-rational", 6, 2, seed=9, colors=[0, 0, 1, 1, 2, 2])))
        code, report, err = run_cli(capsys, "colorful", "--instance", str(path), f"--r={10**20}")
        assert code == 1 and report["result"]["type"] == "NotFound"
        assert "Traceback" not in err

    def test_gen_without_general_position_exits_two(self, capsys, tmp_path):
        # 400 points b/a on a line with |a|, |b| <= 99: each of the 64 draws
        # repeats a point, so none is in general position
        out = tmp_path / "gen.json"
        code, report, err = run_cli(
            capsys, "gen", "--model", "random-rational",
            "--n", "400", "--d", "1", "--seed", "0", "--out", str(out),
        )
        assert code == 2 and report is None and not out.exists()
        assert err.startswith("error: ") and "general position" in err
        assert "Traceback" not in err

    def test_verify_measure_search_without_general_position_climbs_from_the_mean(
            self, capsys, tmp_path, triangle):
        # every sampled line is x1 = 0 or x1 = 1, so no subsample is in
        # general position; the search starts from the mean of the feet
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "smoothed-points", {"flats": [[[1, 0], 0], [[1, 0], 1]], "sigma": 0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--samples", "200"
        )
        assert code in (0, 1) and "Traceback" not in err
        x1, x2 = (parse_scalar(c) for c in report["result"]["point"])
        assert 0 < x1 < 1 and x2 == 0

    @pytest.mark.parametrize("kind,params", [
        ("uniform-angle-offset", {"radius": 0.0}),
        ("gaussian-offset", {"std": 0.0}),
    ], ids=["radius-zero", "std-zero"])
    def test_verify_measure_search_of_concurrent_measure(
            self, capsys, tmp_path, kind, params):
        # every sampled line passes through the origin, so no subsample is in
        # general position, and the mean of the feet is the origin itself
        inst = gen_instance("random-rational", 6, 2, seed=0)
        inst.metadata["_measure"] = FlatMeasureSpec(2, 1, kind, params, seed=0)
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(inst))
        code, report, _ = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--samples", "500", "--probes", "30"
        )
        assert code == 0 and report["result"]["pass"] is True
        assert report["result"]["estimate"] == 1.0 and report["result"]["point"] == ["0", "0"]

    @pytest.mark.parametrize("kind,params", [
        ("uniform-angle-offset", {"radius": None}),
        ("gaussian-offset", {"std": float("inf")}),
        # the norm of a subnormal normal underflows to 0
        ("smoothed-points", {"flats": [[[1e-320, 0.0], 0.0], [[0.0, 1.0], 0.0]]}),
    ], ids=["radius-null", "std-infinite", "normal-subnormal"])
    def test_measure_params_not_finite_exit_two(self, capsys, tmp_path, triangle, kind, params):
        measure = {"dim": 2, "codim": 1, "kind": kind, "params": params, "seed": 0}
        obj = json.loads(write_instance(triangle))
        obj["measure"] = measure
        inst = tmp_path / "measured.json"
        inst.write_text(json.dumps(obj))
        spec = tmp_path / "ctr.json"
        spec.write_text(json.dumps({"measures": [measure], "flat": {"point": [0, 0]}}))
        for argv in (["verify-measure", "--instance", str(inst)],
                     ["verify-transversal", "--spec", str(spec)]):
            code, report, err = run_cli(capsys, *argv, "--samples", "200")
            assert code == 2 and report is None
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("probes", [1, 3])
    def test_verify_measure_few_probes(self, capsys, tmp_path, triangle, probes):
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--point", "0,0",
            "--samples", "200", "--probes", str(probes),
        )
        assert code in (0, 1) and "Traceback" not in err
        # the plane is swept whatever --probes says: the 200 sampled lines
        # give 200 lines of arc ends, each with two ends and two gaps
        assert report["result"]["trials"] == 4 * 200
        swept = run_cli(capsys, "verify-measure", "--instance", str(path), "--point", "0,0",
                        "--samples", "200")[1]
        assert report["result"] == swept["result"]

    @pytest.mark.parametrize("probes", [1, 3])
    def test_verify_measure_few_probes_d3(self, capsys, tmp_path, probes):
        inst = gen_instance("random-rational", 4, 3, seed=0)
        inst.metadata["_measure"] = FlatMeasureSpec(
            3, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(inst))
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--point", "0,0,0",
            "--samples", "200", "--probes", str(probes),
        )
        assert code in (0, 1) and "Traceback" not in err
        # the covering has `probes` directions, then each of the two refine
        # rounds draws one
        assert report["result"]["trials"] == probes + 2

    @pytest.mark.parametrize("point", [[0, 0], [0.4, -0.3], [3, 1]])
    def test_transversal_point_in_the_plane_matches_verify_measure(
            self, capsys, tmp_path, triangle, point):
        # codim-1 measures in d = 2 make L a point, and both commands sweep
        # the rays from it on the same sample
        measure = FlatMeasureSpec(2, 1, "gaussian-offset", {"mean": 0.3, "std": 1.1}, seed=4)
        triangle.metadata["_measure"] = measure
        inst = tmp_path / "measured.json"
        inst.write_bytes(write_instance(triangle))
        spec = tmp_path / "ctr.json"
        spec.write_text(json.dumps({"measures": [measure.to_json()], "flat": {"point": point}}))
        args = ("--samples", "3000")
        _, ray, _ = run_cli(capsys, "verify-measure", "--instance", str(inst),
                            "--point", ",".join(map(str, point)), *args)
        code, ctr, _ = run_cli(capsys, "verify-transversal", "--spec", str(spec), *args)
        assert ctr["result"]["detail_per_measure_min"] == [ray["result"]["estimate"]]
        assert ctr["result"]["estimate"] == ray["result"]["estimate"]
        assert ctr["result"]["trials"] == ray["result"]["trials"]
        assert ctr["result"]["pass"] == ray["result"]["pass"] == (code == 0)

    def test_report_has_no_threads_field(self, capsys, tri_file):
        code, report, _ = run_cli(capsys, "center", "--instance", tri_file)
        assert code == 0 and "threads" not in report

    def test_bad_point_exits_two(self, capsys, tri_file):
        code, _, _ = run_cli(capsys, "depth", "--instance", tri_file, "--point", "x,y")
        assert code == 2

    def test_reports_reproduce(self, capsys, six_file):
        runs = []
        for _ in range(2):
            code, report, _ = run_cli(
                capsys, "tverberg-search", "--instance", six_file, "--groups", "2"
            )
            assert code == 0
            report.pop("timing_s")
            runs.append(report)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("args", [["--samples", "200"], ["--point=0,0"]],
                             ids=["searched", "at-point"])
    def test_verify_measure_of_other_dimension_exits_two(self, capsys, tmp_path, triangle, args):
        # a planar instance file with a 6-dimensional measure stanza
        triangle.metadata["_measure"] = FlatMeasureSpec(6, 1, "gaussian-offset", {}, seed=0)
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        code, report, err = run_cli(capsys, "verify-measure", "--instance", str(path), *args)
        assert code == 2 and report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "instance dim 2, got 6" in err

    def test_verify_measure_short_point_exits_two(self, capsys, tmp_path, triangle):
        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        path = tmp_path / "measured.json"
        path.write_bytes(write_instance(triangle))
        code, report, err = run_cli(
            capsys, "verify-measure", "--instance", str(path), "--point=5", "--samples", "200"
        )
        assert code == 2 and report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "point must have 2 coordinates, got 1" in err

    @pytest.mark.parametrize("dim,codim,directions", [
        (3, 2, [[0, 0, 0]]),
        (5, 3, [[1, 2, 0, 0, 3], ["-1/2", -1, 0, 0, "-3/2"]]),
    ], ids=["zero-direction-d3", "parallel-directions-d5"])
    def test_verify_transversal_dependent_directions_exit_two(
        self, capsys, tmp_path, dim, codim, directions
    ):
        # a zero or dependent direction does not span L; it used to be
        # replaced silently by some unit vector
        measures = [
            {"dim": dim, "codim": codim, "kind": "uniform-angle-offset",
             "params": {"radius": 1.0}, "seed": k}
            for k in range(codim)
        ]
        flat = {"point": [0] * dim, "directions": directions}
        path = tmp_path / "ctr.json"
        path.write_text(json.dumps({"measures": measures, "flat": flat}))
        code, report, err = run_cli(
            capsys, "verify-transversal", "--spec", str(path), "--samples", "200"
        )
        assert code == 2 and report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "linearly independent" in err

    @pytest.mark.parametrize("flat", [
        {"point": [5], "directions": [[1, 0, 0]]},
        {"point": [5, 5], "directions": [[1, 0, 0]]},
        {"point": [5, 5, 5, 5], "directions": [[1, 0, 0]]},
        {"point": [5, 5, 5], "directions": [[1, 0]]},
    ], ids=["point-1", "point-2", "point-4", "direction-2"])
    def test_verify_transversal_flat_of_other_dimension_exits_two(self, capsys, tmp_path, flat):
        # two codim-2 measures in d=3 and a line whose point or direction
        # does not have 3 coordinates
        measures = [
            {"dim": 3, "codim": 2, "kind": "uniform-angle-offset",
             "params": {"radius": 1.0}, "seed": k}
            for k in range(2)
        ]
        path = tmp_path / "ctr.json"
        path.write_text(json.dumps({"measures": measures, "flat": flat}))
        code, report, err = run_cli(
            capsys, "verify-transversal", "--spec", str(path), "--samples", "200"
        )
        assert code == 2 and report is None
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must have 3 coordinates each" in err


class TestRunner:
    """Every command loads, fails and reports through ``cli.main``'s one path."""

    @pytest.mark.parametrize("kind,params", [
        ("gaussian-offset", {"std": 1.7e308}),
        ("uniform-angle-offset", {"radius": 1.7e308, "center": [1.7e308, 1.7e308]}),
    ], ids=["gaussian-std", "uniform-radius-center"])
    @pytest.mark.parametrize("point", [[], ["--point", "0,0"]], ids=["searched", "at-point"])
    def test_verify_measure_samples_past_float_exit_two(
            self, capsys, tmp_path, six_file, kind, params, point):
        obj = json.loads(Path(six_file).read_bytes())
        obj["measure"] = {"dim": 2, "codim": 1, "kind": kind, "params": params, "seed": 0}
        path = tmp_path / "measured.json"
        path.write_text(json.dumps(obj))
        code = main(["verify-measure", "--instance", str(path), "--samples", "200", *point])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == (
            "error: a value is outside float range"
            " (the measure's sampled flats are not finite)\n"
        )

    @pytest.fixture
    def files(self, tmp_path, triangle):
        def write(name, data):
            path = tmp_path / name
            path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
            return str(path)

        triangle.metadata["_measure"] = FlatMeasureSpec(
            2, 1, "uniform-angle-offset", {"radius": 1.0}, seed=0
        )
        measure = {"dim": 2, "codim": 1, "kind": "uniform-angle-offset",
                   "params": {"radius": 1.0}, "seed": 0}
        return {
            "six": write("six.json", write_instance(gen_instance("random-rational", 6, 2, seed=7))),
            "four": write("four.json", write_instance(gen_instance("random-rational", 4, 2, seed=7))),
            "colored": write("colored.json", write_instance(gen_instance(
                "random-rational", 9, 2, seed=5, colors=[0, 0, 0, 1, 1, 1, 2, 2, 2]))),
            "measured": write("measured.json", write_instance(triangle)),
            "spec": write("ctr.json", {"measures": [measure], "flat": {"point": [0, 0]}}),
            "junk": write("junk.json", b"{broken"),
            "out": str(tmp_path / "out"),
        }

    # per command: arguments that run, then arguments that are an input error
    CASES = {
        "gen": (["--n", "6", "--d", "2", "--out", "{out}"],
                ["--n", "0", "--d", "2", "--out", "{out}"]),
        "validate": (["--instance", "{six}", "--strict"], ["--instance", "{junk}"]),
        "depth": (["--instance", "{six}", "--point", "1/2,-3/4"],
                  ["--instance", "{six}", "--point", "x,y"]),
        "center": (["--instance", "{six}"], ["--instance", "{out}/missing.json"]),
        "tverberg-plane": (["--instance", "{six}"], ["--instance", "{four}"]),
        "tverberg-search": (["--instance", "{six}", "--groups", "2"],
                            ["--instance", "{junk}", "--groups", "2"]),
        "colorful": (["--instance", "{colored}", "--r", "2"],
                     ["--instance", "{colored}", "--r", "0"]),
        "verify-measure": (["--instance", "{measured}", "--point", "0,0", "--samples", "200"],
                           ["--instance", "{six}", "--point", "0,0"]),
        "verify-transversal": (["--spec", "{spec}", "--samples", "200"],
                               ["--spec", "{junk}"]),
        "plot": (["--instance", "{six}", "--out", "{out}", "--witness", "0,0"],
                 ["--instance", "{six}", "--out", "{out}", "--witness", "1e400,0"]),
    }

    def test_cases_cover_every_command(self):
        assert set(self.CASES) == set(cli._build_parser()._subparsers._group_actions[0].choices)

    @pytest.mark.parametrize("cmd", sorted(CASES))
    def test_one_report_or_none(self, capsys, files, cmd):
        ok, bad = ([a.format(**files) for a in args] for args in self.CASES[cmd])
        code = main([cmd, *ok])
        out = capsys.readouterr()
        assert code in (0, 1) and out.err == ""
        report = json.loads(out.out)  # exactly one JSON document
        assert sorted(report) == ["command", "instance_digest", "result", "timing_s", "version"]
        assert report["command"] == [cmd, *ok] and out.out.endswith("}\n")

        code = main([cmd, *bad])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("preset,want", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2"}, ["2", "3", "1"]),
    ], ids=["default", "explicit"])
    def test_blas_threads_default_to_one(self, preset, want):
        # a fresh process, so that numpy is imported after the package
        root = Path(__file__).resolve().parents[1]
        threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in threads}
        env.update(preset, PYTHONPATH=str(root / "src"))
        code = ("import os, sys; import dualdepth.cli; "
                f"print(*(os.environ.get(v) for v in {threads!r}), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == [*want, "True"]

    def test_module_runs_as_a_process(self, capsys, tmp_path):
        # python -m dualdepth.cli writes the same report to a real stdout
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )

        def spawn(*argv):
            return subprocess.run(
                [sys.executable, "-m", "dualdepth.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )

        def untimed(text):
            return re.sub(r'\n  "timing_s": [^\n]*\n', "\n", text)

        argv = ["center", "--instance", str(root / "tests" / "golden" / "triangle.json")]
        proc = spawn(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(argv) == 0
        assert untimed(proc.stdout) == untimed(capsys.readouterr().out)

        path = tmp_path / "junk.json"
        path.write_text("{broken")
        proc = spawn("center", "--instance", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: malformed-json: ") and proc.stderr.count("\n") == 1
