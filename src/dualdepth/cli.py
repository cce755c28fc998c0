"""Command-line surface: reproducible verification runs over instance files.

Every subcommand prints a single JSON run report to stdout (diagnostics go
to stderr) and exits 0 on success/pass, 1 on NotFound/fail, and 2 on input
errors.  Reports echo the argv and the instance digest, so a run can be
replayed bit for bit; stochastic commands carry their seeds inside the
instance's measure stanza.

Every command runs through ``_run``, which loads its input once and
returns the report's digest, result and exit code; ``main`` writes the one
report and is the one place that turns an exception into exit 2.  A
library ``ValueError`` is an input error, and so is a float overflow,
including a measure whose samples leave float range, and an input too
large for memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .depth import dual_depth, max_depth_point
from .generators import MODELS, gen_instance
from .geometry import GeometryError, check_general_position
from .io import (
    ParseError,
    instance_measure,
    parse_instance,
    parse_scalar,
    scalar_to_str,
    write_instance,
)
from .measures import (
    FlatMeasureSpec,
    search_center_sampled,
    verify_dual_cpt_measure,
    verify_dual_ctr,
)
from .svg import render_svg
from .tverberg import (
    colorful_dual_tverberg_search,
    dual_tverberg_plane,
    dual_tverberg_search,
    form_simplex,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_json(path: str, what: str):
    """The bytes of a JSON input file and their parse; any failure is ``bad <what>``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except (OSError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"bad {what}: nesting is too deep") from exc


def _parse_point(text: str):
    try:
        return tuple(parse_scalar(part) for part in text.split(","))
    except ParseError as exc:
        raise InputError(f"bad point {text!r}: {exc}") from exc


def _scalar_json(v) -> str:
    try:
        return scalar_to_str(Fraction(v))
    except ValueError as exc:  # past the int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a result scalar has more than {limit} digits") from exc


def _point_json(p):
    return [_scalar_json(c) for c in p]


def _certificate_json(cert):
    return {
        "type": "DepthCertificate",
        "point": _point_json(cert.point),
        "depth": cert.depth,
        "witness_direction": _point_json(cert.witness_direction),
        "bound": cert.bound,
        "meets_bound": cert.meets_bound,
    }


def _partition_json(res):
    return {
        "type": "PartitionResult",
        "groups": [list(g) for g in res.groups],
        "witness": _point_json(res.witness),
        "margin": _scalar_json(res.margin),
        "strict": res.strict,
        "metadata": res.metadata,
    }


def _verification_json(rep):
    out = {"type": "VerificationReport"}
    out.update(rep.to_json())
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process.

    ``parse_args`` returns a fresh namespace each time, so reusing the parser
    carries nothing from one call to the next.
    """
    p = argparse.ArgumentParser(
        prog="dualdepth",
        description="Ray-crossing depth, central points and dual Tverberg partitions",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    # the eight commands that read one instance file
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--instance", required=True, help="instance file")

    g = sub.add_parser("gen", help="generate a certified general-position instance")
    g.add_argument("--model", choices=MODELS, default="random-rational")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", parents=[reads], help="parse and check an instance file")
    v.add_argument("--strict", action="store_true")

    dp = sub.add_parser("depth", parents=[reads], help="exact dual depth of a point")
    dp.add_argument("--point", required=True, help="comma-separated rationals")

    sub.add_parser("center", parents=[reads], help="depth-maximizing point with certificate")
    sub.add_parser("tverberg-plane", parents=[reads], help="constructive planar partition")

    ts = sub.add_parser(
        "tverberg-search", parents=[reads], help="exhaustive certified partition search"
    )
    ts.add_argument("--groups", type=int, required=True)

    co = sub.add_parser("colorful", parents=[reads], help="colorful partition search")
    co.add_argument("--r", type=int, required=True)

    vm = sub.add_parser(
        "verify-measure", parents=[reads], help="Monte Carlo dual central point check"
    )
    vm.add_argument("--point", help="candidate point; searched when omitted")
    vm.add_argument("--samples", type=int, default=10000)
    vm.add_argument("--probes", type=int, default=720,
                    help="probe directions where the rays' directions form a sphere of "
                         "dimension >= 2 (d >= 3), at least 1; in the plane every direction "
                         "is swept exactly")

    vt = sub.add_parser("verify-transversal", help="Monte Carlo central transversal check")
    vt.add_argument("--spec", required=True, help="transversal spec JSON file")
    vt.add_argument("--samples", type=int, default=10000)
    vt.add_argument("--probes", type=int, default=360,
                    help="probe directions where the half-flats' directions form a sphere "
                         "of dimension >= 2 (k >= 2), at least 1; a circle of them (k = 1) "
                         "is swept exactly")

    pl = sub.add_parser("plot", parents=[reads], help="render a planar instance as SVG")
    pl.add_argument("--out", required=True)
    pl.add_argument("--witness", help="comma-separated rationals")
    pl.add_argument("--partition-report", help="run report with a PartitionResult to overlay")

    return p


def _run(args):
    """Run one parsed command: (input digest, result, exit code)."""
    if args.cmd == "gen":
        inst = gen_instance(args.model, args.n, args.d, args.seed)
        data = write_instance(inst)
        with open(args.out, "wb") as fh:
            fh.write(data)
        return _digest(data), {
            "type": "Instance",
            "path": args.out,
            "dim": inst.dim,
            "n": inst.n,
            "regenerations": inst.metadata.get("regenerations", 0),
        }, EXIT_OK

    if args.cmd == "verify-transversal":
        raw, obj = _read_json(args.spec, "transversal spec")
        try:
            specs = [FlatMeasureSpec.from_json(s) for s in obj["measures"]]
            flat = obj["flat"]
            point = [float(parse_scalar(v)) for v in flat["point"]]
            directions = [
                [float(parse_scalar(v)) for v in row] for row in flat.get("directions", [])
            ]
        except (KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
            raise InputError(f"bad transversal spec: {exc}") from exc
        rep = verify_dual_ctr(specs, point, directions, args.samples, args.probes)
        return _digest(raw), _verification_json(rep), EXIT_OK if rep.passed else EXIT_NOT_FOUND

    # every other command reads one instance file
    try:
        with open(args.instance, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.instance}: {exc}") from exc
    digest = _digest(data)
    inst = parse_instance(data, strict=getattr(args, "strict", False))

    if args.cmd == "validate":
        gp = check_general_position(inst)
        return digest, {
            "type": "Validation",
            "general_position": gp.ok,
            "violation": list(gp.violation) if gp.violation else None,
            "reason": gp.reason,
        }, EXIT_OK if gp.ok else EXIT_NOT_FOUND

    if args.cmd == "depth":
        point = _parse_point(args.point)
        depth, witness = dual_depth(inst, point)
        return digest, {
            "type": "Depth",
            "point": _point_json(point),
            "depth": depth,
            "witness_direction": _point_json(witness),
        }, EXIT_OK

    if args.cmd == "center":
        return digest, _certificate_json(max_depth_point(inst)), EXIT_OK

    if args.cmd == "tverberg-plane":
        return digest, _partition_json(dual_tverberg_plane(inst)), EXIT_OK

    if args.cmd in ("tverberg-search", "colorful"):
        if args.cmd == "colorful":
            res = colorful_dual_tverberg_search(inst, args.r)
        else:
            res = dual_tverberg_search(inst, args.groups)
        if res is None:
            return digest, {"type": "NotFound"}, EXIT_NOT_FOUND
        return digest, _partition_json(res), EXIT_OK

    if args.cmd == "verify-measure":
        spec = instance_measure(inst)
        if spec is None:
            raise InputError("instance file has no measure stanza")
        if args.point:
            point = _parse_point(args.point)
        else:
            # the search's first draw is the verifier's sample, kept by the spec
            point = search_center_sampled(spec, args.samples)
        rep = verify_dual_cpt_measure(spec, [float(c) for c in point], args.samples, args.probes)
        result = _verification_json(rep)
        result["point"] = _point_json(point)
        return digest, result, EXIT_OK if rep.passed else EXIT_NOT_FOUND

    if args.cmd == "plot":
        witness = _parse_point(args.witness) if args.witness else None
        triangles = []
        if args.partition_report:
            _, report = _read_json(args.partition_report, "partition report")
            try:
                result = report["result"]
                if witness is None and "witness" in result:
                    witness = tuple(parse_scalar(v) for v in result["witness"])
                groups = result["groups"]
                for g in groups:
                    # JSON true and false would pass for hyperplanes 1 and 0
                    if any(type(i) is not int for i in g):
                        raise TypeError(f"group {g!r} holds an entry that is not an integer")
                triangles = [form_simplex(inst, g).vertices for g in groups]
            except (KeyError, IndexError, TypeError, ValueError,
                    ZeroDivisionError, ParseError, GeometryError) as exc:
                raise InputError(f"bad partition report: {exc}") from exc
        svg = render_svg(inst, triangles=triangles, witness=witness)
        with open(args.out, "wb") as fh:
            fh.write(svg)
        return digest, {
            "type": "Svg",
            "path": args.out,
            "bytes": len(svg),
            "svg_digest": _digest(svg),
        }, EXIT_OK

    raise InputError(f"unknown command {args.cmd}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    t0 = time.perf_counter()
    try:
        digest, result, code = _run(args)
        report = {
            "command": argv,
            "instance_digest": digest,
            "result": result,
            "timing_s": round(time.perf_counter() - t0, 6),
            "version": __version__,
        }
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    except OverflowError as exc:
        print(f"error: a value is outside float range ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, ParseError, GeometryError, OSError, ValueError) as exc:
        # library ValueErrors are input errors too: a bad count, a short point
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
