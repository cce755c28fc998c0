"""Command-line surface: reproducible verification runs over instance files.

Every subcommand prints a single JSON run report to stdout (diagnostics go
to stderr) and exits 0 on success/pass, 1 on NotFound/fail, and 2 on input
errors.  Reports echo the argv and the instance digest, so a run can be
replayed bit for bit; stochastic commands carry their seeds inside the
instance's measure stanza.
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
from .measures import search_center_sampled, verify_dual_cpt_measure, verify_dual_ctr, FlatMeasureSpec
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


def _load_instance(path: str, strict: bool = False):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_instance(data, strict=strict), _digest(data)


def _parse_point(text: str):
    try:
        return tuple(parse_scalar(part) for part in text.split(","))
    except ParseError as exc:
        raise InputError(f"bad point {text!r}: {exc}") from exc


def _floats(point) -> list[float]:
    """Float view of an exact point, for the sampled commands."""
    try:
        return [float(c) for c in point]
    except OverflowError as exc:
        raise InputError("a point coordinate is outside float range") from exc


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


def _emit(argv, digest, result, t0) -> None:
    report = {
        "command": list(argv),
        "instance_digest": digest,
        "result": result,
        "timing_s": round(time.perf_counter() - t0, 6),
        "version": __version__,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


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

    g = sub.add_parser("gen", help="generate a certified general-position instance")
    g.add_argument("--model", choices=MODELS, default="random-rational")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", help="parse and check an instance file")
    v.add_argument("--instance", required=True)
    v.add_argument("--strict", action="store_true")

    dp = sub.add_parser("depth", help="exact dual depth of a point")
    dp.add_argument("--instance", required=True)
    dp.add_argument("--point", required=True, help="comma-separated rationals")

    c = sub.add_parser("center", help="depth-maximizing point with certificate")
    c.add_argument("--instance", required=True)

    tp = sub.add_parser("tverberg-plane", help="constructive planar partition")
    tp.add_argument("--instance", required=True)

    ts = sub.add_parser("tverberg-search", help="exhaustive certified partition search")
    ts.add_argument("--instance", required=True)
    ts.add_argument("--groups", type=int, required=True)

    co = sub.add_parser("colorful", help="colorful partition search")
    co.add_argument("--instance", required=True)
    co.add_argument("--r", type=int, required=True)

    vm = sub.add_parser("verify-measure", help="Monte Carlo dual central point check")
    vm.add_argument("--instance", required=True, help="instance file with a measure stanza")
    vm.add_argument("--point", help="candidate point; searched when omitted")
    vm.add_argument("--samples", type=int, default=10000)
    vm.add_argument("--probes", type=int, default=720)

    vt = sub.add_parser("verify-transversal", help="Monte Carlo central transversal check")
    vt.add_argument("--spec", required=True, help="transversal spec JSON file")
    vt.add_argument("--samples", type=int, default=10000)
    vt.add_argument("--probes", type=int, default=360)

    pl = sub.add_parser("plot", help="render a planar instance as SVG")
    pl.add_argument("--instance", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--witness", help="comma-separated rationals")
    pl.add_argument("--partition-report", help="run report with a PartitionResult to overlay")

    return p


def _run(args, argv) -> int:
    t0 = time.perf_counter()

    if args.cmd == "gen":
        try:
            inst = gen_instance(args.model, args.n, args.d, args.seed)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        data = write_instance(inst)
        with open(args.out, "wb") as fh:
            fh.write(data)
        _emit(argv, _digest(data), {
            "type": "Instance",
            "path": args.out,
            "dim": inst.dim,
            "n": inst.n,
            "regenerations": inst.metadata.get("regenerations", 0),
        }, t0)
        return EXIT_OK

    if args.cmd == "validate":
        inst, digest = _load_instance(args.instance, strict=args.strict)
        gp = check_general_position(inst)
        _emit(argv, digest, {
            "type": "Validation",
            "general_position": gp.ok,
            "violation": list(gp.violation) if gp.violation else None,
            "reason": gp.reason,
        }, t0)
        return EXIT_OK if gp.ok else EXIT_NOT_FOUND

    if args.cmd == "depth":
        inst, digest = _load_instance(args.instance)
        point = _parse_point(args.point)
        depth, witness = dual_depth(inst, point)
        _emit(argv, digest, {
            "type": "Depth",
            "point": _point_json(point),
            "depth": depth,
            "witness_direction": _point_json(witness),
        }, t0)
        return EXIT_OK

    if args.cmd == "center":
        inst, digest = _load_instance(args.instance)
        cert = max_depth_point(inst)
        _emit(argv, digest, _certificate_json(cert), t0)
        return EXIT_OK

    if args.cmd == "tverberg-plane":
        inst, digest = _load_instance(args.instance)
        try:
            res = dual_tverberg_plane(inst)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _emit(argv, digest, _partition_json(res), t0)
        return EXIT_OK

    if args.cmd in ("tverberg-search", "colorful"):
        inst, digest = _load_instance(args.instance)
        try:
            if args.cmd == "colorful":
                res = colorful_dual_tverberg_search(inst, args.r)
            else:
                res = dual_tverberg_search(inst, args.groups)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if res is None:
            _emit(argv, digest, {"type": "NotFound"}, t0)
            return EXIT_NOT_FOUND
        _emit(argv, digest, _partition_json(res), t0)
        return EXIT_OK

    if args.cmd == "verify-measure":
        inst, digest = _load_instance(args.instance)
        spec = instance_measure(inst)
        if spec is None:
            raise InputError("instance file has no measure stanza")
        try:
            if args.point:
                point = _parse_point(args.point)
            else:
                point = search_center_sampled(spec, args.samples)
            rep = verify_dual_cpt_measure(spec, _floats(point), args.samples, args.probes)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        result = _verification_json(rep)
        result["point"] = _point_json(point)
        _emit(argv, digest, result, t0)
        return EXIT_OK if rep.passed else EXIT_NOT_FOUND

    if args.cmd == "verify-transversal":
        try:
            with open(args.spec, "rb") as fh:
                raw = fh.read()
            obj = json.loads(raw)
            specs = [FlatMeasureSpec.from_json(s) for s in obj["measures"]]
            flat = obj["flat"]
            point = _floats(parse_scalar(v) for v in flat["point"])
            directions = [
                _floats(parse_scalar(v) for v in row) for row in flat.get("directions", [])
            ]
        except (OSError, KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
            raise InputError(f"bad transversal spec: {exc}") from exc
        except RecursionError as exc:
            raise InputError("bad transversal spec: nesting is too deep") from exc
        try:
            rep = verify_dual_ctr(specs, point, directions, args.samples, args.probes)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _emit(argv, _digest(raw), _verification_json(rep), t0)
        return EXIT_OK if rep.passed else EXIT_NOT_FOUND

    if args.cmd == "plot":
        inst, digest = _load_instance(args.instance)
        witness = _parse_point(args.witness) if args.witness else None
        triangles = []
        if args.partition_report:
            try:
                with open(args.partition_report) as fh:
                    result = json.load(fh)["result"]
                if witness is None and "witness" in result:
                    witness = tuple(parse_scalar(v) for v in result["witness"])
                triangles = [form_simplex(inst, g).vertices for g in result["groups"]]
            except (OSError, KeyError, IndexError, TypeError, ValueError,
                    ZeroDivisionError, ParseError) as exc:
                raise InputError(f"bad partition report: {exc}") from exc
            except RecursionError as exc:
                raise InputError("bad partition report: nesting is too deep") from exc
        try:
            data = render_svg(inst, triangles=triangles, witness=witness)
        except OverflowError as exc:
            raise InputError("a coordinate to draw is outside float range") from exc
        with open(args.out, "wb") as fh:
            fh.write(data)
        _emit(argv, digest, {
            "type": "Svg",
            "path": args.out,
            "bytes": len(data),
            "svg_digest": _digest(data),
        }, t0)
        return EXIT_OK

    raise InputError(f"unknown command {args.cmd}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _run(args, argv)
    except (InputError, ParseError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
