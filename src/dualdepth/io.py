"""Versioned JSON instance files with exact rational round-tripping.

Scalars serialize as "p/q" strings (or "p" for integers); decimal strings,
JSON integers and JSON floats are accepted on input and converted exactly,
so parse(write(x)) == x holds coordinate for coordinate.  Unknown top-level
fields are rejected in strict mode and preserved through a round trip in
lenient mode.

An instance is its integer rows, one ``int_array`` (see ``Instance``), and
``parse_instance`` builds that array in one pass and hands it over.  A file
whose scalars are all JSON integers, or all plain ASCII integer strings of
at most 18 characters, is read in one batched pass (``_int_rows``).  Any
other file goes scalar by scalar (``_ratio_rows``): each scalar becomes a
reduced (p, q) pair, straight from the text by int() for JSON integers and
the plain ASCII "p" and "p/q" spellings that write_instance emits, through
``Fraction``'s parser for every other spelling, and each row is scaled by
the lcm of its denominators; this loop raises every error, so both passes
give the same rows and the same errors.  The rational ``Hyperplane``s are a
view the instance builds on first access; ``write_instance`` reads it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Union

import numpy as np

from .geometry import Instance, check_general_position, ensure_general_position, int_array
from .measures import FlatMeasureSpec

FORMAT_VERSION = 1

_KNOWN_FIELDS = {
    "format_version",
    "dim",
    "hyperplanes",
    "colors",
    "general_position",
    "measure",
    "metadata",
}


class ParseError(Exception):
    """Instance file rejection; ``code`` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


def scalar_to_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# A decimal with an exponent, as Fraction reads it: digits, fraction digits,
# exponent.  Like Fraction it takes any Unicode decimal digit.
_EXPONENT_FORM = re.compile(r"\s*[-+]?(\d[\d_]*)?(?:\.([\d_]*))?[eE]([-+]?\d[\d_]*)\s*")


def _exponent_digits(text: str) -> int:
    """Digits of the numerator or denominator that a decimal exponent expands to.

    Fraction turns "1e10000000" into a ten-million-digit integer; this upper
    bound lets such input be refused before it is built.  Without an
    exponent the int conversions inside Fraction are limited already.
    """
    m = _EXPONENT_FORM.fullmatch(text)
    if m is None:
        return 0
    whole, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
    mantissa = len((whole + frac).lstrip("0")) or 1
    shift = int(exp) - len(frac)
    return mantissa + shift if shift >= 0 else max(mantissa, 1 - shift)


def _ratio(raw) -> tuple[int, int]:
    """A JSON scalar as a reduced (numerator, denominator) pair, denominator > 0.

    JSON integers and plain ASCII "p" / "p/q" strings with q != 0, the
    spellings write_instance emits, are read by int(); every other spelling
    takes Fraction's own parser.
    """
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            try:
                if not slash:
                    return int(num), 1
                if den.isdigit() and den.strip("0"):
                    p, q = int(num), int(den)
                    g = math.gcd(p, q)
                    return p // g, q // g
            except ValueError as exc:  # past the digit limit
                raise ParseError("bad-scalar", f"cannot parse scalar {raw!r}") from exc
    elif type(raw) is int:
        return raw, 1
    return _fraction(raw).as_integer_ratio()


def _fraction(raw) -> Fraction:
    """Any JSON scalar as a Fraction, or a ``bad-scalar`` ParseError."""
    if isinstance(raw, bool):
        raise ParseError("bad-scalar", f"boolean is not a scalar: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        limit = sys.get_int_max_str_digits()
        try:
            if limit and _exponent_digits(raw) > limit:
                raise ParseError("bad-scalar", f"scalar {raw!r} has more than {limit} digits")
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad-scalar", f"cannot parse scalar {raw!r}") from exc
    if isinstance(raw, float):
        # JSON floats arrive as decimal text; convert through it exactly
        try:
            return Fraction(repr(raw))
        except ValueError as exc:  # Infinity and NaN
            raise ParseError("bad-scalar", f"non-finite scalar {raw!r}") from exc
    raise ParseError("bad-scalar", f"unsupported scalar type {type(raw).__name__}")


def parse_scalar(raw) -> Fraction:
    return Fraction(*_ratio(raw))


# Comma-joined string spellings of integers that ``_ratio`` reads by int().
_INT_LIST = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _int_rows(raw_planes: list, dim: int):
    """The rows of a file whose scalars are all integers, in one batched pass.

    Applies when every hyperplane is an object with a normal list of length
    ``dim`` and an offset, every scalar is a JSON integer or every scalar a
    string of at most 18 characters that ``_ratio`` reads by int(), and no
    normal is zero.  Then the rows are the file's scalars, with every
    multiplier 1, and this returns ``(int_array, dens)`` as ``_ratio_rows``
    does.  Otherwise it returns None, and the per-scalar loop parses the
    file and raises its errors.
    """
    try:
        cells = [hp["normal"] + [hp["offset"]] for hp in raw_planes]
    except (TypeError, KeyError):
        return None
    if set(map(len, cells)) - {dim + 1}:
        return None
    flat = list(itertools.chain.from_iterable(cells))
    kinds = set(map(type, flat))
    if kinds == {str}:
        if max(map(len, flat)) > 18:
            return None
        # one match for all scalars; a comma inside one adds to the count
        text = ",".join(flat)
        if text.count(",") != len(flat) - 1 or not _INT_LIST.fullmatch(text):
            return None
        # every value is below 10^18 in absolute value, so int64 holds it
        flat = np.fromstring(text, dtype=np.int64, sep=",")
    elif kinds - {int}:
        return None
    rows = int_array(flat, dim + 1)
    if not (rows[0][:, :dim] != 0).any(axis=1).all():
        return None
    return rows, [1] * len(cells)


def _ratio_rows(raw_planes: list, dim: int):
    """The rows of any file, scalar by scalar through ``_ratio``: ``(int_array, dens)``.

    Each hyperplane goes straight to its integer row, the rational row
    times its lcm of denominators ``dens[i]``.
    """
    flat, dens = [], []
    for i, hp in enumerate(raw_planes):
        if not isinstance(hp, dict):
            raise ParseError("bad-type", f"hyperplane {i} must be an object")
        if "normal" not in hp or "offset" not in hp:
            missing = sorted({"normal", "offset"} - set(hp))
            raise ParseError("malformed-json", f"hyperplane {i} is missing {missing}")
        raw_normal = hp["normal"]
        if not isinstance(raw_normal, list):
            raise ParseError("bad-type", f"hyperplane {i} normal must be a list")
        pairs = [_ratio(v) for v in raw_normal]
        if len(pairs) != dim:
            raise ParseError(
                "dimension-mismatch",
                f"hyperplane {i} normal has length {len(pairs)}, expected {dim}",
            )
        nums, qs = zip(*pairs)
        if not any(nums):
            raise ParseError("zero-normal", f"hyperplane {i} has zero normal")
        b, qb = _ratio(hp["offset"])
        den = math.lcm(qb, *qs)
        if den != 1:
            nums = tuple(p * (den // q) for p, q in pairs)
            b *= den // qb
        flat.extend(nums)
        flat.append(b)
        dens.append(den)
    return int_array(flat, dim + 1), dens


def parse_instance(data: Union[bytes, str], strict: bool = False) -> Instance:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("malformed-json", "file is not UTF-8") from exc
    try:
        obj = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError("malformed-json", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("malformed-json", "nesting is too deep") from exc
    if not isinstance(obj, dict):
        raise ParseError("malformed-json", "top level must be an object")

    version = obj.get("format_version", FORMAT_VERSION)
    # true and 1.0 compare equal to 1, but only the integer is the version
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError("bad-version", f"unsupported format_version {version}")

    unknown = set(obj) - _KNOWN_FIELDS
    if unknown and strict:
        raise ParseError("unknown-field", f"unknown fields {sorted(unknown)}")

    try:
        dim = obj["dim"]
        raw_planes = obj["hyperplanes"]
    except KeyError as exc:
        raise ParseError("malformed-json", f"missing field {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("bad-type", f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ParseError("dimension-mismatch", f"dim must be positive, got {dim}")
    if not isinstance(raw_planes, list):
        raise ParseError("bad-type", "hyperplanes must be a list")

    rows, dens = _int_rows(raw_planes, dim) or _ratio_rows(raw_planes, dim)

    colors = obj.get("colors")
    if colors is not None:
        if not isinstance(colors, list):
            raise ParseError("bad-color", "colors must be a list")
        if len(colors) != len(dens):
            raise ParseError("bad-color", "colors length differs from hyperplane count")
        for c in colors:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c <= dim:
                raise ParseError("bad-color", f"color {c!r} out of range [0, {dim}]")

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("bad-type", "metadata must be an object")
    reserved = sorted(k for k in metadata if k.startswith("_"))
    if reserved:
        # the parser's own keys; write_instance never emits them
        raise ParseError("reserved-field", f"metadata keys {reserved} are reserved")
    metadata = dict(metadata)
    if unknown:
        metadata["_extra_fields"] = {k: obj[k] for k in sorted(unknown)}
    if "measure" in obj and obj["measure"] is not None:
        try:
            measure = FlatMeasureSpec.from_json(obj["measure"])
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ParseError("malformed-json", f"bad measure stanza: {exc}") from exc
        if measure.dim != dim:
            raise ParseError(
                "dimension-mismatch", f"measure dim must be the instance dim {dim}, got {measure.dim}"
            )
        metadata["_measure"] = measure

    inst = Instance.from_rows(dim, rows, dens, colors=colors, metadata=metadata)
    # write_instance lifts a truthy metadata.general_position to the
    # top-level declaration, so either one declares it
    if obj.get("general_position") or metadata.get("general_position"):
        gp = check_general_position(inst)
        if not gp.ok:
            raise ParseError(
                "general-position-violation",
                f"{gp.reason} subset {gp.violation}",
            )
        metadata["general_position"] = True
    return inst


def instance_measure(inst: Instance):
    """The measure stanza attached to an instance file, if any."""
    return inst.metadata.get("_measure")


def write_instance(inst: Instance) -> bytes:
    obj = {
        "format_version": FORMAT_VERSION,
        "dim": inst.dim,
        "hyperplanes": [
            {
                "normal": [scalar_to_str(v) for v in h.normal],
                "offset": scalar_to_str(h.offset),
            }
            for h in inst.hyperplanes
        ],
    }
    if inst.colors is not None:
        obj["colors"] = list(inst.colors)
    metadata = {
        k: v for k, v in inst.metadata.items() if not k.startswith("_")
    }
    # a truthy value is the declaration, checked as the parser will check
    # it; any other stays in the metadata, so that the file parses back to
    # this instance
    if metadata.get("general_position"):
        ensure_general_position(inst)
        del metadata["general_position"]
        obj["general_position"] = True
    measure = inst.metadata.get("_measure")
    if measure is not None:
        obj["measure"] = measure.to_json()
    if metadata:
        obj["metadata"] = metadata
    extra = inst.metadata.get("_extra_fields", {})
    for k, v in extra.items():
        obj[k] = v
    return (json.dumps(obj, indent=2, sort_keys=False) + "\n").encode("utf-8")
