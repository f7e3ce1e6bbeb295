"""JSON wire formats and report documents.

All exact values travel as "p/q" strings (plain "p" for integers); decimal
fields are presentation-only and labeled as such.  Dict key order is fixed
by construction so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from typing import Any

from .delzant import (
    DelzantPolytope,
    make_chopped_simplex,
    make_cube,
    make_product,
    make_simplex,
    scale,
    validate_delzant,
)
from .linalg import format_rat, rat
from .packing import Packing
from .perturb import ScanResult
from .polytope import HPolytope, HalfSpace


class SpecFileError(ValueError):
    """Schema-level problem in a polytope spec document."""


def hrep_to_json(P: HPolytope) -> dict[str, Any]:
    return {
        "dim": P.dim,
        "halfspaces": [
            {"normal": list(h.normal), "offset": format_rat(h.offset)}
            for h in P.halfspaces
        ],
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INTEGER = re.compile(r"-?[0-9]+")
_escape = json.encoder.encode_basestring_ascii


def _rational(value: Any, what: str) -> Fraction:
    """A JSON integer or a string such as "-9/10", read by the one rational
    grammar of :func:`~toricpack.linalg.rat`; nothing else."""
    if _is_int(value) or isinstance(value, str):
        try:
            return rat(value)
        except ValueError:
            pass
    raise SpecFileError(f"{what} must be an integer or a rational string, got {value!r}")


def hrep_from_json(doc: dict[str, Any]) -> HPolytope:
    """Parse {"dim": n, "halfspaces": [{"normal": [...], "offset": ...}]}.

    ``dim`` and the normal entries must be JSON integers (booleans are
    refused), ``dim`` at least 1, and each normal must be nonzero with ``dim`` entries; offsets
    are read by :func:`_rational`.
    """
    try:
        dim = doc["dim"]
        if not _is_int(dim):
            raise SpecFileError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise SpecFileError(f"dim must be at least 1, got {dim}")
        rows = []
        for k, h in enumerate(doc["halfspaces"]):
            normal = tuple(h["normal"])
            if not all(_is_int(c) for c in normal):
                raise SpecFileError(
                    f"halfspace {k}: normal entries must be integers, got {h['normal']!r}"
                )
            if not any(normal):
                raise SpecFileError(f"halfspace {k}: normal must be nonzero, got {h['normal']!r}")
            if len(normal) != dim:
                raise SpecFileError(
                    f"halfspace {k}: normal must have {dim} entries, got {h['normal']!r}"
                )
            rows.append(HalfSpace(normal, _rational(h["offset"], f"halfspace {k}: offset")))
    except (KeyError, TypeError) as exc:
        raise SpecFileError(f"malformed H-representation: {exc}") from exc
    return HPolytope(dim, tuple(rows))


def direction_from_json(doc: Any) -> tuple[list[Fraction], list[Fraction]]:
    """Parse an offset direction {"s2": [...], "s1": [...]} into (s1, s2).

    ``s1`` defaults to zeros; every entry is read like a spec offset.
    """
    if not isinstance(doc, dict) or "s2" not in doc:
        raise SpecFileError('direction file needs an "s2" entry (and optional "s1")')

    def entries(key: str) -> list[Fraction]:
        value = doc[key]
        if not isinstance(value, list):
            raise SpecFileError(f"{key} must be a list, got {value!r}")
        return [_rational(c, f"{key}[{k}]") for k, c in enumerate(value)]

    s2 = entries("s2")
    s1 = entries("s1") if "s1" in doc else [Fraction(0)] * len(s2)
    if len(s1) != len(s2):
        raise SpecFileError(f"s1 has {len(s1)} entries, s2 has {len(s2)}")
    return s1, s2


# ---------------------------------------------------------------------------
# Spec files: {"halfspaces": ...} or {"generator": ..., "args": [...]}.

GENERATOR_NAMES = ("simplex", "cube", "product", "chopped_simplex", "scale")


def generator_polytope(name: str, args: list) -> DelzantPolytope:
    """Instantiate one of the named example generators.

    Each argument is a JSON integer or a string, parsed by its role: an
    integer for a dimension n (as a string, an optional minus sign and
    ASCII digits only), a rational for a scale or an offset (read
    like a spec offset, by :func:`_rational`), and a colon-joined
    sub-generator spec such as "simplex:2:1" for the operands of product
    and scale.  Anything else raises SpecFileError naming ``args[k]``; an
    error inside a sub-spec is prefixed with the sub-spec's ``args[k]``.
    """

    def n(k: int) -> int:
        value = args[k]
        if _is_int(value) or isinstance(value, str) and _INTEGER.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # past the interpreter's digit limit
                pass
        raise SpecFileError(f"args[{k}] must be an integer, got {value!r}")

    def q(k: int) -> Fraction:
        return _rational(args[k], f"args[{k}]")

    def sub(k: int) -> DelzantPolytope:
        spec = args[k]
        parts = spec.split(":") if isinstance(spec, str) else [None]
        if parts[0] not in GENERATOR_NAMES:
            raise SpecFileError(f"args[{k}] must be a generator spec, got {spec!r}")
        try:
            return generator_polytope(parts[0], parts[1:])
        except SpecFileError as exc:
            raise SpecFileError(f"args[{k}] = {spec!r}: {exc}") from exc

    if name == "simplex":
        if len(args) not in (1, 2):
            raise SpecFileError("simplex takes: n [scale]")
        return make_simplex(n(0), q(1) if len(args) > 1 else 1)
    if name == "cube":
        if len(args) not in (1, 2):
            raise SpecFileError("cube takes: n [scale]")
        return make_cube(n(0), q(1) if len(args) > 1 else 1)
    if name == "chopped_simplex":
        if len(args) not in (2, 3):
            raise SpecFileError("chopped_simplex takes: eps1 eps2 [n]")
        return make_chopped_simplex(q(0), q(1), n(2) if len(args) > 2 else 2)
    if name == "product":
        if len(args) != 2:
            raise SpecFileError("product takes: spec_a spec_b")
        return make_product(sub(0), sub(1))
    if name == "scale":
        if len(args) != 2:
            raise SpecFileError("scale takes: spec lam")
        return scale(sub(0), q(1))
    raise SpecFileError(f"unknown generator: {name}")


def load_spec_document(doc: dict[str, Any]) -> tuple[str | None, DelzantPolytope]:
    """Parse a polytope spec document into a validated Delzant polytope and
    its name; a ``name`` entry, when present, must be a string."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object")
    name = doc.get("name")
    if "name" in doc and not isinstance(name, str):
        raise SpecFileError(f"name must be a string, got {name!r}")
    has_h = "halfspaces" in doc
    has_g = "generator" in doc
    if has_h and has_g:
        raise SpecFileError("spec may carry halfspaces or a generator, not both")
    if has_g:
        args = doc.get("args", [])
        if not isinstance(args, list):
            raise SpecFileError(f"generator args must be a list, got {args!r}")
        return name, generator_polytope(str(doc["generator"]), args)
    if has_h:
        return name, validate_delzant(hrep_from_json(doc))
    raise SpecFileError("spec needs a halfspaces or generator entry")


def read_json_file(path: str) -> Any:
    """The JSON document in a UTF-8 file; whatever stops its decoding, bad
    bytes or nesting too deep included, is a :class:`SpecFileError` that
    names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SpecFileError(f"{path}: {exc}") from exc


def load_spec_file(path: str) -> tuple[str | None, DelzantPolytope]:
    return load_spec_document(read_json_file(path))


def spec_file_document(D: DelzantPolytope, name: str | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    if name:
        doc["name"] = name
    doc.update(hrep_to_json(D.hrep))
    return doc


# ---------------------------------------------------------------------------
# Reports.


def info_report(D: DelzantPolytope, name: str | None = None) -> dict[str, Any]:
    """Machine report: vertices, edges with lattice lengths, frames, radii,
    pairwise bounds, and the fan rays (the facet normals)."""
    edges = [
        {"vertices": [i, j], "length": format_rat(D.pair_bounds[i][j])}
        for i, j in D.edges
    ]
    doc: dict[str, Any] = {}
    if name:
        doc["name"] = name
    doc.update(
        {
            "dim": D.dim,
            "num_facets": D.hrep.num_facets,
            "euler_characteristic": D.num_vertices,
            "volume": format_rat(D.euclidean_volume),
            "halfspaces": hrep_to_json(D.hrep)["halfspaces"],
            "vertices": [[format_rat(c) for c in v] for v in D.vertices],
            "vertex_facet_incidence": [list(s) for s in D.incidence],
            "edges": edges,
            "frames": [
                {
                    "vertex": i,
                    "directions": [list(u) for u in f.directions],
                    "lengths": [format_rat(t) for t in f.lengths],
                    "neighbors": list(f.neighbor_indices),
                }
                for i, f in enumerate(D.frames)
            ],
            "corner_radii": [format_rat(r) for r in D.corner_radii],
            "pair_bounds": [
                [format_rat(x) for x in row] for row in D.pair_bounds
            ],
            "fan_rays": [list(h.normal) for h in D.hrep.halfspaces],
        }
    )
    return doc


def pack_report(
    D: DelzantPolytope,
    max_density: Fraction,
    packings: tuple[Packing, ...],
    name: str | None = None,
    all_maximizers: bool = True,
) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    if name:
        doc["name"] = name
    listed = packings if all_maximizers else packings[:1]
    doc.update(
        {
            "dim": D.dim,
            "max_density": format_rat(max_density),
            "num_maximizers": len(packings),
            "maximal_packings": [
                [format_rat(c) for c in p.radii] for p in listed
            ],
            "packing_polytope": _packing_rows(D),
        }
    )
    return doc


def _packing_rows(D: DelzantPolytope) -> dict[str, Any]:
    """D's packing polytope in R^V as :func:`hrep_to_json` writes it:
    x_i >= 0 for each vertex, then -x_i - x_j >= -pair_bounds[i][j] for
    every pair i < j in lexicographic order, all normals primitive.  Each
    offset is written from the bound's integer numerator over D's scale,
    reduced by one gcd, as ``format_rat`` writes it."""
    bounds, q = D._bound_numerators(), D._edge_slots[2]
    V = len(bounds)
    rows = [{"normal": [int(k == i) for k in range(V)], "offset": "0"} for i in range(V)]
    for i, j in itertools.combinations(range(V), 2):
        normal = [0] * V
        normal[i] = normal[j] = -1
        g = math.gcd(bounds[i][j], q)
        offset = f"{-bounds[i][j] // g}/{q // g}" if g < q else str(-bounds[i][j] // g)
        rows.append({"normal": normal, "offset": offset})
    return {"dim": V, "halfspaces": rows}


def scan_csv(res: ScanResult) -> str:
    """CSV rows: exact t, volume, omega plus the omega^(1/n) decimal."""
    lines = ["t,volume,omega,omega_decimal,n_maximizers"]
    for t, vol, om, dec, cnt in zip(
        res.ts, res.volumes, res.omegas, res.omega_root_decimals, res.maximizer_counts
    ):
        lines.append(
            f"{format_rat(t)},{format_rat(vol)},{format_rat(om)},{dec},{cnt}"
        )
    return "\n".join(lines) + "\n"


def scan_summary(res: ScanResult) -> dict[str, Any]:
    return {
        "samples": res.samples,
        "vol_root_midpoint_concave": res.vol_root_midpoint_concave,
        "vol_root_strictly_concave_somewhere": res.vol_root_strictly_concave_somewhere,
        "vol_root_all_midpoints_equal": res.vol_root_all_midpoints_equal,
        "omega_root_midpoint_convex_near_zero": res.omega_root_midpoint_convex_near_zero,
        "endpoints_homothetic": res.endpoints_homothetic,
        "omega_start": format_rat(res.omegas[0]),
        "omega_end": format_rat(res.omegas[-1]),
    }


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, whose indent ``json`` writes
    by its pure-Python encoder only, for dicts with string keys, lists,
    tuples, strings, bools and ints; any other value raises TypeError."""
    return _encode(doc, "\n") + "\n"


def _encode(value: Any, newline: str) -> str:
    """value's JSON text, its inner lines broken by ``newline`` and indented
    2 more; strings are escaped by ``json``'s C routine."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, dict):
        body = sep.join([_escape(k) + ": " + _encode(x, inner) for k, x in value.items()])
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        ints = set(map(type, value)) == {int}
        body = sep.join(map(int.__repr__, value) if ints else [_encode(x, inner) for x in value])
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{body}{newline}{ends[1]}" if value else ends
