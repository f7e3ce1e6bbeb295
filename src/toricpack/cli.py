"""Command-line interface.

Exit codes: 0 success, 1 I/O or parse failure, 2 domain validation failure,
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys

from .jsonio import (
    SpecFileError,
    direction_from_json,
    dumps,
    generator_polytope,
    info_report,
    load_spec_file,
    pack_report,
    read_json_file,
    scan_csv,
    scan_summary,
    spec_file_document,
)
from .linalg import _RATIONAL, format_rat, vec_add, vec_scale
from .packing import maximize, realize
from .perturb import safe_radius_estimate, scan_segment
from .polytope import PolytopeError
from .svgrender import boundary_order, render_packing_svg


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # Pass a negative rational such as -1/10 on, as argparse does "-2".
        if arg_string.startswith("-") and _RATIONAL.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    name, D = load_spec_file(args.spec)
    if args.json:
        doc = {
            "valid": True,
            "dim": D.dim,
            "num_facets": D.hrep.num_facets,
            "num_vertices": D.num_vertices,
            "volume": format_rat(D.euclidean_volume),
        }
        if name:
            doc = {"name": name, **doc}
        sys.stdout.write(dumps(doc))
    else:
        label = f"{name}: " if name else ""
        sys.stdout.write(
            f"{label}valid Delzant polytope: dim {D.dim}, "
            f"{D.hrep.num_facets} facets, {D.num_vertices} vertices, "
            f"volume {format_rat(D.euclidean_volume)}\n"
        )
    return 0


def cmd_info(args) -> int:
    name, D = load_spec_file(args.spec)
    doc = info_report(D, name)
    if args.safe_radius:
        doc["safe_radius_estimate"] = format_rat(
            safe_radius_estimate(D)
        )
    sys.stdout.write(dumps(doc))
    return 0


def _maximize(D, svg: str | None):
    """``maximize(D)``; with an SVG path, also the SVG of the first maximal
    packing, written there.  A non-planar D is refused before maximizing."""
    if svg is not None and D.dim != 2:
        raise PolytopeError("SVG rendering needs a planar polytope")
    max_density, packings = maximize(D)
    if svg is None:
        return max_density, packings
    order = boundary_order([f.neighbor_indices for f in D.frames])
    polygon = [D.vertices[i] for i in order]
    labels = [f"r={format_rat(D.corner_radii[i])}" for i in order]
    hulls = [
        sorted([s.center] + [vec_add(s.center, vec_scale(s.radius, d)) for d in s.frame_columns])
        for s in realize(D, packings[0].radii)
    ]
    _emit(render_packing_svg(polygon, hulls, labels), svg)
    return max_density, packings


def cmd_pack(args) -> int:
    name, D = load_spec_file(args.spec)
    max_density, packings = _maximize(D, args.render or None)
    if args.json:
        doc = pack_report(D, max_density, packings, name, all_maximizers=args.all)
        sys.stdout.write(dumps(doc))
    else:
        label = f"{name}: " if name else ""
        sys.stdout.write(
            f"{label}max density {format_rat(max_density)} "
            f"({len(packings)} maximal packing(s))\n"
        )
        for p in packings if args.all else packings[:1]:
            sys.stdout.write("  " + " ".join(map(format_rat, p.radii)) + "\n")
    return 0


def cmd_scan(args) -> int:
    _, D = load_spec_file(args.base)
    s1, s2 = direction_from_json(read_json_file(args.dir))
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    res = scan_segment(D, s1, s2, args.samples)
    _emit(scan_csv(res), args.csv)
    summary = dumps(scan_summary(res))
    if args.summary is None:
        sys.stderr.write(summary)
    else:
        _emit(summary, args.summary)
    return 0


def cmd_family(args) -> int:
    D = generator_polytope(args.generator, args.args)
    label = args.name or args.generator
    _emit(dumps(spec_file_document(D, label)), args.out)
    return 0


def cmd_render(args) -> int:
    _, D = load_spec_file(args.spec)
    _maximize(D, args.out)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="toricpack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the Delzant condition")
    v.add_argument("spec")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    i = sub.add_parser("info", help="full JSON report of the polytope data")
    i.add_argument("spec")
    i.add_argument("--json", action="store_true", help="accepted; info is always JSON")
    i.add_argument("--safe-radius", action="store_true", dest="safe_radius")
    i.set_defaults(func=cmd_info)

    k = sub.add_parser("pack", help="maximal packing density and maximizers")
    k.add_argument("spec")
    k.add_argument("--all", action="store_true", help="list every maximizer")
    k.add_argument("--json", action="store_true")
    k.add_argument("--render", metavar="PATH", help="write an SVG (dim 2 only)")
    k.set_defaults(func=cmd_pack)

    s = sub.add_parser("scan", help="density scan along an offset segment")
    s.add_argument("--base", required=True)
    s.add_argument("--dir", required=True, help='JSON with "s2" (and optional "s1")')
    s.add_argument("--samples", type=int, default=16)
    s.add_argument("--csv", metavar="PATH", help="CSV output (default stdout)")
    s.add_argument("--summary", metavar="PATH", help="summary JSON (default stderr)")
    s.set_defaults(func=cmd_scan)

    f = sub.add_parser("family", help="emit a spec file from a generator")
    f.add_argument("generator")
    f.add_argument("args", nargs="*")
    f.add_argument("-o", "--out", metavar="PATH")
    f.add_argument("--name")
    f.set_defaults(func=cmd_family)

    r = sub.add_parser("render", help="SVG of a maximal packing (dim 2)")
    r.add_argument("spec")
    r.add_argument("out")
    r.set_defaults(func=cmd_render)

    return p


_parser: _Parser | None = None


def main(argv=None) -> int:
    # Built on the first call and kept for the process; not at import, so
    # that importing the package without running a command does not pay
    # for it.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except (UsageError, SpecFileError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - internal invariant breach
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
