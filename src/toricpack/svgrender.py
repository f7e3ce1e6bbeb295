"""SVG rendering of planar polytopes with a packing overlay.

The only place floating point is allowed: rendering consumes finished
reports and never feeds anything back into the exact computations.
"""

from __future__ import annotations

from fractions import Fraction

VIEW = 800.0
MARGIN_FRACTION = 0.05


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_packing_svg(
    polygon: list[tuple[Fraction, Fraction]],
    simplices: list[list[tuple[Fraction, Fraction]]],
    labels: list[str],
) -> str:
    """Draw the polygon outline, shade the packing simplices at 40 percent
    opacity, and label each polygon vertex.

    ``polygon`` vertices must be in boundary order; ``labels`` pairs with
    them index by index.
    """
    xs = [float(p[0]) for p in polygon]
    ys = [float(p[1]) for p in polygon]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny) or 1.0
    margin = VIEW * MARGIN_FRACTION
    unit = (VIEW - 2 * margin) / span

    def to_screen(p) -> tuple[float, float]:
        x = margin + (float(p[0]) - minx) * unit
        y = VIEW - margin - (float(p[1]) - miny) * unit
        return x, y

    def points_attr(pts) -> str:
        return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(to_screen, pts))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
        f'<polygon points="{points_attr(polygon)}" '
        'fill="#f5f5f0" stroke="#222222" stroke-width="2"/>',
    ]
    for hull in simplices:
        parts.append(
            f'<polygon points="{points_attr(hull)}" '
            'fill="#3a6ea5" fill-opacity="0.4" stroke="#3a6ea5" stroke-width="1"/>'
        )
    for p, label in zip(polygon, labels):
        x, y = to_screen(p)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#222222"/>')
        parts.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" '
            f'font-family="monospace" font-size="18">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def boundary_order(neighbors) -> list[int]:
    """Polygon vertex indices along the boundary cycle, given the two
    neighbours of each vertex: from vertex 0 to its smaller neighbour, then
    at each vertex on to the neighbour it was not reached from."""
    order = [0, min(neighbors[0])]
    while len(order) < len(neighbors):
        a, b = neighbors[order[-1]]
        order.append(b if a == order[-2] else a)
    return order
