"""Plain SVG pictures of rank 1 and rank 2 problems.

Coordinates are drawn in the metric of the Gram form: for rank 2 the form is
factored as G = L L^T and points are mapped through L^T, so distances and
angles in the picture match the invariant inner product.  Floats appear only
here, at render time.
"""

from __future__ import annotations

import math

from .engine import NullconeSummary
from .ratgeom import InputError, Vec

_WIDTH = 480.0
_HEIGHT = 480.0
_MARGIN = 40.0

Point = tuple[float, float]


def _fmt(x: float) -> str:
    return "%.4f" % x


def _line(p: Point, q: Point, style: str) -> str:
    return (f'<line x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" x2="{_fmt(q[0])}" '
            f'y2="{_fmt(q[1])}" {style}/>')


def _dot(p: Point, style: str) -> str:
    return f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="4.0000" {style}/>'


_SOLID = 'stroke="#1f4fa0" stroke-width="1.5"'
_DASHED = 'stroke="#a04f1f" stroke-width="1.5" stroke-dasharray="6 4"'
_AXIS = 'stroke="#cccccc" stroke-width="1"'
_WEIGHT = 'fill="#222222"'
_ROOT = 'fill="none" stroke="#888888" stroke-width="1.5"'


def check_drawable(rank: int) -> None:
    """Raise InputError unless a problem of this rank can be drawn."""
    if rank > 2:
        raise InputError(f"SVG output is only available for rank <= 2 problems, "
                         f"got rank {rank}")


def _render(summary: NullconeSummary) -> list[str]:
    """The picture's elements; only the projection `draw` and the segment
    `hyperplane` drawn for a candidate depend on the rank.  `pixel` maps the
    frame around the drawn points and the origin to the canvas: its centre
    (cx, cy) to the middle and its longer side `span` across the margins."""
    problem = summary.problem
    gram = problem.space.gram
    if problem.rank == 1:
        g = float(gram[0][0])
        unit = math.sqrt(g)

        def draw(v: Vec) -> Point:
            return (unit * float(v[0]), 0.0)

        def hyperplane(l: Vec) -> tuple[Point, Point]:
            # on the line the hyperplane is the single point x = 1 / (g * l)
            x = unit / (g * float(l[0]))
            return (x, -0.3), (x, 0.3)
    else:
        # G = L L^T with L = [[a, 0], [b, c]]
        a = math.sqrt(float(gram[0][0]))
        b = float(gram[0][1]) / a
        c = math.sqrt(float(gram[1][1]) - b * b)

        def draw(v: Vec) -> Point:
            x0, x1 = float(v[0]), float(v[1])
            return (a * x0 + b * x1, c * x1)

        def hyperplane(l: Vec) -> tuple[Point, Point]:
            # the hyperplane {<l, x> = 1} maps to {n . u = 1} with n = L^T l
            n = draw(l)
            nn = n[0] * n[0] + n[1] * n[1]
            base = (n[0] / nn, n[1] / nn)
            direction = (-n[1], n[0])
            norm = math.sqrt(nn)
            t = radius + math.hypot(base[0] - cx, base[1] - cy)  # the frame's, below
            return ((base[0] - t * direction[0] / norm, base[1] - t * direction[1] / norm),
                    (base[0] + t * direction[0] / norm, base[1] + t * direction[1] / norm))

    weight_pts = [draw(v) for v, _ in problem.weights]
    root_pts = [draw(alpha) for alpha in problem.roots]
    xs, ys = zip(*weight_pts, *root_pts, (0.0, 0.0))
    lo_x, hi_x = min(xs) - 0.5, max(xs) + 0.5
    lo_y, hi_y = min(ys) - 0.5, max(ys) + 0.5
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    zoom = (_WIDTH - 2 * _MARGIN) / span
    cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
    radius = span * math.sqrt(2)

    def pixel(p: Point) -> Point:
        return (_WIDTH / 2 + zoom * (p[0] - cx), _HEIGHT / 2 - zoom * (p[1] - cy))

    body = [_line(pixel((cx - radius, cy)), pixel((cx + radius, cy)), _AXIS)]
    if problem.rank == 2:
        body.append(_line(pixel((cx, cy - radius)), pixel((cx, cy + radius)), _AXIS))
    for decision in summary.decisions:
        p, q = hyperplane(decision.candidate.l)
        body.append(_line(pixel(p), pixel(q), _SOLID if decision.stratifying else _DASHED))
    for point in root_pts:
        body.append(_dot(pixel(point), _ROOT))
    for (_, mult), point in zip(problem.weights, weight_pts):
        x, y = pixel(point)
        body.append(_dot((x, y), _WEIGHT))
        if mult != 1:
            body.append(f'<text x="{_fmt(x + 6.0)}" y="{_fmt(y - 6.0)}" '
                        f'font-size="11" fill="#333333">x{mult}</text>')
    return body


def render_svg(summary: NullconeSummary) -> str:
    check_drawable(summary.problem.rank)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    lines.extend(_render(summary))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
