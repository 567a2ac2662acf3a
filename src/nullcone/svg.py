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


def _fmt(x: float) -> str:
    return "%.4f" % x


def _cholesky2(gram) -> tuple[float, float, float]:
    g00 = float(gram[0][0])
    g01 = float(gram[0][1])
    g11 = float(gram[1][1])
    a = math.sqrt(g00)
    b = g01 / a
    c = math.sqrt(g11 - b * b)
    return a, b, c


class _Canvas:
    def __init__(self, xs: list[float], ys: list[float]):
        pad = 0.5
        lo_x, hi_x = min(xs) - pad, max(xs) + pad
        lo_y, hi_y = min(ys) - pad, max(ys) + pad
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
        self.scale = (_WIDTH - 2 * _MARGIN) / span
        self.cx = (lo_x + hi_x) / 2
        self.cy = (lo_y + hi_y) / 2
        self.radius = span * math.sqrt(2)

    def point(self, x: float, y: float) -> tuple[float, float]:
        return (_WIDTH / 2 + self.scale * (x - self.cx),
                _HEIGHT / 2 - self.scale * (y - self.cy))


def _line(canvas: _Canvas, p: tuple[float, float], q: tuple[float, float],
          style: str) -> str:
    x1, y1 = canvas.point(*p)
    x2, y2 = canvas.point(*q)
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" {style}/>')


def _dot(canvas: _Canvas, p: tuple[float, float], style: str,
         radius: float = 4.0) -> str:
    x, y = canvas.point(*p)
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" {style}/>'


def _label(canvas: _Canvas, p: tuple[float, float], text: str) -> str:
    x, y = canvas.point(*p)
    return (f'<text x="{_fmt(x + 6.0)}" y="{_fmt(y - 6.0)}" '
            f'font-size="11" fill="#333333">{text}</text>')


_SOLID = 'stroke="#1f4fa0" stroke-width="1.5"'
_DASHED = 'stroke="#a04f1f" stroke-width="1.5" stroke-dasharray="6 4"'
_AXIS = 'stroke="#cccccc" stroke-width="1"'
_WEIGHT = 'fill="#222222"'
_ROOT = 'fill="none" stroke="#888888" stroke-width="1.5"'


def _render(summary: NullconeSummary) -> list[str]:
    """The picture's elements; only the projection `draw` and the segment
    `hyperplane` drawn for a candidate depend on the rank."""
    problem = summary.problem
    if problem.rank == 1:
        g = float(problem.space.gram[0][0])
        scale = math.sqrt(g)

        def draw(v: Vec) -> tuple[float, float]:
            return (scale * float(v[0]), 0.0)

        def hyperplane(l: Vec, canvas: _Canvas):
            # on the line the hyperplane is the single point x = 1 / (g * l)
            x = scale / (g * float(l[0]))
            return (x, -0.3), (x, 0.3)
    else:
        a, b, c = _cholesky2(problem.space.gram)

        def draw(v: Vec) -> tuple[float, float]:
            x0, x1 = float(v[0]), float(v[1])
            return (a * x0 + b * x1, c * x1)

        def hyperplane(l: Vec, canvas: _Canvas):
            # the hyperplane {<l, x> = 1} maps to {n . u = 1} with n = L^T l
            n = draw(l)
            nn = n[0] * n[0] + n[1] * n[1]
            base = (n[0] / nn, n[1] / nn)
            direction = (-n[1], n[0])
            norm = math.sqrt(nn)
            t = canvas.radius + math.hypot(base[0] - canvas.cx, base[1] - canvas.cy)
            return ((base[0] - t * direction[0] / norm, base[1] - t * direction[1] / norm),
                    (base[0] + t * direction[0] / norm, base[1] + t * direction[1] / norm))

    weight_pts = [draw(v) for v, _ in problem.weights]
    root_pts = [draw(alpha) for alpha in problem.roots]
    everything = weight_pts + root_pts + [(0.0, 0.0)]
    canvas = _Canvas([p[0] for p in everything], [p[1] for p in everything])

    body = [_line(canvas, (-canvas.radius + canvas.cx, canvas.cy),
                  (canvas.radius + canvas.cx, canvas.cy), _AXIS)]
    if problem.rank == 2:
        body.append(_line(canvas, (canvas.cx, -canvas.radius + canvas.cy),
                          (canvas.cx, canvas.radius + canvas.cy), _AXIS))
    for decision in summary.decisions:
        style = _SOLID if decision.stratifying else _DASHED
        body.append(_line(canvas, *hyperplane(decision.candidate.l, canvas), style))
    for point in root_pts:
        body.append(_dot(canvas, point, _ROOT))
    for (_, mult), point in zip(problem.weights, weight_pts):
        body.append(_dot(canvas, point, _WEIGHT))
        if mult != 1:
            body.append(_label(canvas, point, f"x{mult}"))
    return body


def render_svg(summary: NullconeSummary) -> str:
    rank = summary.problem.rank
    if rank > 2:
        raise InputError(f"SVG output is only available for rank <= 2 problems, "
                         f"got rank {rank}")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    lines.extend(_render(summary))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
