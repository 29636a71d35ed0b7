"""Best-effort SVG rendering of diagrams.

Straight-line-ish drawing from a barycentric embedding: subdivide every
edge at a midpoint vertex (making the incidence graph simple), pin the
largest face's boundary cycle to a regular polygon, and place the rest
at the average of their neighbors.  The under strand is drawn with a gap
on each side of every crossing; an augmenting component gets its own
stroke class.  Purely cosmetic: nothing downstream reads this.

numpy is imported inside the functions that use it, so importing the
package does not load it for callers that never render.
"""

from __future__ import annotations

from .diagram import Diagram, face_set, is_connected
from .errors import RenderError

_STYLE = (
    ".strand { fill: none; stroke: #1b3a6b; stroke-width: 2.2; "
    "stroke-linecap: round; }\n"
    ".aug { stroke: #c03c2b; }\n"
)


def _positions(d: Diagram) -> dict:
    """Crossing and edge-midpoint coordinates via a barycentric solve."""
    import numpy as np

    fs = face_set(d)
    outer = max((f for f in fs.faces if f.corner_slots), key=lambda f: (f.degree, -f.id))

    nodes: list = [("c", c) for c in sorted(d.crossings)]
    nodes += [("m", e) for e in sorted(d.edges)]
    index = {n: i for i, n in enumerate(nodes)}

    # boundary cycle of the outer face, crossings and midpoints interleaved
    cycle: list = []
    for (c, _s), out_e in zip(outer.corner_slots, outer.boundary_edges):
        cycle.append(("c", c))
        cycle.append(("m", out_e))
    boundary = {}
    n = len(cycle)
    for k, node in enumerate(cycle):
        if node not in boundary:
            ang = 2.0 * np.pi * k / n
            boundary[node] = (np.cos(ang), np.sin(ang))

    m = len(nodes)
    a = np.zeros((m, m))
    bx = np.zeros(m)
    by = np.zeros(m)
    for node in nodes:
        i = index[node]
        if node in boundary:
            a[i, i] = 1.0
            bx[i], by[i] = boundary[node]
            continue
        if node[0] == "m":
            nbrs = [("c", c) for c, _s in d.edges[node[1]].ends]
        else:
            nbrs = [("m", e) for e in d.crossings[node[1]].slots]
        a[i, i] = len(nbrs)
        for nb in nbrs:
            a[i, index[nb]] -= 1.0
    try:
        xs = np.linalg.solve(a, bx)
        ys = np.linalg.solve(a, by)
    except np.linalg.LinAlgError:
        return _fallback_positions(d)
    pos = {node: (float(xs[index[node]]), float(ys[index[node]])) for node in nodes}
    pts = np.array([pos[("c", c)] for c in d.crossings])
    if len(pts) > 1:
        span = pts.max(axis=0) - pts.min(axis=0)
        dmin = min(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        if span.max() <= 0 or dmin < 1e-6 * span.max():
            return _fallback_positions(d)
    return pos


def _fallback_positions(d: Diagram) -> dict:
    import numpy as np

    pos = {}
    cs = sorted(d.crossings)
    for k, c in enumerate(cs):
        ang = 2.0 * np.pi * k / max(1, len(cs))
        pos[("c", c)] = (np.cos(ang), np.sin(ang))
    for e, rec in d.edges.items():
        (c0, _s0), (c1, _s1) = rec.ends
        x0, y0 = pos[("c", c0)]
        x1, y1 = pos[("c", c1)]
        off = 0.15 if c0 == c1 else 0.0
        pos[("m", e)] = ((x0 + x1) / 2 + off, (y0 + y1) / 2 + off)
    return pos


def _quad_point(p0, p1, p2, t):
    u = 1.0 - t
    return (
        u * u * p0[0] + 2 * u * t * p1[0] + t * t * p2[0],
        u * u * p0[1] + 2 * u * t * p1[1] + t * t * p2[1],
    )


def render_svg(d: Diagram, size: int = 480) -> str:
    """Render a connected diagram as SVG 1.1 text."""
    import numpy as np

    if not is_connected(d):
        raise RenderError("can only render connected diagrams")
    if not d.crossings:
        # a single crossing-free loop
        r = size * 0.35
        c = size / 2
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{size}" height="{size}">\n<style>{_STYLE}</style>\n'
            f'<circle class="strand" cx="{c}" cy="{c}" r="{r}" fill="none"/>\n</svg>\n'
        )

    pos = _positions(d)
    pts = np.array(list(pos.values()))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    pad = 0.08 * size

    def xy(p):
        x = pad + (p[0] - lo[0]) / span * (size - 2 * pad)
        y = pad + (p[1] - lo[1]) / span * (size - 2 * pad)
        return x, y

    gap = 0.14
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}">',
        f"<style>{_STYLE}</style>",
    ]
    for e in sorted(d.edges):
        rec = d.edges[e]
        (c0, s0), (c1, s1) = rec.ends
        p0 = pos[("c", c0)]
        p1 = pos[("m", e)]
        p2 = pos[("c", c1)]
        t0 = gap if d.label(c0, s0).value == "-" else 0.0
        t1 = 1.0 - (gap if d.label(c1, s1).value == "-" else 0.0)
        q0 = _quad_point(p0, p1, p2, t0)
        q2 = _quad_point(p0, p1, p2, t1)
        qm = _quad_point(p0, p1, p2, (t0 + t1) / 2)
        ctrl = (2 * qm[0] - (q0[0] + q2[0]) / 2, 2 * qm[1] - (q0[1] + q2[1]) / 2)
        x0, y0 = xy(q0)
        cx, cy = xy(ctrl)
        x2, y2 = xy(q2)
        cls = "strand aug" if rec.component == d.augmenting_component else "strand"
        parts.append(
            f'<path class="{cls}" data-edge="{e}" '
            f'd="M {x0:.2f} {y0:.2f} Q {cx:.2f} {cy:.2f} {x2:.2f} {y2:.2f}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
