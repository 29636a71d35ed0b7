"""Best-effort SVG rendering of diagrams.

Straight-line-ish drawing from a barycentric embedding: subdivide every
edge at a midpoint vertex (making the incidence graph simple), pin the
largest face's boundary cycle to a regular polygon, and place the rest
at the average of their neighbors.  The under strand is drawn with a gap
on each side of every crossing; an augmenting component gets its own
stroke class.  Purely cosmetic: nothing downstream reads this.

The embedding's linear system, one row per free crossing, is solved by
sparse symmetric elimination in minimum-degree order (``_solve``), in
plain Python: rendering needs nothing outside the standard library.
"""

from __future__ import annotations

import math

from .diagram import Diagram, face_set, is_connected
from .errors import RenderError

_STYLE = (
    ".strand { fill: none; stroke: #1b3a6b; stroke-width: 2.2; "
    "stroke-linecap: round; }\n"
    ".aug { stroke: #c03c2b; }\n"
)
_SIZE = 480  # width and height of the drawing, in SVG user units


def _positions(d: Diagram) -> dict:
    """Crossing and edge-midpoint coordinates via a barycentric solve.

    Every node off the pinned cycle sits at the average of its neighbors.
    An edge on the cycle has both end crossings on it, so the four edges
    at a free crossing have free midpoints, each the average of its
    edge's two end crossings.  Substituting them leaves one row per free
    crossing (the Schur complement).  Doubled, the row of crossing c
    reads ``8 x_c - sum (x_a + x_b) = 0``, the sum over c's four slots
    with a and b the ends of the slot's edge (c itself once, twice for a
    kink); the pinned end crossings move to the right-hand side.  The
    free midpoints are then filled in as averages."""
    fs = face_set(d)
    darts = fs.darts
    outer = max(darts, key=lambda f: (len(darts[f]), -f))

    # boundary cycle of the outer face, crossings and midpoints interleaved
    cycle: list = []
    for x, out_e in zip(darts[outer], fs.edges(d, outer)):
        cycle.append(("c", x >> 2))
        cycle.append(("m", out_e))
    boundary = {}
    n = len(cycle)
    for k, node in enumerate(cycle):
        if node not in boundary:
            ang = 2.0 * math.pi * k / n
            boundary[node] = (math.cos(ang), math.sin(ang))

    free = [c for c in sorted(d.crossings) if ("c", c) not in boundary]
    row = {c: i for i, c in enumerate(free)}
    rows = []
    rhs = []
    for c in free:
        r = {row[c]: 8.0}
        bx = by = 0.0
        for e in d.crossings[c].slots:
            for x, _s in d.edges[e].ends:
                if x in row:
                    j = row[x]
                    r[j] = r.get(j, 0.0) - 1.0
                else:
                    px, py = boundary[("c", x)]
                    bx += px
                    by += py
        rows.append(r)
        rhs.append((bx, by))
    solved = _solve(rows, rhs)
    if solved is None:
        return _fallback_positions(d)
    pos = {}
    for c in sorted(d.crossings):
        pos[("c", c)] = solved[row[c]] if c in row else boundary[("c", c)]
    for e in sorted(d.edges):
        if ("m", e) in boundary:
            pos[("m", e)] = boundary[("m", e)]
        else:
            (c0, _s0), (c1, _s1) = d.edges[e].ends
            (x0, y0), (x1, y1) = pos[("c", c0)], pos[("c", c1)]
            pos[("m", e)] = ((x0 + x1) / 2, (y0 + y1) / 2)
    pts = [pos[("c", c)] for c in d.crossings]
    if len(pts) > 1:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        if span <= 0 or _has_close_pair(pts, 1e-6 * span):
            return _fallback_positions(d)
    return pos


def _solve(rows: list, rhs: list) -> list | None:
    """Solve the symmetric system ``rows`` for both right-hand-side
    columns ``rhs``; None when a pivot is not positive.

    ``rows[i]`` maps column j to the entry (i, j), the diagonal included;
    ``rhs[i]`` is the pair of right-hand sides of row i.  The rows are
    eliminated symmetrically (LDL^T) in minimum-degree order, with fill
    entries added to the rows as they appear, and both columns are then
    back-substituted at once.  The system ``_positions`` builds is
    symmetric, diagonally dominant and irreducible, with the dominance
    strict next to the pinned cycle, so it is positive definite and
    needs no pivoting (Tinney and Walker, Proc. IEEE 1967; George and
    Liu, SIAM Review 1989); a pivot that is not positive means it was
    not.  Consumes ``rows``."""
    n = len(rows)
    rx = [b[0] for b in rhs]
    ry = [b[1] for b in rhs]
    # by_degree[k] lists the rows last seen with k entries; an entry is
    # stale once its row has been eliminated or has changed length
    by_degree: list = [[] for _ in range(n + 1)]
    for i in reversed(range(n)):
        by_degree[len(rows[i])].append(i)
    done = [False] * n
    steps = []
    low = 1
    while len(steps) < n:
        while not by_degree[low]:
            low += 1
        p = by_degree[low].pop()
        rp = rows[p]
        if done[p] or len(rp) != low:
            continue
        done[p] = True
        piv = rp.pop(p)
        if not piv > 0.0:
            return None
        inv = 1.0 / piv
        bx = rx[p] * inv
        by = ry[p] * inv
        for j, a in rp.items():
            rj = rows[j]
            before = len(rj)
            del rj[p]
            f = a * inv
            for k, b in rp.items():
                rj[k] = rj.get(k, 0.0) - f * b
            rx[j] -= a * bx
            ry[j] -= a * by
            m = len(rj)
            if m != before:
                by_degree[m].append(j)
                low = min(low, m)
        steps.append((p, inv, rp))
    for p, inv, rp in reversed(steps):
        x = rx[p]
        y = ry[p]
        for j, a in rp.items():
            x -= a * rx[j]
            y -= a * ry[j]
        rx[p] = x * inv
        ry[p] = y * inv
    return list(zip(rx, ry))


def _has_close_pair(pts, eps: float) -> bool:
    """Whether two of the points lie less than ``eps`` apart, measured as
    ``math.hypot`` of their difference.

    The points go into square cells a hair wider than ``eps``, so that a
    pair closer than ``eps`` lies in the same or in neighbouring cells
    even after the rounding of the division; only those pairs are
    measured.  A cell holds at most four points at least ``eps`` apart,
    so this is linear in the number of points."""
    side = eps * (1.0 + 1e-9)
    x0 = min(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    cells: dict = {}
    for x, y in pts:
        gx = math.floor((x - x0) / side)
        gy = math.floor((y - y0) / side)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for qx, qy in cells.get((gx + dx, gy + dy), ()):
                    if math.hypot(x - qx, y - qy) < eps:
                        return True
        cells.setdefault((gx, gy), []).append((x, y))
    return False


def _fallback_positions(d: Diagram) -> dict:
    pos = {}
    cs = sorted(d.crossings)
    for k, c in enumerate(cs):
        ang = 2.0 * math.pi * k / max(1, len(cs))
        pos[("c", c)] = (math.cos(ang), math.sin(ang))
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


def render_svg(d: Diagram) -> str:
    """Render a connected diagram as SVG 1.1 text."""
    if not is_connected(d):
        raise RenderError("can only render connected diagrams")
    if not d.crossings:
        # a single crossing-free loop
        r = _SIZE * 0.35
        c = _SIZE / 2
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SIZE}" height="{_SIZE}">\n<style>{_STYLE}</style>\n'
            f'<circle class="strand" cx="{c}" cy="{c}" r="{r}" fill="none"/>\n</svg>\n'
        )

    pos = _positions(d)
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    span = max(hi[0] - lo[0], hi[1] - lo[1]) or 1.0
    pad = 0.08 * _SIZE

    def xy(p):
        x = pad + (p[0] - lo[0]) / span * (_SIZE - 2 * pad)
        y = pad + (p[1] - lo[1]) / span * (_SIZE - 2 * pad)
        return x, y

    gap = 0.14
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}">',
        f"<style>{_STYLE}</style>",
    ]
    for e in sorted(d.edges):
        rec = d.edges[e]
        (c0, s0), (c1, s1) = rec.ends
        p0 = pos[("c", c0)]
        p1 = pos[("m", e)]
        p2 = pos[("c", c1)]
        # the under strand stops short of its crossing
        t0 = 0.0 if s0 in d.crossings[c0].over_slots else gap
        t1 = 1.0 if s1 in d.crossings[c1].over_slots else 1.0 - gap
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
