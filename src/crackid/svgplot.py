"""Hand-emitted SVG output: deformed-configuration mesh plots, ratio
curves and interface-iteration overlays. Only polylines, axes and text,
so the artifact carries no plotting dependency."""

from xml.sax.saxutils import escape

import numpy as np

# the order is the precedence: an interface edge takes the first status of its two nodes
STATUS_COLORS = {"contact": "#d62728", "cohesive": "#ff9f1c", "open": "#1f77b4"}
CURVE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#ff9f1c",
                "#17becf", "#7f7f7f"]
MARGIN = 50   # pixels around the plot area
N_TICKS = 5   # per axis
OVERLAY_PICKS = (0, 10, 20, 40, 100, 200)   # iterations interface_overlay draws


class SvgCanvas:
    """Minimal SVG builder mapping data coordinates to pixel space."""

    def __init__(self, width, height, xlim, ylim):
        self.width = width
        self.height = height
        self.xlim = xlim
        self.ylim = ylim
        self.parts = []

    def x(self, xd):
        x0, x1 = self.xlim
        return MARGIN + (xd - x0) / (x1 - x0) * (self.width - 2 * MARGIN)

    def y(self, yd):
        y0, y1 = self.ylim
        return self.height - MARGIN - (yd - y0) / (y1 - y0) * (self.height - 2 * MARGIN)

    def polyline(self, xs, ys, color="#000", width=1.0):
        pts = " ".join("%.2f,%.2f" % (self.x(px), self.y(py))
                       for px, py in zip(xs, ys))
        self.parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"'
            ' stroke-opacity="1.000"/>' % (pts, color, width))

    def segments(self, a, b, color="#000", width=1.0):
        """Batch of line segments, a/b arrays of endpoints (n, 2); the
        coordinates are mapped as whole arrays and formatted in one pass."""
        coords = np.column_stack([self.x(a[:, 0]), self.y(a[:, 1]),
                                  self.x(b[:, 0]), self.y(b[:, 1])])
        path = ("M%.2f %.2fL%.2f %.2f" * len(coords)) % tuple(coords.ravel().tolist())
        self.parts.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="%.2f"'
            ' stroke-opacity="1.000"/>' % (path, color, width))

    def text(self, xd, yd, s, size=12, color="#000", anchor="start"):
        self.parts.append(
            '<text x="%.2f" y="%.2f" font-size="%d" fill="%s" text-anchor="%s"'
            ' font-family="sans-serif">%s</text>'
            % (self.x(xd), self.y(yd), size, color, anchor, escape(s)))

    def axes(self, xlabel="", ylabel=""):
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        self.polyline([x0, x1], [y0, y0], color="#333", width=1.2)
        self.polyline([x0, x0], [y0, y1], color="#333", width=1.2)
        for t in np.linspace(x0, x1, N_TICKS):
            self.parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#333"/>'
                              % (self.x(t), self.y(y0), self.x(t), self.y(y0) + 4))
            self.text(t, y0 - 0.06 * (y1 - y0), "%.3g" % t, size=10, anchor="middle")
        for t in np.linspace(y0, y1, N_TICKS):
            self.parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#333"/>'
                              % (self.x(x0) - 4, self.y(t), self.x(x0), self.y(t)))
            self.text(x0 - 0.02 * (x1 - x0), t, "%.3g" % t, size=10, anchor="end")
        if xlabel:
            self.text(0.5 * (x0 + x1), y0 - 0.12 * (y1 - y0), xlabel, anchor="middle")
        if ylabel:
            self.text(x0, y1 + 0.03 * (y1 - y0), ylabel)

    def tostring(self):
        return ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
                'viewBox="0 0 %d %d">\n<rect width="100%%" height="100%%" fill="white"/>\n'
                % (self.width, self.height, self.width, self.height)
                + "\n".join(self.parts) + "\n</svg>\n")

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.tostring())


def _triangle_edges(mesh):
    """The distinct edges (a, b), a < b, in lexicographic order: the sorted
    distinct codes a n + b, n the vertex count."""
    t = mesh.triangles
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e.sort(axis=1)
    n = mesh.n_vertices
    return np.column_stack(np.divmod(np.unique(e[:, 0] * n + e[:, 1]), n))


def deformed_configuration(path, mesh, field, active, kappa):
    """Current-configuration plot x + u(x) with interface edges coloured by
    status. An interface node is contact if in ``active``, else cohesive if
    its normal jump [[u]]_2 < ``kappa``, else open; an edge takes the first
    of its two nodes' statuses in ``STATUS_COLORS`` order (red contact,
    orange cohesive, blue open)."""
    pos = mesh.vertices + field.as_points()
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    pad = 0.05 * max(hi - lo)
    canvas = SvgCanvas(900, 560, (lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    edges = _triangle_edges(mesh)
    canvas.segments(pos[edges[:, 0]], pos[edges[:, 1]], color="#bbbbbb", width=0.4)
    rank = np.where(active, 0, np.where(mesh.jump(field.values, 1) < kappa, 1, 2))
    colors = list(STATUS_COLORS.values())
    for side in (mesh.pair_minus, mesh.pair_plus):
        for k, (a, b) in enumerate(side):
            color = colors[min(rank[k], rank[k + 1])]
            canvas.segments(pos[[a]], pos[[b]], color=color, width=2.0)
    for i, (name, col) in enumerate(STATUS_COLORS.items()):
        yl = lo[1] - pad + 0.035 * (hi[1] - lo[1] + 2 * pad) * (i + 1)
        canvas.polyline([lo[0], lo[0] + 0.04], [yl, yl], color=col, width=3)
        canvas.text(lo[0] + 0.05, yl, name, size=11, color=col)
    canvas.write(path)


def ratio_curves(path, ns, j_ratio, err_ratio):
    """Objective and shape-error ratio curves versus iteration."""
    ymax = max(1.05, 1.05 * max(np.max(j_ratio), np.max(err_ratio)))
    canvas = SvgCanvas(820, 520, (0, max(ns[-1], 1)), (0.0, ymax))
    canvas.axes(xlabel="iteration n", ylabel="ratio")
    canvas.polyline(ns, j_ratio, color=CURVE_COLORS[0], width=1.8)
    canvas.polyline(ns, err_ratio, color=CURVE_COLORS[1], width=1.8)
    canvas.text(0.62 * ns[-1], 0.96 * ymax,
                "objective ratio (min %.3g)" % float(np.min(j_ratio)),
                color=CURVE_COLORS[0], size=12)
    canvas.text(0.62 * ns[-1], 0.90 * ymax,
                "shape error ratio (min %.3g)" % float(np.min(err_ratio)),
                color=CURVE_COLORS[1], size=12)
    canvas.write(path)


def interface_overlay(path, snapshots, psi_true):
    """Selected interface iterates over the true breaking line."""
    canvas = SvgCanvas(900, 560, (0.0, 1.0), (0.0, 0.5))
    canvas.axes(xlabel="x1", ylabel="x2")
    xx = np.linspace(0.0, 1.0, 400)
    canvas.polyline(xx, psi_true(xx), color="#000", width=3.0)
    canvas.text(0.02, 0.47, "true interface", size=12)
    shown = 0
    for i, n in enumerate(OVERLAY_PICKS):
        if n not in snapshots:
            continue
        col = CURVE_COLORS[(i + 2) % len(CURVE_COLORS)]
        canvas.polyline(xx, snapshots[n](xx), color=col, width=1.4)
        canvas.text(0.02, 0.44 - 0.025 * shown, "n = %d" % n, size=11, color=col)
        shown += 1
    canvas.write(path)
    return shown
