"""Post-processing: polygon extraction, highest-risk ramp move, artifacts.

Files written by :func:`export_artifacts` (MW units throughout):

* ``trace.csv``   - per-iteration objective, cuts added, oracle wall time
* ``region.json`` - facets, provenance, vertices (dim <= 2), config echo
* ``binding.json``- per-facet binding constraints
* ``event.json``  - highest-risk ramping event
* ``region.svg``  - 2-D rendering (polygon, forecast marker, risk arrow),
  the one file a region of another dimension goes without

This module owns the ``region.json`` and ``binding.json`` formats, which
are deterministic for a given seed and exclude wall-clock data, so runs
with different worker counts serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binding import BindingReport
from .caseio import StudyConfig
from .engine import DrrResult
from .errors import DimensionTooHigh, EmptyRegionError, MalformedCase
from .polytope import FacetProvenance, Polytope

_VERTEX_DEDUPE = 1e-8


@dataclass
class RampEvent:
    from_mw: np.ndarray
    to_mw: np.ndarray
    distance_mw: float
    facet: int
    degenerate: bool = False   # forecast already on the boundary

    def to_json(self) -> dict:
        return {"from_mw": list(self.from_mw), "to_mw": list(self.to_mw),
                "distance_mw": self.distance_mw, "facet": self.facet,
                "degenerate": self.degenerate}


def vertices_2d(W: Polytope) -> np.ndarray:
    """All region vertices, counterclockwise (dim 2) or ascending (dim 1)."""
    if W.dim > 2:
        raise DimensionTooHigh(f"vertex extraction limited to dim <= 2, got {W.dim}")
    pts: list[np.ndarray] = []
    if W.dim == 1:
        for i in range(W.n_facets):
            v = np.array([W.f[i] / W.H[i, 0]])
            if W.contains(v, tol=1e-9):
                pts.append(v)
    else:
        for i in range(W.n_facets):
            for j in range(i + 1, W.n_facets):
                Mat = np.vstack([W.H[i], W.H[j]])
                if abs(np.linalg.det(Mat)) < 1e-12:
                    continue
                v = np.linalg.solve(Mat, np.array([W.f[i], W.f[j]]))
                if W.contains(v, tol=1e-9):
                    pts.append(v)
    unique: list[np.ndarray] = []
    for p in pts:
        if all(np.abs(p - q).max() > _VERTEX_DEDUPE for q in unique):
            unique.append(p)
    if not unique:
        raise EmptyRegionError("region has no vertices")
    arr = np.array(unique)
    if W.dim == 1:
        return arr[np.argsort(arr[:, 0])]
    centroid = arr.mean(axis=0)
    order = np.argsort(np.arctan2(arr[:, 1] - centroid[1], arr[:, 0] - centroid[0]))
    return arr[order]


def high_risk_event(W: Polytope, w_bar, base_mva: float) -> RampEvent:
    """Shortest move from the forecast to the region boundary (Euclidean).

    Rows of W are unit norm, so for an interior forecast the gap
    ``f_i - H_i @ w_bar`` is the distance to facet i's hyperplane.  The foot
    of the perpendicular on the hyperplane with the smallest gap r lies in
    W: for every facet j, ``H_j @ foot - f_j <= -gap_j + r <= 0``.  Every
    boundary point is at least that far away, so the event is that foot.
    Ties go to the lowest facet index.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    viol = W.violations(w_bar)
    if viol.max(initial=-np.inf) > -1e-12:
        facet = int(np.argmax(viol))
        return RampEvent(from_mw=w_bar * base_mva, to_mw=w_bar * base_mva,
                         distance_mw=0.0, facet=facet, degenerate=True)

    gaps = [W.f[i] - W.H[i] @ w_bar for i in range(W.n_facets)]
    if not gaps:
        raise EmptyRegionError("region has no facets")
    facet = 0
    for i, gap in enumerate(gaps):
        if gap < gaps[facet] - 1e-12:
            facet = i
    point = w_bar + gaps[facet] * W.H[facet]
    return RampEvent(from_mw=w_bar * base_mva, to_mw=point * base_mva,
                     distance_mw=float(gaps[facet]) * base_mva, facet=facet)


# --- artifact writing -------------------------------------------------------------


def region_payload(result: DrrResult, w_bar_mw) -> dict:
    base = result.model.base_mva
    W = result.region
    payload = {
        "units": "MW",
        "dim": W.dim,
        "shape": [W.n_facets, W.dim],
        "H": [list(row) for row in W.H],
        "f_mw": [v * base for v in W.f],
        "provenance": [p.to_json() for p in W.provenance],
        "w_bar_mw": list(np.asarray(w_bar_mw, dtype=float)),
        "method": result.method,
        "termination": result.termination,
        "iterations": result.iterations,
        "seed": result.config_echo["seed"],
        "config": _jsonable(result.config_echo),
    }
    if W.dim <= 2:
        payload["vertices_mw"] = [list(v * base) for v in vertices_2d(W)]
    return payload


def region_from_json(path: Path, base_mva: float) -> tuple[Polytope, str, StudyConfig]:
    """The region of a ``region.json``, its method and the settings of its
    config echo; ``f_mw / base_mva`` need not give back the last bit of the
    pu bounds that were written."""
    try:
        data = json.loads(path.read_text())
        H = np.array(data["H"], dtype=float)
        f = np.array(data["f_mw"], dtype=float) / base_mva
        tags = tuple(FacetProvenance(**p) for p in data["provenance"])
        region = Polytope(H=H, f=f, provenance=tags)
        if data["method"] not in ("milp", "iblp"):
            raise ValueError(f"unknown method {data['method']!r}")
        cfg = StudyConfig.from_echo(data["config"])
        return region, data["method"], cfg
    # JSONDecodeError and InvalidSetting are ValueErrors; a missing key, a key
    # of another type or an unknown field is a Key-, Type- or AttributeError.
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MalformedCase(
            f"{path}: not a region.json: {type(exc).__name__}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=1, sort_keys=True) + "\n")


def _context(method: str, config_echo: dict) -> dict:
    """What binding.json and event.json repeat of the run behind them."""
    return {"method": method, "seed": config_echo["seed"], "config": config_echo}


def write_binding_json(report: BindingReport, out_dir: Path, method: str,
                       config_echo: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump(out_dir / "binding.json", report.to_json() | _context(method, config_echo))


def write_trace_csv(result: DrrResult, path: Path) -> None:
    lines = ["k,objective_pu,cuts_added,oracle_ms"]
    for rec in result.trace:
        lines.append(f"{rec.k},{rec.F!r},{rec.cuts_added},{rec.oracle_ms:.3f}")
    path.write_text("\n".join(lines) + "\n")


def export_artifacts(result: DrrResult, report: BindingReport,
                     event: RampEvent, out_dir: str | Path,
                     w_bar_mw) -> dict:
    """Write every artifact; returns a manifest fragment of written files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = result.model.base_mva

    write_trace_csv(result, out / "trace.csv")
    _dump(out / "region.json", region_payload(result, w_bar_mw))
    write_binding_json(report, out, result.method, result.config_echo)
    _dump(out / "event.json",
          event.to_json() | _context(result.method, result.config_echo))
    files = {"trace": "trace.csv", "region": "region.json",
             "binding": "binding.json", "event": "event.json"}
    notes: list[str] = []
    if result.region.dim != 2:
        notes.append("svg_skipped: region dimension is not 2")
    else:
        svg = render_region_svg(result.region, np.asarray(w_bar_mw) / base,
                                event, base)
        (out / "region.svg").write_text(svg)
        files["svg"] = "region.svg"
    return {"files": files, "notes": notes}


def render_region_svg(W: Polytope, w_bar, event: RampEvent,
                      base_mva: float) -> str:
    """Self-contained SVG: region polygon, forecast marker, risk arrow."""
    size = 480  # px, width and height
    verts = vertices_2d(W) * base_mva
    wb = np.asarray(w_bar, dtype=float) * base_mva
    all_pts = np.vstack([verts, wb[None, :]])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.12 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    def sx(x):
        return (x - lo[0]) / span[0] * (size - 90) + 60

    def sy(y):
        return size - 50 - (y - lo[1]) / span[1] * (size - 90)

    path = " ".join(f"{'M' if k == 0 else 'L'} {sx(v[0]):.2f} {sy(v[1]):.2f}"
                    for k, v in enumerate(verts)) + " Z"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<path d="{path}" fill="#9ecf9e" fill-opacity="0.7" stroke="#2d6a2d" '
        'stroke-width="1.5"/>',
    ]
    # axes with min/max ticks
    parts.append(f'<line x1="60" y1="{size-50}" x2="{size-30}" y2="{size-50}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="60" y1="{size-50}" x2="60" y2="40" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{size//2}" y="{size-14}" font-size="13" '
                 'text-anchor="middle">farm 1 output (MW)</text>')
    parts.append(f'<text x="16" y="{size//2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {size//2})">farm 2 output (MW)</text>')
    for frac in (0.0, 0.5, 1.0):
        xv = lo[0] + frac * span[0]
        yv = lo[1] + frac * span[1]
        parts.append(f'<text x="{sx(xv):.1f}" y="{size-34}" font-size="11" '
                     f'text-anchor="middle">{xv:.0f}</text>')
        parts.append(f'<text x="54" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.0f}</text>')
    if not event.degenerate:
        x1, y1 = sx(event.from_mw[0]), sy(event.from_mw[1])
        x2, y2 = sx(event.to_mw[0]), sy(event.to_mw[1])
        ang = math.atan2(y2 - y1, x2 - x1)
        ah = 8.0
        left = (x2 - ah * math.cos(ang - 0.4), y2 - ah * math.sin(ang - 0.4))
        right = (x2 - ah * math.cos(ang + 0.4), y2 - ah * math.sin(ang + 0.4))
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                     f'y2="{y2:.2f}" stroke="#c8a400" stroke-width="2.5"/>')
        parts.append(f'<path d="M {x2:.2f} {y2:.2f} L {left[0]:.2f} {left[1]:.2f} '
                     f'L {right[0]:.2f} {right[1]:.2f} Z" fill="#c8a400"/>')
    parts.append(f'<circle cx="{sx(wb[0]):.2f}" cy="{sy(wb[1]):.2f}" r="4.5" '
                 'fill="#1f4f9f"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
