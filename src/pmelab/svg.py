"""Standalone SVG plots: no rendering dependency, byte-stable for fixed input."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import RunError

_PALETTE = ("#1f3a93", "#c0392b", "#117a65", "#7d3c98", "#b9770e", "#34495e")


@dataclass(frozen=True)
class Curve:
    x: Sequence[float]
    y: Sequence[float]
    label: str = ""
    dashed: bool = False
    kind: str = "line"  # "line" or "points"


@dataclass(frozen=True)
class Annotation:
    x_frac: float
    y_frac: float
    text: str


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def render_svg(curves: Sequence[Curve], *, title: str = "", xlabel: str = "",
               ylabel: str = "", logx: bool = False, logy: bool = False,
               annotations: Sequence[Annotation] = ()) -> str:
    if not curves:
        raise RunError("no curves to plot")
    for c in curves:
        if len(c.x) == 0 or len(c.x) != len(c.y):
            raise RunError(f"curve {c.label!r} has empty or mismatched data")
        if c.kind not in ("line", "points"):
            raise RunError(f"unknown curve kind {c.kind!r}")

    def axis(log: bool, name: str):
        """The map of a data value to its log10 on a log axis, or to itself."""
        def to(v):
            if log and v <= 0:
                raise RunError(f"log {name} axis requires positive values")
            return math.log10(v) if log else float(v)
        return to

    tx, ty = axis(logx, "x"), axis(logy, "y")

    xs = [tx(v) for c in curves for v in c.x]
    ys = [ty(v) for c in curves for v in c.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    width, height, ml, mr, mt, mb = 720, 480, 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    def px(v):
        return ml + (tx(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (y_hi - ty(v)) / (y_hi - y_lo) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               f'stroke="#333" stroke-width="1"/>')
    if title:
        out.append(f'<text x="{width // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')

    for i in range(5):
        fx = x_lo + i / 4.0 * (x_hi - x_lo)
        fy = y_lo + i / 4.0 * (y_hi - y_lo)
        gx = ml + i / 4.0 * pw
        gy = mt + ph - i / 4.0 * ph
        lx = 10.0 ** fx if logx else fx
        ly = 10.0 ** fy if logy else fy
        out.append(f'<line x1="{_fmt(gx)}" y1="{mt + ph}" x2="{_fmt(gx)}" '
                   f'y2="{mt + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(gx)}" y="{mt + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(lx)}</text>')
        out.append(f'<line x1="{ml - 5}" y1="{_fmt(gy)}" x2="{ml}" '
                   f'y2="{_fmt(gy)}" stroke="#333"/>')
        out.append(f'<text x="{ml - 8}" y="{_fmt(gy + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(ly)}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw // 2}" y="{height - 10}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{mt + ph // 2}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13" '
                   f'transform="rotate(-90 18 {mt + ph // 2})">{ylabel}</text>')

    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        if c.kind == "points":
            for xv, yv in zip(c.x, c.y):
                out.append(f'<circle cx="{_fmt(px(xv))}" cy="{_fmt(py(yv))}" r="2.5" '
                           f'fill="{color}"/>')
        else:
            pts = " ".join(f"{_fmt(px(xv))},{_fmt(py(yv))}" for xv, yv in zip(c.x, c.y))
            dash = ' stroke-dasharray="7,5"' if c.dashed else ""
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"{dash}/>')
        if c.label:
            ly = mt + 16 + 16 * i
            swatch_dash = ' stroke-dasharray="7,5"' if c.dashed else ""
            out.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 120}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"{swatch_dash}/>')
            out.append(f'<text x="{ml + pw - 114}" y="{ly}" font-family="sans-serif" '
                       f'font-size="12">{c.label}</text>')

    for a in annotations:
        ax = ml + a.x_frac * pw
        ay = mt + (1.0 - a.y_frac) * ph
        out.append(f'<text x="{_fmt(ax)}" y="{_fmt(ay)}" font-family="sans-serif" '
                   f'font-size="12" fill="#444">{a.text}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, curves: Sequence[Curve], **kwargs) -> None:
    text = render_svg(curves, **kwargs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
