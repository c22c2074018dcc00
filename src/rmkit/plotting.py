"""Deterministic SVG learning-curve plots.

The emitter writes plain SVG text with fixed-precision coordinates, so
identical inputs produce bit-identical files; that keeps plots usable in
golden-file tests, which rules out plotting libraries that embed ids or
timestamps.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InputError
from .training import smoothed

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 28, 40
COLORS = ("#1f6fb2", "#c24f1e", "#3a8f46", "#7a4fa3", "#a3832c")


def check_xml_text(text: str, what: str, error=InputError):
    """Raise ``error`` if ``text`` holds a character that an SVG cannot carry."""
    # XML 1.0 carries no surrogate, no C0 control but tab, LF and CR, and no U+FFFE/U+FFFF
    if bad := re.search("[^\t\n\r -\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", text):
        raise error(f"{what} holds U+{ord(bad.group()):04X}, which an SVG cannot carry")


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG character data, ``&`` first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    def __init__(self, x_max: float, y_min: float, y_max: float):
        if y_max <= y_min:
            y_max = y_min + 1.0
        self.x_max = max(x_max, 1.0)
        self.y_min = y_min
        self.y_max = y_max

    def x(self, v: float) -> float:
        span = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + span * v / self.x_max

    def y(self, v: float) -> float:
        span = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - span * (v - self.y_min) / (self.y_max - self.y_min)


def _polyline(frame: _Frame, ys: np.ndarray) -> str:
    return " ".join(f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}" for i, v in enumerate(ys))


def _band(frame: _Frame, lo: np.ndarray, hi: np.ndarray) -> str:
    fwd = [f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}" for i, v in enumerate(hi)]
    back = [f"{_fmt(frame.x(i))},{_fmt(frame.y(v))}" for i, v in reversed(list(enumerate(lo)))]
    return " ".join(fwd + back)


def svg_curves(groups, title: str = "", window: int = 100) -> str:
    """Render labeled curve families: each group is (label, list-of-series).

    Every series is smoothed with a trailing window; a family of several
    series shows the across-series mean line inside its min/max band.
    """
    if not groups:
        raise InputError("nothing to plot")
    for text in [title] + [label for label, _ in groups]:
        check_xml_text(text, f"plot text {text!r}")
    prepared = []
    for label, series in groups:
        lengths = [len(s) for s in series]
        if 0 in lengths or len(set(lengths)) != 1:
            raise InputError(f"group {label!r} holds series of lengths {lengths}; "
                             "all must share one length of at least 1")
        sm = np.stack([smoothed(np.asarray(s, dtype=np.float64), window) for s in series])
        prepared.append((label, sm.mean(axis=0), sm.min(axis=0), sm.max(axis=0)))
    x_max = max(len(mean) - 1 for _, mean, _, _ in prepared)
    y_min = min(float(lo.min()) for _, _, lo, _ in prepared)
    y_max = max(float(hi.max()) for _, _, _, hi in prepared)
    pad = 0.05 * (y_max - y_min or 1.0)
    frame = _Frame(x_max, y_min - pad, y_max + pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = frac * frame.x_max
        parts.append(
            f'<text x="{_fmt(frame.x(xv))}" y="{y0 + 16}" font-size="11" text-anchor="middle">'
            f"{int(round(xv))}</text>"
        )
        yv = frame.y_min + frac * (frame.y_max - frame.y_min)
        parts.append(
            f'<text x="{x0 - 6}" y="{_fmt(frame.y(yv) + 4)}" font-size="11" text-anchor="end">'
            f"{yv:.1f}</text>"
        )
    parts.append(
        f'<text x="{(WIDTH + MARGIN_L - MARGIN_R) // 2}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">episode</text>'
    )
    parts.append(
        f'<text x="14" y="{(HEIGHT + MARGIN_T - MARGIN_B) // 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(HEIGHT + MARGIN_T - MARGIN_B) // 2})">'
        "return</text>"
    )
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="18" font-size="13" text-anchor="middle">{_escape(title)}</text>'
        )
    for gi, (label, mean, lo, hi) in enumerate(prepared):
        color = COLORS[gi % len(COLORS)]
        if not (np.array_equal(lo, mean) and np.array_equal(hi, mean)):
            parts.append(
                f'<polygon points="{_band(frame, lo, hi)}" fill="{color}" opacity="0.18" stroke="none"/>'
            )
        parts.append(
            f'<polyline points="{_polyline(frame, mean)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = MARGIN_T + 14 + 16 * gi
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{ly - 4}" x2="{WIDTH - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{WIDTH - 120}" y="{ly}" font-size="11">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
