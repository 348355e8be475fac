"""Deterministic text and SVG diagrams of vocabularies.

Both renderers are pure functions of their input: the same vocabulary
always produces byte-identical output.  Complete vocabularies draw a
single tiled axis with boundary marks; incomplete ones draw the known
hulls as solid stretches over a dotted axis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import Domain, Vocabulary, default_words, rational_str
from .errors import VocaggError
from .exemplars import InducedVocabulary

WIDTH = 80

Diagram = Union[Vocabulary, InducedVocabulary]


def _column(value: Fraction, domain: Domain) -> int:
    span = domain.upper - domain.lower
    position = Fraction(WIDTH - 1) * (value - domain.lower) / span
    return int(position)  # floor: positions are never negative


def _overlay(row: list[str], start: int, text: str) -> None:
    """Write onto blank cells only, clipped to the row."""
    for offset, char in enumerate(text):
        index = start + offset
        if 0 <= index < len(row) and row[index] == " ":
            row[index] = char


def _value_row(values: Sequence[Fraction], domain: Domain) -> str:
    row = [" "] * WIDTH
    cursor = 0
    for value in sorted(set(values)):
        text = rational_str(value)
        start = max(_column(value, domain) - len(text) // 2, cursor)
        start = max(min(start, WIDTH - len(text)), 0)  # a text wider than the row starts at 0
        row[start : start + len(text)] = text  # and widens the row
        cursor = start + len(text) + 1
    return "".join(row).rstrip()


def _label_row(
    extents: Sequence[Optional[tuple[Fraction, Fraction]]],
    names: Sequence[str],
    domain: Domain,
) -> str:
    row = [" "] * WIDTH
    for j, extent in enumerate(extents):
        if extent is None:
            continue
        center = (_column(extent[0], domain) + _column(extent[1], domain)) // 2
        text = names[j]
        _overlay(row, min(max(center - len(text) // 2, 0), WIDTH - len(text)), text)
    return "".join(row).rstrip()


def _names_for(diagram: Diagram, names: Optional[Sequence[str]]) -> tuple[str, ...]:
    count = diagram.word_count
    if names is None:
        return default_words(count)
    if len(names) != count:
        raise VocaggError(f"{len(names)} names for {count} words")
    return tuple(names)


def _render_ascii(diagram: Diagram, names: Optional[Sequence[str]] = None) -> str:
    names = _names_for(diagram, names)
    domain = diagram.domain
    complete = isinstance(diagram, Vocabulary)
    axis = ["-" if complete else "."] * WIDTH
    values: list[Fraction] = [domain.lower, domain.upper]
    for extent in diagram.extents:
        if extent is None:
            continue
        lo, hi = extent
        values.extend((lo, hi))
        left, right = _column(lo, domain), _column(hi, domain)
        if complete:
            axis[left] = axis[right] = "|"
        elif left == right:
            axis[left] = "*"
        else:
            axis[left : right + 1] = "[" + "=" * (right - left - 1) + "]"
    axis[0], axis[-1] = "(", ")"  # in place of the mark of any end at a corner
    lines = [
        _label_row(diagram.extents, names, domain),
        "".join(axis),
        _value_row(values, domain),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG

_SVG_LEFT = 40
_SVG_SPAN = 720
_SVG_AXIS_Y = 80


def _svg_x(value: Fraction, domain: Domain) -> str:
    """The x coordinate of ``value`` to two decimals, rounded half to even on the exact value."""
    span = domain.upper - domain.lower
    hundredths = round(100 * (_SVG_LEFT + _SVG_SPAN * (value - domain.lower) / span))
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _render_svg(diagram: Diagram, names: Optional[Sequence[str]] = None) -> str:
    names = _names_for(diagram, names)
    domain = diagram.domain
    complete = isinstance(diagram, Vocabulary)
    dashes = "" if complete else ' stroke-dasharray="4 4"'
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 160"'
        ' font-family="monospace" font-size="14">',
        f'  <line x1="{_SVG_LEFT}" y1="{_SVG_AXIS_Y}" x2="{_SVG_LEFT + _SVG_SPAN}"'
        f' y2="{_SVG_AXIS_Y}" stroke="black" stroke-width="1"{dashes}/>',
    ]
    ticks: list[Fraction] = [domain.lower, domain.upper]
    for j, extent in enumerate(diagram.extents):
        if extent is None:
            continue
        lo, hi = extent
        ticks.extend((lo, hi))
        x1, x2 = _svg_x(lo, domain), _svg_x(hi, domain)
        if not complete and lo == hi:
            parts.append(
                f'  <circle cx="{x1}" cy="{_SVG_AXIS_Y}" r="4" fill="black"/>'
            )
        else:
            parts.append(
                f'  <line x1="{x1}" y1="{_SVG_AXIS_Y}" x2="{x2}"'
                f' y2="{_SVG_AXIS_Y}" stroke="black" stroke-width="5"/>'
            )
        mid = (lo + hi) / 2
        parts.append(
            f'  <text x="{_svg_x(mid, domain)}" y="58"'
            f' text-anchor="middle">{names[j]}</text>'
        )
    for value in sorted(set(ticks)):
        x = _svg_x(value, domain)
        parts.append(
            f'  <line x1="{x}" y1="72" x2="{x}" y2="88"'
            ' stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'  <text x="{x}" y="108" text-anchor="middle">{rational_str(value)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_diagram(
    diagram: Diagram,
    style: str = "ascii",
    names: Optional[Sequence[str]] = None,
) -> str:
    """``diagram`` drawn as ``style``, ``"ascii"`` text or ``"svg"``, its words
    named by ``names`` (``w1``, ``w2``, ... by default)."""
    if style == "ascii":
        return _render_ascii(diagram, names)
    if style == "svg":
        return _render_svg(diagram, names)
    raise VocaggError(f"unknown render style {style!r}; choose ascii or svg")
