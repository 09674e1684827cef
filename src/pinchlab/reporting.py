"""Deterministic CSV rendering shared by the command line and the verifier."""

from __future__ import annotations

import os

TOOL_VERSION = "pinchlab 0.1.0"


def _formatter(kind: type, precision: int):
    """The function that prints a value of type ``kind``."""
    if issubclass(kind, bool):
        return lambda x: "true" if x else "false"
    if issubclass(kind, float):
        return f"{{:.{precision}g}}".format
    if issubclass(kind, complex):
        return f"{{0.real:.{precision}g}}{{0.imag:+.{precision}g}}j".format
    return str


def render_csv(columns, rows, config_hash: str = "", comments=(),
               precision: int = 17) -> str:
    """Header comment (tool version + config hash), column row, data rows.

    Output is byte-deterministic for identical inputs: no timestamps, fixed
    float formatting.
    """
    lines = [f"# {TOOL_VERSION} config_hash={config_hash}"]
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    cells = []
    for col in zip(*rows, strict=True):
        kinds = set(map(type, col))
        if len(kinds) == 1:  # one formatter for the whole column
            kind = kinds.pop()
            fmt = _formatter(kind, precision)
            # equal values print alike, except 1+0j and 1-0j, and 0.0 and -0.0
            if issubclass(kind, complex) or 0 in col:
                cells.append(list(map(fmt, col)))
            else:  # each distinct value formatted once
                distinct = set(col)
                text = dict(zip(distinct, map(fmt, distinct)))
                cells.append(list(map(text.__getitem__, col)))
        else:
            cells.append([_formatter(type(x), precision)(x) for x in col])
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
