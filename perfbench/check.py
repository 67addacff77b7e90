"""The benchmark's own release checker (independent of the program).

A release passes when it is a pure suppression of the CSV that was sent
(same header, same shape, every cell equal to the input cell or ``*``),
every released row occurs at least ``k`` times, and the ``stars`` the
server reported equals the release's own ``*`` count.
"""

from __future__ import annotations

import csv
import io

STAR = "*"


def parse(text: str) -> tuple[list[str], list[list[str]]]:
    """``(header, rows)`` of a headed CSV text."""
    lines = [line for line in csv.reader(io.StringIO(text)) if line]
    if not lines:
        return [], []
    return lines[0], lines[1:]


def audit(sent, released: str, k: int,
          stars: object) -> tuple[list[str], int, int]:
    """``(problems, starred cells, released cells)`` of one release.

    *sent* is the CSV text that was sent, or its ``(header, rows)`` as
    lists.  An empty problem list means the release passed.
    """
    header, rows = parse(sent) if isinstance(sent, str) else sent
    out_header, out_rows = parse(released)
    found: list[str] = []
    if out_header != header:
        found.append(f"header {out_header!r} differs from {header!r}")
    if len(out_rows) != len(rows):
        found.append(f"{len(out_rows)} rows released for {len(rows)} sent")
    star_count = 0
    for index, (row, out) in enumerate(zip(rows, out_rows)):
        if len(out) != len(row):
            found.append(f"row {index}: {len(out)} cells for {len(row)}")
            continue
        for column, (cell, out_cell) in enumerate(zip(row, out)):
            if out_cell == STAR:
                star_count += 1
            elif out_cell != cell:
                found.append(
                    f"row {index} column {column}: {out_cell!r} is neither "
                    f"{cell!r} nor {STAR!r}"
                )
    classes: dict[tuple[str, ...], int] = {}
    for out in out_rows:
        key = tuple(out)
        classes[key] = classes.get(key, 0) + 1
    small = [size for size in classes.values() if size < k]
    if small:
        found.append(
            f"{len(small)} equivalence class(es) smaller than k={k} "
            f"(smallest {min(small)})"
        )
    if stars != star_count:
        found.append(f"reported stars {stars!r} but the release has "
                     f"{star_count}")
    return found, star_count, sum(len(out) for out in out_rows)
