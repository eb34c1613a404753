"""Report how two sets of golden CLI outputs differ.

    python scripts/golden_diff.py OLD NEW

OLD and NEW are directories written by ``scripts/golden_outputs.py`` (for
example from the base commit and from a change).  For every dataset that
changed, a CSV or the ``data`` columns of a JSON output, it prints the row
counts before and after and the largest absolute difference over the rows
and columns both hold.  Any other changed file (a sidecar) is only named, as
is a file that one side lacks.  It exits 1 when any file differs, like diff.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys


def _cell(value):
    """A number as a float; a label (the oracle check's case names) as it is."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def read_dataset(path: str) -> tuple[list[str], list[list]] | None:
    """The header and rows of a CSV or of a JSON output's data, else None."""
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        return header, [[_cell(cell) for cell in row] for row in rows]
    if path.endswith(".json") and not path.endswith(".meta.json"):
        with open(path, encoding="utf-8") as f:
            data = json.load(f).get("data")
        if isinstance(data, dict):
            header = sorted(data)
            rows = zip(*(data[h] for h in header))
            return header, [[_cell(cell) for cell in row] for row in rows]
    return None


def _change(x, y) -> float:
    """|x - y| of two cells: 0 for equal cells or two NaNs, inf for a changed label."""
    if x == y:
        return 0.0
    if isinstance(x, str) or isinstance(y, str):
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    change = abs(x - y)
    return math.inf if math.isnan(change) else change


def largest_change(old, new) -> float:
    """The largest _change over the rows both hold, in same-named columns."""
    (old_header, old_rows), (new_header, new_rows) = old, new
    pairs = [(i, new_header.index(h)) for i, h in enumerate(old_header) if h in new_header]
    return max((_change(a[i], b[j]) for a, b in zip(old_rows, new_rows) for i, j in pairs),
               default=0.0)


def compare(old_dir: str, new_dir: str) -> list[str]:
    """One line per file that differs between the two directories."""
    old_names, new_names = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    lines = [f"{name}: only in {old_dir}" for name in sorted(old_names - new_names)]
    lines += [f"{name}: only in {new_dir}" for name in sorted(new_names - old_names)]
    for name in sorted(old_names & new_names):
        old_path, new_path = os.path.join(old_dir, name), os.path.join(new_dir, name)
        with open(old_path, "rb") as f, open(new_path, "rb") as g:
            if f.read() == g.read():
                continue
        old, new = read_dataset(old_path), read_dataset(new_path)
        if old is None or new is None:
            lines.append(f"{name}: changed")
            continue
        line = (f"{name}: rows {len(old[1])} -> {len(new[1])}, largest change "
                f"{largest_change(old, new):.3g} over {min(len(old[1]), len(new[1]))} shared rows")
        if old[0] != new[0]:
            line += f", header {','.join(old[0])} -> {','.join(new[0])}"
        lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/golden_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = compare(*argv)
    print("\n".join(lines) if lines else "no file differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
