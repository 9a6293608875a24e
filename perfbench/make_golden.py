"""Regenerate ``golden/measured.json`` from the current program.

Usage::

    python perfbench/make_golden.py

Enumerates the deduplicated union of the Table II and ``fig1 --full``
design points in generation order, measures each one serially with no
artifact cache, and records where each point comes from plus its
``Measured.to_json()`` text.  Run it only at a commit whose outputs are
the reference: the benchmark fails every op that differs from this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    common.use_src()
    from repro.resilience.runner import SweepRunner

    from sweep_cold import resolve, union_points

    pairs, lists = union_points()
    points: dict[str, list] = {}
    for key, designs in pairs.items():
        for index, design in enumerate(designs):
            points.setdefault(design.name, ["table2", key, index])
    for tool, items in lists.items():
        for index in range(len(items)):
            design = resolve(pairs, lists, "fig1", tool, index)
            points.setdefault(design.name, ["fig1", tool, index])
    runner = SweepRunner()
    measured = {}
    for name, where in points.items():
        result = runner.measure(resolve(pairs, lists, *where))
        if not result.ok or not result.measured.bit_exact:
            raise SystemExit(f"{name}: {result.reason or 'not bit_exact'}")
        measured[name] = result.measured.to_json()
        print(f"{len(measured):3d}/{len(points)} {name}", file=sys.stderr)
    common.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(common.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"points": points, "measured": measured}, handle,
                  indent=1, sort_keys=False)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
