"""Run the ``repro`` CLI with the layer wrappers installed.

Usage::

    python perfbench/serve_traced.py OUT.json serve [serve options...]

Behaves like ``python -m repro ...`` and, when the command returns (for
``serve``: after its SIGTERM drain), writes the recorded layer spans and
counts to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    common.use_src()
    rec = layers.Recorder()
    layers.install(rec)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(rec.export(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
