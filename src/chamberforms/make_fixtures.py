"""Write the fixture inputs exercised by the test suite and the docs.

Usage: python -m chamberforms.make_fixtures [OUTDIR]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import vamos
from .arrangement import Arrangement, Hyperplane


def example13_C() -> Arrangement:
    """Two horizontal lines, one vertical, one diagonal; bounded triangles."""
    return Arrangement(2, [
        Hyperplane.make("H1", ["0", "1"], "1"),
        Hyperplane.make("H2", ["0", "1"], "-1"),
        Hyperplane.make("H3", ["1", "0"], "0"),
        Hyperplane.make("H4", ["-1", "1"], "0"),
    ])


def example13_Cprime() -> Arrangement:
    """Same lines with one horizontal translated past the diagonal crossing."""
    return Arrangement(2, [
        Hyperplane.make("H1", ["0", "1"], "-2"),
        Hyperplane.make("H2", ["0", "1"], "-1"),
        Hyperplane.make("H3", ["1", "0"], "0"),
        Hyperplane.make("H4", ["-1", "1"], "0"),
    ])


def line_points(n: int) -> Arrangement:
    """n+1 points -i on the real line; n bounded segments."""
    return Arrangement(1, [Hyperplane.make(f"H{i}", ["1"], str(-i))
                           for i in range(1, n + 2)])


def cyclic_r3(n: int) -> Arrangement:
    """Planes x0 + t x1 + t^2 x2 = t^3 for t = 1..n.

    Generic: three planes meet where a cubic in t has their three roots, so
    no fourth plane passes through that point.
    """
    return Arrangement(3, [Hyperplane.make(f"H{t}", ["1", str(t), str(t * t)],
                                           str(t ** 3))
                           for t in range(1, n + 1)])


FIXTURES = {
    "example13-C.json": lambda: example13_C().to_json(),
    "example13-Cprime.json": lambda: example13_Cprime().to_json(),
    "line-n5.json": lambda: line_points(5).to_json(),
    "line-n10.json": lambda: line_points(10).to_json(),
    "cyclic-r3-n7.json": lambda: cyclic_r3(7).to_json(),
    "vamos.json": vamos.fixture_json,
}


def write_fixtures(outdir: Path) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in FIXTURES.items():
        path = outdir / name
        path.write_text(json.dumps(build(), indent=2) + "\n")
        written.append(path)
    return written


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    outdir = Path(args[0]) if args else Path("fixtures")
    for path in write_fixtures(outdir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
