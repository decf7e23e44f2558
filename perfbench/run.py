"""Entry point of the hlgt benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pattern_n5 --seed 1 --seconds 25 --trace 0

The benchmark times the program in ``src/hlgt`` of the same checkout.  It
refuses to run (exit 2, no result line) when that source tree is missing,
rather than fall back to some other installed copy of ``hlgt``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "hlgt" / "__init__.py").is_file():
        print(f"error: no hlgt source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hlgt_bench

    return hlgt_bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
