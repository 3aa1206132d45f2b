"""End-to-end benchmark of ``ecse solve FILE --algo auto --json``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload oracle-mix --seed 1 --seconds 25 --trace 0

The run builds the workload's corpus from the seed (``corpus.py``), then
solves its files in whole passes, each in a seeded order, until ``--seconds``
have elapsed (``bench.py``).  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``tracing.py``) and the tracing
overhead.  The last line of standard output is the result object; the line
before it holds the details: tail percentile and sample count, routes,
counters and digests.  Corpus files and spans go to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_ecse() -> None:
    """Import ``ecse`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ecse" / "__init__.py").is_file():
        raise ImportError(f"no ecse package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecse

    if Path(ecse.__file__).resolve().parent != (SRC / "ecse").resolve():
        raise ImportError(f"ecse imported from {ecse.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ecse end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_ecse()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.SETTINGS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, details = bench.run(args.workload, args.seed, args.seconds, args.trace == 1,
                                HERE / "work")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
