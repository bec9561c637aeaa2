"""Run one workload of the wall-clock benchmark and print its result.

Usage, from the repository root::

    python3 wallbench/run.py --workload build|serve|update --seed N \\
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The library is imported from ``src/`` of the same checkout; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for temp stores, inside the checkout
TMP_ROOT = ROOT / ".wallbench-tmp"


def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for the whole run.

    glibc raises its mmap threshold to the size of the largest mapped
    block freed so far.  So whether a decoded shard (128 KiB to 512 KiB)
    is carved from the heap or freshly mapped, page faults and all,
    depends on what the process freed before, and serving flipped
    between the two from run to run.  Pinned, every block below 32 MiB
    comes from the heap, as in a process that has run for a while.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to pin
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 256 << 20)


def _import_library() -> bool:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        print(f"wallbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return False
    if src not in Path(repro.__file__).resolve().parents:
        print(f"wallbench: repro came from {repro.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "serve", "update"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not _import_library():
        return 2
    _pin_allocator()
    from wallbench.workloads import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), TMP_ROOT)
    result.pop("unknown_spans", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
