#!/usr/bin/env python3
"""Build the showcase instances, verify them, and write DOT files.

Usage:
    python scripts/render_gallery.py [--out-dir gallery]
"""

import argparse
import sys
from pathlib import Path

import totalprime as tp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="gallery")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for inst in tp.GALLERY:
        result = tp.construct(inst.spec, inst.scheme)
        report = tp.verify_total_prime(result.graph, result.labeling)
        status = "ok" if report.valid else "INVALID"
        if not report.valid:
            failures += 1
        path = out_dir / f"{inst.name}.dot"
        path.write_text(tp.to_dot(result.graph, result.labeling, name=inst.name))
        print(f"{inst.name:<18} {result.graph.n:>3} vertices {result.graph.m:>3} edges  {status}  -> {path}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
