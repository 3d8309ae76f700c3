#!/usr/bin/env python3
"""Layering check for the sanperf library (src/).

The library's modules stack in one order, each built only on the ones
below it:

    stats, des, topo, net, runtime, fd, consensus, faults, san, sanmodels, core

A file in module M may include a header of module L only when L is M or
sits below M in that list. The leaf headers core/audit.hpp and
core/json.hpp depend on nothing above them and may be included from
anywhere. An upward include ties a lower layer to one above it (the
failure detector to the consensus protocols, say), which this check
reports. Run from anywhere:

    python3 tools/layering_check.py [--root REPO_ROOT]

Exit status 0 = clean, 1 = findings (one "file:line: a -> b" per line),
2 = usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ORDER = ["stats", "des", "topo", "net", "runtime", "fd", "consensus", "faults", "san",
         "sanmodels", "core"]
LEAVES = {"core/audit.hpp", "core/json.hpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_file(path: pathlib.Path, rel: str) -> list[str]:
    module = rel.split("/", 1)[0]
    rank = ORDER.index(module)
    findings = []
    for idx, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        match = INCLUDE.match(line)
        if not match:
            continue
        target = match.group(1)
        target_module = target.split("/", 1)[0]
        if target in LEAVES or target_module not in ORDER:
            continue
        if ORDER.index(target_module) > rank:
            findings.append(f"{rel}:{idx + 1}: {rel} -> {target}")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the tree this script lives in)")
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"layering_check: no src/ under {args.root}", file=sys.stderr)
        return 2

    findings = []
    files = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".cpp", ".hpp"}:
            continue
        rel = path.relative_to(src).as_posix()
        if rel.split("/", 1)[0] not in ORDER:
            print(f"layering_check: {rel} is in no known module", file=sys.stderr)
            return 2
        files += 1
        findings.extend(check_file(path, rel))

    for finding in findings:
        print(finding)
    if findings:
        print(f"layering_check: {len(findings)} upward include(s)", file=sys.stderr)
        return 1
    print(f"layering_check: clean ({files} files, order {' < '.join(ORDER)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
