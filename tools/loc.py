#!/usr/bin/env python3
"""Count non-blank, non-comment Rust lines per workspace crate, at a git
revision and in the working tree.

Usage: tools/loc.py [REV] [--crate DIR ...]

For every workspace member (or only the `--crate` directories given,
e.g. `--crate crates/core`), counts the `.rs` files under its `src/`
and `tests/`. A file under `src/` is split at its first `#[cfg(test)]`
line: lines before it are non-test, lines from it on are test. Files
under `tests/` are test. Blank lines and `//` comment lines (including
doc comments) are not counted. REV defaults to HEAD.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout


def members():
    """Workspace member directories, as listed in the root Cargo.toml."""
    with open(os.path.join(ROOT, "Cargo.toml")) as f:
        text = f.read()
    block = re.search(r"^members\s*=\s*\[(.*?)\]", text, re.S | re.M)
    return re.findall(r'"([^"]+)"', block.group(1))


def count(text, is_test_file):
    """(non-test, test) counted lines of one file."""
    counts = [0, 0]
    in_test = is_test_file
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#[cfg(test)]"):
            in_test = True
        if line and not line.startswith("//"):
            counts[in_test] += 1
    return counts


def files_at(rev, crate):
    out = git("ls-tree", "-r", "--name-only", rev, "--", f"{crate}/src", f"{crate}/tests")
    for path in out.split():
        if path.endswith(".rs"):
            yield path, git("show", f"{rev}:{path}")


def files_in_tree(crate):
    for sub in ("src", "tests"):
        top = os.path.normpath(os.path.join(ROOT, crate, sub))
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    with open(path) as f:
                        yield os.path.relpath(path, ROOT), f.read()


def tally(files, crate):
    total = [0, 0]
    tests_dir = os.path.normpath(os.path.join(crate, "tests")) + os.sep
    for path, text in files:
        nontest, test = count(text, os.path.normpath(path).startswith(tests_dir))
        total[0] += nontest
        total[1] += test
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--crate", action="append", help="crate directory to include")
    args = parser.parse_args()
    crates = args.crate or members()
    row = "{:<22} {:>8} {:>8} {:>7}   {:>8} {:>8} {:>7}"
    print(row.format("crate", "non-test", "tree", "delta", "test", "tree", "delta"))
    sums = [0, 0, 0, 0]
    for crate in crates:
        crate = os.path.normpath(crate)
        old = tally(files_at(args.rev, crate), crate)
        new = tally(files_in_tree(crate), crate)
        cells = [old[0], new[0], old[1], new[1]]
        sums = [a + b for a, b in zip(sums, cells)]
        print(row.format(crate, old[0], new[0], f"{new[0] - old[0]:+d}",
                         old[1], new[1], f"{new[1] - old[1]:+d}"))
    print(row.format("total", sums[0], sums[1], f"{sums[1] - sums[0]:+d}",
                     sums[2], sums[3], f"{sums[3] - sums[2]:+d}"))


if __name__ == "__main__":
    sys.exit(main())
