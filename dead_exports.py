#!/usr/bin/env python3
"""Dead-export check: list every column-0 `val` in lib/*/*.mli that
nothing references, and exit 1 if there is any.

A `val name` of module M counts as referenced when one of these holds:
  - `M.name` appears in a source file under lib/ bench/ bin/ test/
    perfbench/ examples/ (`Lib.M.name` included);
  - the bare `name` appears in M's own .ml more than once (so beyond
    its definition);
  - the bare `name` appears in a file that opens M (`open M`,
    `let open M in`, `include M` or a local `M.( ... )`).

Run from the repository root: python3 dead_exports.py
"""
import collections
import glob
import os
import re
import sys

DIRS = ["lib", "bench", "bin", "test", "perfbench", "examples"]
VAL = re.compile(r"^val ([a-z_][\w']*)", re.M)
QUAL = re.compile(r"\b([A-Z][\w']*)\.([a-z_][\w']*)")
BARE = re.compile(r"(?<![\w.'])([a-z_][\w']*)")
OPEN = re.compile(r"\b(?:open!?|include)\s+(?:[A-Z][\w']*\.)*([A-Z][\w']*)")
LOCAL_OPEN = re.compile(r"\b([A-Z][\w']*)\.\(")


def main():
    qualified = set()
    files = {}
    for d in DIRS:
        for path in glob.glob(os.path.join(d, "**", "*.ml*"), recursive=True):
            if not path.endswith((".ml", ".mli")):
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            qualified.update(QUAL.findall(text))
            opened = set(OPEN.findall(text)) | set(LOCAL_OPEN.findall(text))
            files[path] = (collections.Counter(BARE.findall(text)), opened)
    findings = []
    for mli in sorted(glob.glob("lib/*/*.mli")):
        mod = os.path.basename(mli)[:-4].capitalize()
        own = files.get(mli[:-1], (collections.Counter(), set()))[0]
        openers = [bare for bare, opened in files.values() if mod in opened]
        with open(mli, encoding="utf-8") as f:
            names = VAL.findall(f.read())
        for name in names:
            if (mod, name) in qualified or own[name] > 1:
                continue
            if any(bare[name] for bare in openers):
                continue
            findings.append(f"{mli}: {mod}.{name}")
    for line in findings:
        print(line)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
