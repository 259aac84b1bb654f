#!/usr/bin/env python3
"""Count the workspace's non-test Rust lines, per crate and in total.

Usage: loc.py [REPO_ROOT]

Counts every physical line (code, comments and blanks alike) of the `.rs`
files under the root `src/` and each `crates/*/src`, leaving out:

- `crates/compat` (the offline stand-ins for external crates);
- any file below a directory named `tests`;
- each item marked `#[cfg(test)]`, from the attribute line through the
  line that closes the item's braces (or its `;`, for `mod tests;`).

Braces inside comments, string, raw-string and char literals are skipped,
so a `"{"` in a test's format string does not end the item early. The
figure is a record for change notes (parent total against change total),
not a gate: the script always exits 0 on a readable tree.
"""

import os
import sys

CFG_TEST = "#[cfg(test)]"


def item_end(text, start):
    """Index just past the item that begins at `start`: its `;` or the
    brace that balances its first `{`, skipping comments and literals."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            i = text.find("\n", i)
            if i < 0:
                return n
            continue
        if text.startswith("/*", i):
            nest, i = 1, i + 2
            while i < n and nest:
                if text.startswith("/*", i):
                    nest, i = nest + 1, i + 2
                elif text.startswith("*/", i):
                    nest, i = nest - 1, i + 2
                else:
                    i += 1
            continue
        if c == "r" and i + 1 < n and text[i + 1] in '#"' and not text[i - 1].isalnum():
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j < n and text[j] == '"':
                close = '"' + "#" * (j - i - 1)
                end = text.find(close, j + 1)
                i = n if end < 0 else end + len(close)
                continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            if i + 1 < n and text[i + 1] == "\\":
                end = text.find("'", i + 2)
                i = n if end < 0 else end + 1
            elif i + 2 < n and text[i + 2] == "'":
                i += 3
            else:
                i += 1  # a lifetime
            continue
        if c == ";" and depth == 0:
            return i + 1
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def non_test_lines(text):
    """Physical lines of `text` outside its `#[cfg(test)]` items."""
    total = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    excluded = 0
    pos = 0
    while True:
        at = text.find(CFG_TEST, pos)
        if at < 0:
            break
        line_start = text.rfind("\n", 0, at) + 1
        if text[line_start:at].lstrip().startswith("//"):
            pos = at + len(CFG_TEST)
            continue
        end = item_end(text, at + len(CFG_TEST))
        excluded += text.count("\n", line_start, end) + 1
        pos = end
    return total - excluded


def rust_files(src):
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "tests")
        for name in sorted(files):
            if name.endswith(".rs"):
                yield os.path.join(directory, name)


def count_src(src):
    lines = 0
    for path in rust_files(src):
        with open(path, encoding="utf-8") as handle:
            lines += non_test_lines(handle.read())
    return lines


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    rows = []
    if os.path.isdir(os.path.join(root, "src")):
        rows.append(("(root)", count_src(os.path.join(root, "src"))))
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)) if os.path.isdir(crates) else []:
        src = os.path.join(crates, name, "src")
        if name != "compat" and os.path.isdir(src):
            rows.append((name, count_src(src)))
    width = max([len(name) for name, _ in rows] + [5])
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>7}")
    print(f"{'total':<{width}}  {sum(lines for _, lines in rows):>7}")


if __name__ == "__main__":
    main()
