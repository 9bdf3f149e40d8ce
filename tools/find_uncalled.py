#!/usr/bin/env python3
"""List functions declared in src/ headers that nothing calls.

For every function declared at namespace or class scope in a src/**/*.h
header, the scan counts its name, as a whole token, in every C++ file under
src/, bench/, tools/, examples/, benchmark/ and tests/, with comments,
string literals and preprocessor lines removed. The sites that declare or
define the function (in the header and in the .cpp of the same stem beside
it) are not uses; every other occurrence, the function's own files
included, is. A function with no use outside tests/ is reported as

  uncalled     used nowhere, tests included;
  tests only   used only under tests/;
  test oracle  used only under tests/, and kept on purpose: a comment line
               containing "Test oracle:" (with the reason) sits in the
               comment block directly above its declaration.

Run from anywhere:

  python3 tools/find_uncalled.py

Exits 1 when any function is uncalled or tests only, or when a "Test
oracle:" mark sits on a function that is not tests-only, so CI keeps dead
entry points and unexplained test-only code from piling up.

The match is by name, not by overload or owner: a function counts as used
when any token of the same name is. Common names therefore hide (the scan
under-reports, it never flags a used function), and so does a function that
is used but has a branch only tests reach. Constructors, destructors,
operators and overrides are skipped.
"""

import collections
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src", "bench", "tools", "examples", "benchmark", "tests"]
TEST_DIR = "tests"
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

# Declaration statements that are never free or member functions.
NOT_FUNCTION = re.compile(
    r"^\s*(using|typedef|friend|static_assert|return)\b|\boverride\b|\bfinal\b"
    r"|=\s*(delete|default)\s*$")
KEYWORDS = {"decltype", "alignas", "sizeof", "noexcept", "static_assert",
            "__attribute__", "alignof", "requires", "if", "for", "while",
            "switch", "return"}


def strip_code(text):
    """Remove comments, string/char literals and preprocessor lines."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            while i < n and text[i] != "\n":
                i += 2 if text[i] == "\\" else 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
            continue
        if c == 'R' and text.startswith('R"', i):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i)
                i = n if end < 0 else end + len(m.group(1)) + 2
                out.append('""')
                continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            # A digit separator (1'000) is not a char literal.
            if c == "'" and i > 0 and text[i - 1].isalnum():
                out.append(c)
                i += 1
                continue
            out.append(c + c)
            i = j + 1
            continue
        out.append(c)
        if c == "\n":
            at_line_start = True
        elif not c.isspace():
            at_line_start = False
        i += 1
    return "".join(out)


def drop_templates(stmt):
    """Remove `template <...>` heads (angle brackets balanced)."""
    while True:
        m = re.search(r"\btemplate\s*<", stmt)
        if not m:
            return stmt
        depth, j = 1, m.end()
        while j < len(stmt) and depth:
            depth += {"<": 1, ">": -1}.get(stmt[j], 0)
            j += 1
        stmt = stmt[:m.start()] + " " + stmt[j:]


def function_name(stmt, owner):
    """Name of the function a declaration statement declares, else None."""
    stmt = drop_templates(stmt).strip()
    if not stmt or NOT_FUNCTION.search(stmt):
        return None
    paren = stmt.find("(")
    if paren < 0 or "=" in stmt[:paren]:
        return None
    m = re.search(r"(~?\b[A-Za-z_]\w*)\s*$", stmt[:paren])
    if not m:
        return None
    name = m.group(1)
    head = stmt[:m.start()]
    if (name.startswith("~") or name in KEYWORDS or name == owner or
            re.search(r"\boperator\s*$", head) or not head.strip()):
        return None
    return name


def oracle_marks(text):
    """Functions whose declaration directly follows a comment block holding
    a "Test oracle:" line (the name is the first `name(` on that line)."""
    names = set()
    marked = False
    for line in text.splitlines():
        if line.strip().startswith("//"):
            marked = marked or "Test oracle:" in line
            continue
        if marked:
            m = re.search(r"(\w+)\s*\(", line)
            if m:
                names.add(m.group(1))
        marked = False
    return names


def declared_functions(text):
    """Declaration and definition sites per function name at namespace or
    class scope (a qualified `Owner::name(` definition counts as `name`)."""
    code = strip_code(text)
    names = collections.Counter()
    scopes = []  # (kind, owner name) per open brace.
    stmt = []
    for c in code:
        if c == "{":
            s = "".join(stmt)
            kind, owner = "block", None
            if re.search(r"\bnamespace\b", s) or re.search(r'\bextern\s*""', s):
                kind = "ns"
            elif re.search(r"\benum\b", s):
                kind = "block"
            else:
                m = re.search(r"\b(class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?"
                              r"(\w+)[^(]*$", s)
                if m:
                    kind, owner = "class", m.group(2)
            if kind == "block" and all(k in ("ns", "class") for k, _ in scopes):
                enclosing = scopes[-1][1] if scopes else None
                name = function_name(s, enclosing)
                if name:
                    names[name] += 1
            scopes.append((kind, owner))
            stmt = []
        elif c == "}":
            if scopes:
                scopes.pop()
            stmt = []
        elif c == ";":
            if all(k in ("ns", "class") for k, _ in scopes):
                enclosing = scopes[-1][1] if scopes else None
                name = function_name("".join(stmt), enclosing)
                if name:
                    names[name] += 1
            stmt = []
        elif c == ":" and scopes and scopes[-1][0] == "class" and \
                re.fullmatch(r"\s*(public|private|protected)\s*", "".join(stmt)):
            stmt = []
        else:
            stmt.append(c)
    return names


def main():
    uses = {}
    for d in SCAN_DIRS:
        for p in sorted((ROOT / d).rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                text = strip_code(p.read_text(encoding="utf-8"))
                uses[p] = collections.Counter(re.findall(r"[A-Za-z_]\w*", text))

    uncalled, tests_only, oracles, stale = [], [], [], []
    for header in sorted((ROOT / "src").rglob("*.h")):
        text = header.read_text(encoding="utf-8")
        sites = declared_functions(text)
        marks = oracle_marks(text)
        source = header.with_suffix(".cpp")
        defined = (declared_functions(source.read_text(encoding="utf-8"))
                   if source.is_file() else collections.Counter())
        for name in sorted(sites):
            entry = f"{header.relative_to(ROOT)}: {name}"
            in_src = sum(c[name] for p, c in uses.items()
                         if p.relative_to(ROOT).parts[0] != TEST_DIR)
            in_tests = sum(c[name] for p, c in uses.items()
                           if p.relative_to(ROOT).parts[0] == TEST_DIR)
            if in_src > sites[name] + defined[name] or not in_tests:
                if name in marks:
                    stale.append(entry)
                if in_src <= sites[name] + defined[name]:
                    uncalled.append(entry)
            else:
                (oracles if name in marks else tests_only).append(entry)
        stale += [f"{header.relative_to(ROOT)}: {name}"
                  for name in sorted(marks - set(sites))]

    for title, entries in (("uncalled", uncalled), ("tests only", tests_only),
                           ("test oracles", oracles),
                           ("stale oracle marks", stale)):
        print(f"{title} ({len(entries)}):")
        for e in entries:
            print(f"  {e}")
    return 1 if uncalled or tests_only or stale else 0


if __name__ == "__main__":
    sys.exit(main())
