#!/usr/bin/env python3
"""Documentation checks run by the CI `docs` job (and usable locally).

Eight checks, all dependency-free:

 1. Markdown link integrity: every relative link target in every tracked
    *.md file must resolve to an existing file or directory (anchors are
    stripped; http(s)/mailto links are skipped — CI stays hermetic).
 2. Benchmark-artifact coverage: every BENCH_*.json artifact uploaded by
    .github/workflows/ci.yml must be named in docs/BENCHMARKS.md, so no
    artifact lands in CI without a documented schema.
 3. Status-code coverage: the README "Serving" error-code table must match
    the StatusCode enum in src/support/status.hpp exactly — every code
    documented with its wire value, no phantom rows, both directions.
 4. Benchmark names: every BM_* name in README.md, docs/**/*.md and
    scripts/*.sh must name a benchmark registered with BENCHMARK(...) in
    bench/*.cpp, so a deleted or renamed benchmark cannot leave a stale
    reference behind. A name followed by `*` or `.*` (a filter pattern)
    only has to be a prefix of one; a name followed by a regex group of
    plain alternatives, as in `BM_LeafSchedule(Warm|Cold)`, must name a
    benchmark with each alternative appended.
 5. Test labels: every ctest label named after -L or -LE in README.md,
    docs/**/*.md, .claude/skills/**/*.md, scripts/*.sh and
    .github/workflows/ci.yml must be one that tests/CMakeLists.txt assigns
    through PROPERTY LABELS, so a doc cannot keep naming a dropped label
    (ctest would silently run zero tests). An alternation such as
    'concurrency|compact' is split on `|` and each label checked.
 6. Code names: every backticked CamelCase name in README.md and
    docs/**/*.md, optionally qualified as `Type::member`, must occur as an
    identifier (each `::` part) in a source file under src/, tests/,
    examples/, bench/ or perfbench/src, so a deleted or renamed class,
    struct or option cannot leave a stale reference behind.
 7. Fault points: every name in the registry comment of
    src/support/fault_injection.hpp must occur as a string literal in
    src/ outside that header (a call site, or the literal a caller hands
    to a writer that fires it) and be armed by a test under tests/
    (fault::arm, ScopedFault or arm_from_spec), and every literal passed
    to fault::fired in src/ must be registered, so the list can neither
    keep a dead point nor miss a live one.
 8. Parameter-file directives: every directive named as `.name:...` in
    README.md, docs/**/*.md or .claude/skills/**/*.md, or as .name:... in
    rsg_cli's usage text (kUsage in examples/rsg_cli.cpp), must be read by
    a directive("name") call in src/, so a doc cannot advertise a
    directive the pipeline ignores.

Exits non-zero with one line per violation.
"""

import glob
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Matches [text](target) but not images with URLs or footnote syntax; good
# enough for this repo's plain markdown.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def tracked_markdown():
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=REPO, capture_output=True, text=True, check=True
    )
    return [line for line in out.stdout.splitlines() if line]


def check_links(errors):
    for md in tracked_markdown():
        base = os.path.dirname(os.path.join(REPO, md))
        with open(os.path.join(REPO, md), encoding="utf-8") as f:
            text = f.read()
        # Skip fenced code blocks: their bracket syntax is not a link.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                errors.append(f"{md}: broken link '{target}'")


def check_bench_artifacts(errors):
    ci_path = os.path.join(REPO, ".github", "workflows", "ci.yml")
    with open(ci_path, encoding="utf-8") as f:
        ci = f.read()
    artifacts = sorted(set(re.findall(r"(BENCH_\w+\.json)", ci)))
    if not artifacts:
        errors.append("ci.yml: no BENCH_*.json artifacts found (check the regex)")
        return
    benchmarks_md = os.path.join(REPO, "docs", "BENCHMARKS.md")
    if not os.path.exists(benchmarks_md):
        errors.append("docs/BENCHMARKS.md is missing")
        return
    with open(benchmarks_md, encoding="utf-8") as f:
        documented = f.read()
    for artifact in artifacts:
        if artifact not in documented:
            errors.append(f"docs/BENCHMARKS.md: CI artifact '{artifact}' is undocumented")


def check_status_codes(errors):
    """README's error-code table and the StatusCode enum must agree exactly."""
    header_path = os.path.join(REPO, "src", "support", "status.hpp")
    with open(header_path, encoding="utf-8") as f:
        header = f.read()
    # kCancelled = 1, ...  +  case StatusCode::kCancelled: return "CANCELLED";
    values = dict(re.findall(r"(k\w+) = (\d+),", header))
    names = dict(re.findall(r'case StatusCode::(k\w+):\s*return "([A-Z_]+)";', header))
    if not values or not names:
        errors.append("status.hpp: could not parse StatusCode enum or its name switch")
        return
    enum_codes = {}  # wire-visible UPPER_SNAKE name -> numeric value
    for enumerator, value in values.items():
        if enumerator not in names:
            errors.append(f"status.hpp: {enumerator} has no status_code_name case")
            continue
        enum_codes[names[enumerator]] = int(value)

    readme_path = os.path.join(REPO, "README.md")
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    # Table rows of the form: | `NAME` | N | ...
    rows = re.findall(r"^\|\s*`([A-Z_]+)`\s*\|\s*(\d+)\s*\|", readme, flags=re.M)
    doc_codes = {name: int(value) for name, value in rows}
    if not doc_codes:
        errors.append("README.md: no error-code table rows found (expected | `NAME` | N | ...)")
        return
    for name, value in sorted(enum_codes.items(), key=lambda kv: kv[1]):
        if name not in doc_codes:
            errors.append(f"README.md: status code {name} ({value}) is undocumented")
        elif doc_codes[name] != value:
            errors.append(
                f"README.md: {name} documented with value {doc_codes[name]}, enum says {value}"
            )
    for name in sorted(doc_codes):
        if name not in enum_codes:
            errors.append(f"README.md: documents status code {name}, which is not in status.hpp")


# BM_Name, optionally followed by a (A|B|...) group and/or a * or .* wildcard.
BENCH_REF_RE = re.compile(r"\b(BM_\w+)(?:\(([\w|]+)\))?(\.?\*)?")


def check_bench_names(errors):
    """Every BM_* name the docs and scripts mention is a registered benchmark."""
    defined = set()
    for path in sorted(glob.glob(os.path.join(REPO, "bench", "*.cpp"))):
        with open(path, encoding="utf-8") as f:
            defined.update(re.findall(r"\bBENCHMARK\((BM_\w+)", f.read()))
    if not defined:
        errors.append("bench/*.cpp: no BENCHMARK(BM_...) registrations found (check the regex)")
        return
    sources = [os.path.join(REPO, "README.md")]
    sources += glob.glob(os.path.join(REPO, "docs", "**", "*.md"), recursive=True)
    sources += glob.glob(os.path.join(REPO, "scripts", "*.sh"))
    for path in sorted(sources):
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in BENCH_REF_RE.finditer(text):
            base, group, wildcard = match.groups()
            names = [base + alt for alt in group.split("|")] if group else [base]
            for name in names:
                if wildcard:
                    known = any(d.startswith(name) for d in defined)
                else:
                    known = name in defined
                if not known:
                    errors.append(f"{rel}: '{match.group(0)}' names no benchmark in bench/*.cpp")


# -L / -LE followed by a label or a quoted alternation of labels.
LABEL_REF_RE = re.compile(r"(?<![\w-])-LE?\s+['\"]?([\w|]+)")


def check_test_labels(errors):
    """Every ctest label the docs, scripts and CI name is one the suites carry."""
    cmake_path = os.path.join(REPO, "tests", "CMakeLists.txt")
    with open(cmake_path, encoding="utf-8") as f:
        defined = set(re.findall(r'PROPERTY\s+LABELS\s+"?(\w+)"?', f.read()))
    if not defined:
        errors.append("tests/CMakeLists.txt: no PROPERTY LABELS found (check the regex)")
        return
    sources = [os.path.join(REPO, "README.md"),
               os.path.join(REPO, ".github", "workflows", "ci.yml")]
    sources += glob.glob(os.path.join(REPO, "docs", "**", "*.md"), recursive=True)
    sources += glob.glob(os.path.join(REPO, ".claude", "skills", "**", "*.md"), recursive=True)
    sources += glob.glob(os.path.join(REPO, "scripts", "*.sh"))
    for path in sorted(sources):
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in LABEL_REF_RE.finditer(text):
            for label in match.group(1).split("|"):
                if label and label not in defined:
                    errors.append(f"{rel}: ctest label '{label}' is not assigned in "
                                  "tests/CMakeLists.txt")


# A whole backticked span that is one CamelCase name, optionally followed
# by ::member parts: `OrderedProfile`, `FlatOptions::generation_threads`.
CODE_NAME_RE = re.compile(r"`([A-Z][a-z][A-Za-z0-9_]*(?:::[A-Za-z_]\w*)*)`")
CODE_DIRS = ["src", "tests", "examples", "bench", os.path.join("perfbench", "src")]
CODE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")


def check_code_names(errors):
    """Every CamelCase code name the docs mention is an identifier in the code."""
    identifiers = set()
    for directory in CODE_DIRS:
        for base, _, files in os.walk(os.path.join(REPO, directory)):
            for name in files:
                if name.endswith(CODE_SUFFIXES):
                    with open(os.path.join(base, name), encoding="utf-8") as f:
                        identifiers.update(re.findall(r"\w+", f.read()))
    if not identifiers:
        errors.append("no source files found under " + ", ".join(CODE_DIRS))
        return
    sources = [os.path.join(REPO, "README.md")]
    sources += glob.glob(os.path.join(REPO, "docs", "**", "*.md"), recursive=True)
    for path in sorted(sources):
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for name in sorted(set(CODE_NAME_RE.findall(text))):
            if not all(part in identifiers for part in name.split("::")):
                errors.append(f"{rel}: `{name}` names nothing in " + ", ".join(CODE_DIRS))


FAULT_HEADER = os.path.join("src", "support", "fault_injection.hpp")
# A registry line: "//   name.point    what it does".
FAULT_ENTRY_RE = re.compile(r"^//\s+([a-z_]+\.[a-z_]+)\s{2,}\S", re.M)
STRING_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
FIRED_RE = re.compile(r'\bfault::fired\(\s*"([^"]*)"')
ARMED_RE = re.compile(r'\b(?:arm|arm_from_spec|ScopedFault\s+\w+)\(\s*"([^"]*)"')


def source_texts(directory):
    texts = {}
    for base, _, files in os.walk(os.path.join(REPO, directory)):
        for name in files:
            if name.endswith(CODE_SUFFIXES):
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as f:
                    texts[os.path.relpath(path, REPO)] = f.read()
    return texts


def check_fault_points(errors):
    """The fault-point registry, the call sites and the tests agree."""
    with open(os.path.join(REPO, FAULT_HEADER), encoding="utf-8") as f:
        header = f.read()
    registry = header.split("Registered fault points", 1)[-1].split("#pragma once", 1)[0]
    registered = FAULT_ENTRY_RE.findall(registry)
    if not registered:
        errors.append(f"{FAULT_HEADER}: no registered fault points found (check the regex)")
        return
    src = source_texts("src")
    literals = set()
    for path, text in src.items():
        if path != FAULT_HEADER:
            literals.update(STRING_RE.findall(text))
    armed = set()
    for text in source_texts("tests").values():
        for literal in ARMED_RE.findall(text):
            # arm_from_spec's grammar: name[=skip[:count[:param]]], comma-joined.
            armed.update(part.split("=", 1)[0] for part in literal.split(","))
    for name in registered:
        if name not in literals:
            errors.append(f"{FAULT_HEADER}: fault point '{name}' is not used in src/")
        if name not in armed:
            errors.append(f"{FAULT_HEADER}: fault point '{name}' is armed by no test in tests/")
    for path, text in sorted(src.items()):
        for name in FIRED_RE.findall(text):
            if name not in registered:
                errors.append(f"{path}: fault::fired(\"{name}\") is not in the registry")


DOC_DIRECTIVE_RE = re.compile(r"`\.([a-z_]+):[^`]*`")
USAGE_DIRECTIVE_RE = re.compile(r"(?<![\w./])\.([a-z_]+):")
DIRECTIVE_READ_RE = re.compile(r'\bdirective\(\s*"([a-z_]+)"\s*\)')
CLI_SOURCE = os.path.join("examples", "rsg_cli.cpp")


def check_directives(errors):
    """Every directive the docs and rsg_cli's usage name is read in src/."""
    read = set()
    for text in source_texts("src").values():
        read.update(DIRECTIVE_READ_RE.findall(text))
    if not read:
        errors.append('src/: no directive("...") reads found (check the regex)')
        return
    named = []  # (where, directive)
    sources = [os.path.join(REPO, "README.md")]
    sources += glob.glob(os.path.join(REPO, "docs", "**", "*.md"), recursive=True)
    sources += glob.glob(os.path.join(REPO, ".claude", "skills", "**", "*.md"), recursive=True)
    for path in sorted(sources):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        named += [(os.path.relpath(path, REPO), d) for d in DOC_DIRECTIVE_RE.findall(text)]
    with open(os.path.join(REPO, CLI_SOURCE), encoding="utf-8") as f:
        usage = re.search(r"kUsage\[\]\s*=(.*?);\n", f.read(), flags=re.S)
    if usage is None:
        errors.append(f"{CLI_SOURCE}: kUsage not found (check the regex)")
    else:
        named += [(f"{CLI_SOURCE} usage", d) for d in USAGE_DIRECTIVE_RE.findall(usage.group(1))]
    for where, directive in sorted(set(named)):
        if directive not in read:
            errors.append(f"{where}: directive '.{directive}:' is read by no "
                          f'directive("{directive}") call in src/')


def main():
    errors = []
    check_links(errors)
    check_bench_artifacts(errors)
    check_status_codes(errors)
    check_bench_names(errors)
    check_test_labels(errors)
    check_code_names(errors)
    check_fault_points(errors)
    check_directives(errors)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    count = len(tracked_markdown())
    print(
        f"docs check passed: {count} markdown files, "
        "links, artifact schemas, status codes, benchmark names, test labels, code names, "
        "fault points and directives OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
