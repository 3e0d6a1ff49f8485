#!/usr/bin/env python3
"""Documentation checks run by the CI `docs` job (and usable locally).

Four checks, all dependency-free:

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


def main():
    errors = []
    check_links(errors)
    check_bench_artifacts(errors)
    check_status_codes(errors)
    check_bench_names(errors)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    count = len(tracked_markdown())
    print(
        f"docs check passed: {count} markdown files, "
        "links, artifact schemas, status codes and benchmark names OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
