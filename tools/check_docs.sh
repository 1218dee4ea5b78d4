#!/usr/bin/env bash
# docs-check: fail when the top-level docs drift from the tree.
#
#  1. Every backtick-quoted repo path in README.md / docs/ARCHITECTURE.md
#     (tokens starting with src/, tests/, bench/, tools/, docs/, examples/, or a
#     top-level *.md / CMakeLists.txt) must exist.
#  2. docs/ARCHITECTURE.md's paper-to-code map must mention every bench harness
#     (bench/bench_*.cc) by file name.
#  3. Every src/**/*.h must be included by some file under src/, tools/, bench/
#     or examples/ other than its own .cc: a module that only its own test
#     calls does not belong in the tree.
#
# Run from the repo root (the `docs-check` CMake target does).
set -u

fail=0
for doc in README.md docs/ARCHITECTURE.md; do
  if [ ! -f "$doc" ]; then
    echo "docs-check: missing $doc"
    fail=1
    continue
  fi
  # Backtick-quoted tokens without spaces; keep only ones that look like repo paths.
  refs=$(grep -oE '`[A-Za-z0-9_][A-Za-z0-9_./:-]*`' "$doc" | tr -d '`' |
    sed 's/:[0-9]*$//' |
    grep -E '^(src|tests|bench|tools|docs|examples)/|^(README|ROADMAP|PAPER|PAPERS|SNIPPETS|CHANGES)\.md$|^CMakeLists\.txt$' |
    sort -u)
  for ref in $refs; do
    if [ ! -e "$ref" ]; then
      echo "docs-check: $doc references missing path: $ref"
      fail=1
    fi
  done
done

if [ -f docs/ARCHITECTURE.md ]; then
  for bench in bench/bench_*.cc; do
    name=$(basename "$bench")
    if ! grep -q "$name" docs/ARCHITECTURE.md; then
      echo "docs-check: docs/ARCHITECTURE.md paper-to-code map is missing $name"
      fail=1
    fi
  done
fi

for header in $(find src -name '*.h' | sort); do
  include="${header#src/}"
  own_cc="${header%.h}.cc"
  users=$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
    "#include \"$include\"" src tools bench examples | grep -vxF "$own_cc")
  if [ -z "$users" ]; then
    echo "docs-check: $header is included by nothing outside its own .cc and tests"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs-check: OK"
fi
exit "$fail"
