#!/usr/bin/env bash
# Fail if a catalog id registered in src/harness/catalog.cpp is not
# documented in docs/CATALOG.md (as a backticked `id`). Reads the one
# registration table, kEntries: every row is `single<T>("id", ...)` or
# `shardable<T>("id", ...)`, and every shardable row must also be
# documented with its `/shN`-suffixed form (e.g. `singly/ebr/shN`).
# Run by the CI docs job; runnable locally from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scan only the kEntries array, joined onto one line so a clang-format
# wrap between a row's maker and its id can never silently drop an id
# from enforcement. Output: one "<kind> <id>" pair per row.
rows=$(sed -n '/kEntries\[\]/,/^};/p' src/harness/catalog.cpp |
       tr '\n' ' ' |
       grep -oE '\b(single|shardable)<[^>]*>\( *"[a-z0-9_/]+"' |
       sed -E 's/^(single|shardable)<[^>]*>\( *"([a-z0-9_/]+)"/\1 \2/')
ids=$(echo "$rows" | awk 'NF == 2 { print $2 }')
bases=$(echo "$rows" | awk '$1 == "shardable" { print $2 }')
test -n "$ids" || { echo "no catalog ids parsed from catalog.cpp"; exit 1; }
test -n "$bases" || { echo "no shardable bases parsed from catalog.cpp"; exit 1; }

missing=0
for id in $ids; do
  if ! grep -qF "\`$id\`" docs/CATALOG.md; then
    echo "catalog id '$id' is registered in catalog.cpp but missing from docs/CATALOG.md"
    missing=1
  fi
done
for base in $bases; do
  if ! grep -qF "\`$base/shN\`" docs/CATALOG.md; then
    echo "shardable base '$base' is registered in catalog.cpp but '\`$base/shN\`' is missing from docs/CATALOG.md"
    missing=1
  fi
done
if [ "$missing" -eq 0 ]; then
  echo "docs/CATALOG.md covers all $(echo "$ids" | wc -l) catalog ids and $(echo "$bases" | wc -l) shardable bases"
fi
exit "$missing"
