#!/usr/bin/env python3
"""Golden digests of the catalogs: names, order and serial keys.

For each class and each size up to 10 it prints the number of catalog
algebras and the sha256 of the JSON list of their ``[name, serial_key]``.
The tier-1 test ``test_catalogs_match_golden_file`` rebuilds the catalogs and
compares the output with ``tests/data/catalog_golden.json`` byte for byte.

Usage: PYTHONPATH=src python scripts/catalog_golden.py > tests/data/catalog_golden.json
"""

import hashlib
import json

from finheyt.algebra import VarietyClass, serial_key
from finheyt.catalog import build_catalog

CLASSES = ("heyting", "ws5", "hri", "hdp:1", "hdp:2", "dht:1", "dht:2")
MAX_SIZE = 10


def golden_text() -> str:
    out = {}
    for name in CLASSES:
        cat = build_catalog(VarietyClass.parse(name), MAX_SIZE)
        sizes = {}
        for n in range(1, MAX_SIZE + 1):
            rows = [[a.name, serial_key(a)] for a in cat.of_size(n)]
            blob = json.dumps(rows, separators=(",", ":")).encode()
            sizes[str(n)] = {"count": len(rows), "sha256": hashlib.sha256(blob).hexdigest()}
        out[name] = sizes
    return json.dumps(out, indent=1) + "\n"


if __name__ == "__main__":
    print(golden_text(), end="")
