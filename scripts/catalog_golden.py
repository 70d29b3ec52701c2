#!/usr/bin/env python3
"""Golden digests of the catalogs: names, order and serial keys.

For each class and each size it prints the number of catalog algebras and the
sha256 of the JSON list of their ``[name, serial_key]``.  By default it covers
sizes 1 to 10, which ``tests/data/catalog_golden.json`` records.  With
``--max-size`` above 10 it covers only the sizes from 11 up to that bound,
since the smaller ones are already recorded; ``tests/data/catalog_golden_12.json``
holds sizes 11 and 12.  The tier-1 tests ``test_catalogs_match_golden_file``
and ``test_catalogs_match_golden_file_to_size_12`` rebuild the catalogs and
compare the output with those files byte for byte.

Usage:
  PYTHONPATH=src python scripts/catalog_golden.py > tests/data/catalog_golden.json
  PYTHONPATH=src python scripts/catalog_golden.py --max-size 12 > tests/data/catalog_golden_12.json
"""

import argparse
import hashlib
import json

from finheyt.algebra import VarietyClass, serial_key
from finheyt.catalog import build_catalog

CLASSES = ("heyting", "ws5", "hri", "hdp:1", "hdp:2", "dht:1", "dht:2")
MAX_SIZE = 10


def golden_text(max_size: int = MAX_SIZE) -> str:
    first = 1 if max_size <= MAX_SIZE else MAX_SIZE + 1
    out = {}
    for name in CLASSES:
        cat = build_catalog(VarietyClass.parse(name), max_size)
        sizes = {}
        for n in range(first, max_size + 1):
            rows = [[a.name, serial_key(a)] for a in cat.of_size(n)]
            blob = json.dumps(rows, separators=(",", ":")).encode()
            sizes[str(n)] = {"count": len(rows), "sha256": hashlib.sha256(blob).hexdigest()}
        out[name] = sizes
    return json.dumps(out, indent=1) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=MAX_SIZE)
    print(golden_text(parser.parse_args().max_size), end="")
