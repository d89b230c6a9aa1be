#!/usr/bin/env python3
"""Record the headline outputs the benchmark checks against.

    python3 bench/record_references.py

Runs one pass of each mission and of the family sweep on seeds
``SWEEP_SEEDS`` and writes ``bench/references.json``.  Re-record only when a
change of behaviour is intended; a speed-up must leave these unchanged.
"""

from __future__ import annotations

import json

import run

SWEEP_SEEDS = range(10)


def dump(table: dict) -> str:
    """JSON text with one scenario per line."""
    entries = []
    for key in sorted(table):
        rows = ",\n  ".join(json.dumps(h, sort_keys=True) for h in table[key])
        entries.append(f" {json.dumps(key)}: [\n  {rows}\n ]")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main() -> int:
    table = {}
    jobs = [(w, 0) for w in run.MISSIONS] + [(run.SWEEP, s) for s in SWEEP_SEEDS]
    for workload, seed in jobs:
        out = run.run(workload, seed, seconds=0, trace=False, references={})
        if not out["result"]["correct"]:
            raise SystemExit(f"{workload} seed {seed} failed: {out['report']['failures']}")
        key = run.reference_key(workload, seed, smoke=False)
        table[key] = out["headlines"]
        print(key, len(table[key]), "scenario(s)", flush=True)
    run.REFERENCES.write_text(dump(table), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
