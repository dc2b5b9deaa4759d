#!/usr/bin/env python3
"""Gate a traced census benchmark run on its serialization and LPM counts.

Reads the output of a traced ``census`` run of the repo benchmark and
checks its last line, the JSON result object::

    python3 perfbench/run.py --workload census --seconds 3 --trace 1 \\
        | python3 tools/census_gate.py

It requires that every output check passed (``correct``), that the
probe path serializes exactly one packet per submitted probe
(``net.packets_built == sim.probes_submitted``: responses are never
serialized on the pipelined path), and that the real longest-prefix-
match resolutions stay at the recorded count for the default seed
(``sim.lpm_lookups``; a transit memo that outlives the walk must not
change what the routers resolve).  Exits 0 when all hold, 1 with one
problem per stderr line otherwise.
"""

from __future__ import annotations

import json
import sys

#: Real LPM resolutions of one traced census iteration at seed 42.
EXPECTED_LPM_LOOKUPS = 4327


def problems_in(result: dict) -> list[str]:
    """Every gate the census result object fails, as messages."""
    metrics = {name: entry["value"]
               for name, entry in result.get("metrics", {}).items()}
    found = []
    if not result.get("correct"):
        found.append(f"census run not correct: {result.get('failed')} of "
                     f"{result.get('attempted')} checks failed")
    built = metrics.get("net.packets_built")
    submitted = metrics.get("sim.probes_submitted")
    if built is None or built != submitted:
        found.append(f"net.packets_built {built} != "
                     f"sim.probes_submitted {submitted}")
    lookups = metrics.get("sim.lpm_lookups")
    if lookups != EXPECTED_LPM_LOOKUPS:
        found.append(f"sim.lpm_lookups {lookups} != {EXPECTED_LPM_LOOKUPS}")
    return found


def main() -> int:
    """CLI entry point; returns the process exit status."""
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("no benchmark output on stdin", file=sys.stderr)
        return 1
    problems = problems_in(json.loads(lines[-1]))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print("census gate: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
