"""Record every pool operation's output as perfbench/reference.json.

    python3 perfbench/make_reference.py

Run this at the commit whose outputs the benchmark should hold later
commits to; run.py compares against the file and never writes it.  The
script also checks that within each slot every alternative either succeeds
or fails, so that the share of failed operations does not depend on the
seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import OUT, import_acstab, pin_threads
from workloads import WORKLOADS


def main() -> int:
    pin_threads()
    acstab = import_acstab()
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    ops: dict[str, dict] = {}
    status: dict[str, bool] = {}
    for workload in WORKLOADS.values():
        for op in workload.pool():
            outcome = op.prepare(acstab, workdir)()
            status[op.key] = outcome.failure is None
            if op.needs_reference:
                ops[op.key] = outcome.digest
            if outcome.failure is not None:
                print(f"fails at this commit: {op.key}: {outcome.failure}", file=sys.stderr)
            elif (problem := op.check(outcome.digest, ops.get(op.key))) is not None:
                print(f"wrong at this commit: {op.key}: {problem}", file=sys.stderr)
                return 1
        for slot in workload.slots:
            if len({status[op.key] for op in slot}) != 1:
                print(f"{workload.name}: slot mixes failing and passing alternatives: "
                      f"{[(op.key, status[op.key]) for op in slot]}", file=sys.stderr)
                return 1
    path = Path(__file__).with_name("reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} reference outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
