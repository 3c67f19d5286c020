#!/usr/bin/env python3
"""Write the committed reference outputs that every benchmark run is checked against.

    python3 perfbench/make_refs.py --size full --workload paper-small

runs ``transgap gen`` and the workload's commands once per generator seed
0 .. REF_SEEDS-1 and stores the bundle digests and output texts under
``perfbench/refs/<size>/<workload>/``.  Run it only on a commit whose
outputs are known to be right, and say in the change log when references
are rewritten.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import check
from run import Runner
from workloads import REF_SEEDS, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.size][args.workload]
    for seed in range(REF_SEEDS):
        runner = Runner(wl, args.size, seed)
        shutil.rmtree(runner.dir, ignore_errors=True)
        cwd = runner.dir / "ref"
        execs = [runner.gen(cwd)]
        execs += runner.run_pass(cwd, cwd / "bundle", traced=False)
        failed = [e for e in execs if e.rc != 0]
        if failed:
            print(f"seed {seed}: {failed[0].key} exited {failed[0].rc}", file=sys.stderr)
            return 1
        outputs = {}
        for cmd in wl.commands:
            outputs.update(check.files_under(cwd / "out" / cmd.out))
        path = check.save_ref(args.size, wl.name, seed,
                              check.files_under(cwd / "bundle"), outputs)
        print(f"seed {seed}: {len(outputs)} output files -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
