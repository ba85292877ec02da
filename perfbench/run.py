#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe with dune
(into _build, with dune's shared cache off so nothing is written
outside the checkout), then runs it from the root and passes its output
through. The last line of standard output is the result object; build
output goes to standard error. Exits non-zero, printing no result, if
the build fails or the benchmark does not produce a well-formed result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
KEYS = {"correct", "attempted", "failed", "metrics"}


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # A small runtime-events ring (2^10 words per domain). The runtime
    # sizes its ring file for 128 domains, so the default ring would make
    # a 64 MB file in the working directory and e=20 a 1 GB one. The
    # traced run drains the ring every millisecond of wall time instead.
    env["OCAMLRUNPARAM"] = "e=10"
    run = subprocess.Popen(
        [EXE] + sys.argv[1:], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    out, _ = run.communicate()
    # The runtime removes its ring file on a normal exit, not when killed.
    ring = os.path.join(ROOT, "%d.events" % run.pid)
    if os.path.exists(ring):
        os.remove(ring)
    sys.stdout.write(out)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == KEYS and result["attempted"] >= 1
    except (IndexError, ValueError, TypeError):
        well_formed = False
    if not well_formed:
        print("perfbench: no well-formed result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
