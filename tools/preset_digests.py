"""Run every preset in configs/ and print the sha256 of each CSV it writes.

    python tools/preset_digests.py [--paths N] > digests.txt

Each preset runs as ``python -m spt_lab.cli run`` in a child process, with
the ``src/`` of the checkout this file sits in, writing into a temporary
directory that is removed afterwards.  The runs' own output goes to stderr,
followed by one line per preset with its wall time and the child's peak
resident set size as ``os.wait4`` reports it; this process imports nothing
but the standard library, so its own footprint stays under every child's.
stdout gets one line per CSV, in order, ``<preset>/<file>.csv <sha256>``.
``--paths N`` overrides every preset's path count.  Run it at two commits
and diff the outputs to see whether a change moved any number.  Exits 1 if
a preset exits with anything but 0.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, help="path count of every preset")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))):
            preset = os.path.splitext(os.path.basename(config))[0]
            out = os.path.join(tmp, preset)
            cmd = [sys.executable, "-m", "spt_lab.cli", "run", config, "--out", out]
            if args.paths is not None:
                cmd += ["--paths", str(args.paths)]
            sys.stderr.flush()
            start = time.monotonic()
            child = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.monotonic() - start
            child.returncode = code = os.waitstatus_to_exitcode(status)
            print(f"{preset}: wall {wall:.2f} s, peak RSS {usage.ru_maxrss / 1024:.1f} MB",
                  file=sys.stderr, flush=True)
            if code != 0:
                failed.append(f"{preset} exited {code}")
            for path in sorted(glob.glob(os.path.join(out, "*.csv"))):
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                print(f"{preset}/{os.path.basename(path)} {digest}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
