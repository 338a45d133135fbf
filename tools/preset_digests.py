"""Run every preset in configs/ and print the sha256 of each CSV it writes.

    python tools/preset_digests.py [--paths N] > digests.txt

Each preset runs through ``spt_lab.cli.main`` with the ``src/`` of the
checkout this file sits in, writing into a temporary directory that is
removed afterwards.  The runs' own output goes to stderr; stdout gets one
line per CSV, in order, ``<preset>/<file>.csv <sha256>``.  ``--paths N``
overrides every preset's path count.  Run it at two commits and diff the
outputs to see whether a change moved any number.  Exits 1 if a preset
exits with anything but 0.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spt_lab import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, help="path count of every preset")
    args = parser.parse_args(argv)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))):
            preset = os.path.splitext(os.path.basename(config))[0]
            out = os.path.join(tmp, preset)
            argv = ["run", config, "--out", out]
            if args.paths is not None:
                argv += ["--paths", str(args.paths)]
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
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
