"""Regenerate perfbench/reference.json from the current checkout.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

It runs every operation whose outputs are checked against references (the
shipped-config commands of sweep-coarse and cli-cold, and kodaira for every
type cli-cold may draw) in-process through ``cli.main``, and stores a digest
of each output file, or the stdout of commands that write no file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import digest  # noqa: E402
from workloads import KODAIRA_TYPES, Op, cli_cold, sweep_coarse  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from pinchlab import cli

    work = Path(tempfile.mkdtemp(dir=root))
    try:
        ops = {}
        for build in (sweep_coarse, cli_cold):
            ops.update({op.name: op for op in build(root, work, 0).ops if op.reference})
        for t in KODAIRA_TYPES:
            ops[f"kodaira:{t}"] = Op(name=f"kodaira:{t}", argv=["kodaira", "--type", t],
                                     writes_out=False, reference=True)
        reference = {}
        for name, op in sorted(ops.items()):
            out = work / name.replace(":", "_")
            argv = op.argv + (["--out", str(out)] if op.writes_out else [])
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{name} exited {rc}")
            entry = {"files": {}}
            if not op.writes_out:
                entry["stdout"] = buf.getvalue()
            else:
                for path in sorted(out.glob("*.csv")):
                    entry["files"][path.name] = digest(path.read_text(), path.name)
            reference[name] = entry
            print(f"{name}: {sorted(entry['files']) or 'stdout'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
