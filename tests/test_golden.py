"""Every shipped-config command against the benchmark's reference digests.

perfbench/reference.json holds a digest of each output of the commands that
the benchmark checks: the shipped configs' sweeps and fresh-process
commands, and kodaira for every fiber type.  Each command runs here through
``cli.main`` and is compared with ``perfbench/checks.py``: numbers within
1e-6 relative plus 1e-9 of the column's scale, words and flags exactly, and
the text of ``verify``'s measured column and of kodaira's stdout to 1% as
printed.  This is the net for changes that move outputs in the last bits;
CI's run-twice ``cmp`` stays the byte-level check.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pinchlab import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import compare, compare_text  # noqa: E402
from workloads import KODAIRA_TYPES, Op, cli_cold, sweep_coarse  # noqa: E402

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def reference_ops(work: Path) -> dict:
    """The operations perfbench/make_reference.py digests, by name."""
    ops = {op.name: op for build in (sweep_coarse, cli_cold)
           for op in build(ROOT, work, 0).ops if op.reference}
    ops.update({f"kodaira:{t}": Op(name=f"kodaira:{t}", argv=["kodaira", "--type", t],
                                   writes_out=False, reference=True) for t in KODAIRA_TYPES})
    return ops


def test_every_reference_is_rendered(tmp_path):
    assert set(reference_ops(tmp_path)) == set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_output_matches_reference_digest(name, tmp_path):
    op = reference_ops(tmp_path)[name]
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(op.argv + (["--out", str(out)] if op.writes_out else [])) == 0
    ref = REFERENCE[name]
    if "stdout" in ref:
        compare_text(stdout.getvalue(), ref["stdout"])
    for filename, digest in ref["files"].items():
        compare((out / filename).read_text(), digest, filename)
