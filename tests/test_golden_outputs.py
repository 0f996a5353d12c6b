"""Every shipped output keeps its recorded bits.

``golden_outputs.json`` holds the SHA-256 of the CSV of each shipped
config: ``gni sweep`` for a config with an ``h_list``, ``gni simulate``
for the others.  The test runs the same commands in-process and compares.

The digests are pinned to this platform's C library and to CPython, not
only to the code: ``math.sin`` and ``math.cos`` (the SO(3) exponential)
and ``math.log`` (the slope fit) come from libm, and every number is
written by CPython's correctly rounded ``%.17g``.  No BLAS product is on
an output path, so the OpenBLAS kernel does not enter
(``test_blas_kernels.py``).

A change that means to move bits re-records the file with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and states, per
output, which columns moved and by how much.
"""
import ast
import hashlib
import json
import re
import sys
from pathlib import Path

import gni
from gni import cli

_ROOT = Path(__file__).resolve().parents[1]
_CONFIGS = _ROOT / "configs"
_GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _digests(out: Path) -> dict:
    digests = {}
    for path in sorted(_CONFIGS.glob("*.cfg")):
        verb = "sweep" if re.search(r"^h_list\s*=", path.read_text(), re.M) else "simulate"
        csv = out / (path.name + ".csv")
        assert cli.main([verb, "--config", str(path), "--out", str(csv), "--quiet"]) == 0, path.name
        digests[path.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return digests


def test_shipped_outputs_match_the_recorded_digests(tmp_path):
    golden = json.loads(_GOLDEN.read_text())
    assert len(golden) == 8
    assert _digests(tmp_path) == golden


def test_no_module_reads_the_environment():
    # The digests hold only if each output depends on its config and the
    # code alone.
    readers = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(gni.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            assert not names & readers, f"{path.name}:{node.lineno} reads the environment"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        digests = _digests(Path(out))
    _GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {_GOLDEN}", file=sys.stderr)
