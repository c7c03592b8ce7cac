"""Byte identity of the CLI artifacts against ``golden_artifacts.json``.

The hashes hold only in the environment that made them (see
``golden.py``); elsewhere the test skips and names the fields that differ.
"""

import json

import pytest

from golden import GOLDEN, artifact_hashes, golden_environment


def test_artifacts_match_their_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = golden_environment()
    differ = [f"{key} {value!r} (golden {golden['environment'][key]!r})"
              for key, value in sorted(here.items())
              if golden["environment"].get(key) != value]
    if differ:
        pytest.skip("golden hashes were made in another environment: "
                    + ", ".join(differ))
    want = golden["artifacts"]
    got = artifact_hashes(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert changed == [], (
        f"artifacts differ from {GOLDEN.name}: {changed}; regenerate with "
        "`PYTHONPATH=src python tests/golden.py` only if the change is meant"
    )
