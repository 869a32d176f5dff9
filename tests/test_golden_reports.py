"""The four w1 reports, pinned byte for byte.

Any change to a report's bytes must be deliberate: update the hash here and
say in the change log what changed and why.
"""

import hashlib
from pathlib import Path

import pytest

from pacroute.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN_SHA256 = {
    "calibrate": "c5b49289ef90287e994db4b1de6d4bcbf0a412f7ca40cde666fa6d6a7d0bf103",
    "audit": "de41d4cb9e55a8649ffe4c0e6b0945aa61b2d0cdfa0baf1e9f42299e721ad317",
    "demo": "6536f5817839c52da74e31f4ce7c7d7a9f34ff6508fadf5a825f05a67420e0eb",
    "oracle": "4ce681be814cf929002e32adf1f6f2e922e8a29567cb0608c4de97075a96a324",
}


@pytest.mark.parametrize("cmd", sorted(GOLDEN_SHA256))
def test_w1_report_bytes(cmd, tmp_path, monkeypatch):
    # the configs name their world relative to the repository root
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{cmd}.json"
    assert main([cmd, "--config", f"configs/{cmd}_w1.json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[cmd]
