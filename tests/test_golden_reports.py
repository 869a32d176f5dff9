"""The w1 reports and traces, and two validate-world reports, pinned byte for byte.

Any change to a report's bytes must be deliberate: update the hash here and
say in the change log what changed and why.
"""

import hashlib
import json
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

# the same configs with "algorithm": "trivial"
TRIVIAL_SHA256 = {
    "audit": "1a5c0ee3ea646e652dea95f52a58ca0e9a3355d8179a42b32be30f9699680101",
    "demo": "63c603d96c8069ac93a5e3c620b749064868b56281beb29f765a931fe56295c2",
    "oracle": "d61c40856162884dac07f034cd35bfa8035bbd97c2090087365ba679a970e55c",
}

# the --trace CSVs of the calibrated configs
TRACE_SHA256 = {
    "audit": "fdb9d9f2a3b93cca6e6644e39a44af23b9a30510a635e6cd7ec62c7ed518da47",
    "demo": "14f9393c45908df03d9127c9215302e91f23edf722bede15fe9fa6e24fd7986b",
}

# validate-world on the w1 config, and on w1 with a gap between its cells
VALIDATE_WORLD_SHA256 = {
    "w1": "08d2a549e1de29f29f767b9b2792de6dd0473eaa211f4b08442bc8d5e5cd61bc",
    "gap": "f681cef0e603fa5c33ee55283bc02231b6a2b9c53c5228c8a3c7729b7605e4bb",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cmd", sorted(GOLDEN_SHA256))
def test_w1_report_bytes(cmd, tmp_path, monkeypatch):
    # the configs name their world relative to the repository root
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{cmd}.json"
    assert main([cmd, "--config", f"configs/{cmd}_w1.json", "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_SHA256[cmd]


@pytest.mark.parametrize("cmd", sorted(TRIVIAL_SHA256))
def test_w1_trivial_report_bytes(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = json.loads((ROOT / "configs" / f"{cmd}_w1.json").read_text(encoding="utf-8"))
    cfg["algorithm"] = "trivial"
    config = tmp_path / f"{cmd}_trivial.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / f"{cmd}.json"
    assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    assert _sha256(out) == TRIVIAL_SHA256[cmd]


@pytest.mark.parametrize("cmd", sorted(TRACE_SHA256))
def test_w1_trace_bytes(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, trace = tmp_path / f"{cmd}.json", tmp_path / f"{cmd}.csv"
    argv = [cmd, "--config", f"configs/{cmd}_w1.json", "--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    assert _sha256(trace) == TRACE_SHA256[cmd]


@pytest.mark.parametrize("case", sorted(VALIDATE_WORLD_SHA256))
def test_validate_world_report_bytes(case, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    if case == "w1":
        monkeypatch.chdir(ROOT)
        config, code = "configs/calibrate_w1.json", 0
    else:
        # the report embeds the world path: keep it relative, so the bytes are fixed
        world = json.loads((ROOT / "configs" / "w1.json").read_text(encoding="utf-8"))
        world["cells"][1]["left"] = 0.85
        monkeypatch.chdir(tmp_path)
        Path("gap.json").write_text(json.dumps(world), encoding="utf-8")
        config, code = "gap_config.json", 3
        Path(config).write_text(json.dumps({"world": "gap.json"}), encoding="utf-8")
    assert main(["validate-world", "--config", config, "--out", str(out)]) == code
    assert _sha256(out) == VALIDATE_WORLD_SHA256[case]
