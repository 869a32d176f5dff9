"""The w1 reports and traces, and two validate-world reports, pinned byte for byte.

Any change to a report's bytes must be deliberate: update the hash here and
say in the change log what changed and why.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from pacroute.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN_SHA256 = {
    "calibrate": "40ef1f631f7d94fffe827f3230c9b873c915580f58af3c2c70a839143d57fb4e",
    "audit": "fdbff963ee30453efc90fb682b325710d23f3d0d8bb8acd5a22093594575a0e9",
    "demo": "3c77256369d4e4b41c8edbd90e9bba293013a600a4e7c86ee6076b7bd7fef714",
    "oracle": "6ece47c33d32a86a1998a531ff7a46a0eea2c0198c886c199657fcb8a8e1f9c6",
}

# the same configs with "algorithm": "trivial"
TRIVIAL_SHA256 = {
    "audit": "c25b9be11edbbcb03458548ad8d5afac4e7f0cc8ce3117ea0ac89b5bc2c6e086",
    "demo": "859cd9b7ee5cc6f12753ab9474b5a0847acb41a510d6b5c9acc5343585ccb571",
    "oracle": "e5d7ac5066f9c24e3ff790f36fcf394c9b8badc67b948d3e0825c6671e2115c2",
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


@pytest.mark.parametrize("cmd", sorted(TRACE_SHA256))
def test_w1_audit_points_same_text_in_report_and_trace(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, trace = tmp_path / f"{cmd}.json", tmp_path / f"{cmd}.csv"
    argv = [cmd, "--config", f"configs/{cmd}_w1.json", "--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    # parse_float=str keeps each float as the text the report wrote
    report = json.loads(out.read_text(encoding="utf-8"), parse_float=str)["report"]
    audits = ({"": report} if cmd == "audit"
              else {"base": report["base_audit"], "perturbed": report["perturbed_audit"]})
    with trace.open(encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    for world, audit in audits.items():
        points = [p["x"] for p in audit["points"]]
        assert points
        assert set(points) == {row["point"] for row in rows if row.get("world", "") == world}


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


# what an output path holds before a rerun: longer than any output, one byte, empty
PREFILLS = {"longer": b"\xff" * 2**20, "one_byte": b"x", "empty": b""}


@pytest.mark.parametrize("prefill", sorted(PREFILLS))
@pytest.mark.parametrize("cmd", [*sorted(GOLDEN_SHA256), "audit_traced"])
def test_rerun_into_an_existing_output_writes_the_golden_bytes(cmd, prefill, tmp_path,
                                                               monkeypatch):
    # an output is written in place over what the path held, then cut to length
    monkeypatch.chdir(ROOT)
    command = cmd.removesuffix("_traced")
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    argv = [command, "--config", f"configs/{command}_w1.json", "--out", str(out)]
    out.write_bytes(PREFILLS[prefill])
    if cmd != command:
        trace.write_bytes(PREFILLS[prefill])
        argv += ["--trace", str(trace)]
    assert main(argv) == 0
    assert _sha256(out) == GOLDEN_SHA256[command]
    if cmd != command:
        assert _sha256(trace) == TRACE_SHA256[command]
