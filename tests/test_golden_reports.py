"""The w1 reports and traces, two validate-world reports, and reports on
worlds whose draws and sums the w1 ones cannot see, pinned byte for byte.

Any change to a report's bytes must be deliberate: update the hash here and
say in the change log what changed and why.
"""

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pacroute.cli import main

from conftest import child_env, make_distinct_scores, make_tied_scores, world_to_dict

ROOT = Path(__file__).resolve().parents[1]

GOLDEN_SHA256 = {
    "calibrate": "ea4766cd2d69e6d01e918ca131c491b4ea38a5f7905c385d1da79abbf49cd5e3",
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

# audit and its --trace on the tied-score world (conftest.make_tied_scores),
# whose replications select several thresholds, so these hashes see the draws
TIED_AUDIT_SHA256 = {
    "report": "135c4d29978e24870c47b1027df31ebfaefed45bc5808c0fb68a2671af409598",
    "trace": "c44772f0a87c7836db1666f7f0fcc9016547ac8ad6b4e64c934b8b0192e4a868",
}

# oracle on conftest.make_distinct_scores(60), auto grid, alpha 0.5, keyed by
# "n/delta_split/x". Its stops hold up to 61 pairs, and a sum of 8 or more
# terms pairs them up. At n = 500 and delta_split 0.05 the law is so narrow
# that no order of summing moves a bit. The delta_split 0.25 reports change
# when the stops are summed a block at a time (both), in plain order
# (n = 100) or padded with zeros (n = 500)
DISTINCT_ORACLE_SHA256 = {
    "500/0.05/joint": "67c370f9ff68aba99f42be7152733a64b5f77fd5e839e5dca297862fefd2c094",
    "500/0.05/0.5": "48d7beaad039abf30c98bfaea2c6fff0052f07137ccaaf682dc3b0ab01a3f15d",
    "100/0.25/joint": "37c6e5c9ed4d0b95fc38772f83b51e909bc154a455237ced5a6ed422fb12b54d",
    "500/0.25/joint": "17f980a0da809468c8e8ac7b3add9218b20865228047bd99dd89414adadad4d5",
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


def test_report_bytes_do_not_depend_on_the_blas_pool(tmp_path):
    # `import pacroute` keeps a thread count the caller set, so these commands
    # run beside a two-thread OpenBLAS pool, not the one-thread default
    code = (
        "import sys\n"
        "from pacroute.cli import main\n"
        "for cmd in ('audit', 'demo'):\n"
        "    out, trace = f'{sys.argv[1]}/{cmd}.json', f'{sys.argv[1]}/{cmd}.csv'\n"
        "    argv = [cmd, '--config', f'configs/{cmd}_w1.json', '--out', out, '--trace', trace]\n"
        "    assert main(argv) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, cwd=ROOT, env={**child_env(), "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    for cmd in ("audit", "demo"):
        assert _sha256(tmp_path / f"{cmd}.json") == GOLDEN_SHA256[cmd]
        assert _sha256(tmp_path / f"{cmd}.csv") == TRACE_SHA256[cmd]


def test_tied_world_audit_and_trace_bytes(tmp_path, monkeypatch):
    # the report embeds the world path: keep it relative, so the bytes are fixed
    monkeypatch.chdir(tmp_path)
    Path("tied.json").write_text(json.dumps(world_to_dict(make_tied_scores())), encoding="utf-8")
    Path("tied_audit.json").write_text(json.dumps({
        "world": "tied.json",
        "loss": {"kind": "zero_one", "epsilon": 0.0},
        "pac": {"epsilon": 0.0, "alpha": 0.8, "delta_split": 0.3, "threshold_grid": "auto"},
        "mc": {"replications": 300, "master_seed": 20250810, "audit_points": "auto"},
        "calibration": {"n": 12},
        "algorithm": "calibrated",
    }), encoding="utf-8")
    argv = ["audit", "--config", "tied_audit.json", "--out", "r.json", "--trace", "t.csv"]
    assert main(argv) == 0
    with open("t.csv", encoding="utf-8", newline="") as f:
        assert len({row["tau_hat"] for row in csv.DictReader(f)}) >= 4
    assert {"report": _sha256(Path("r.json")), "trace": _sha256(Path("t.csv"))} == TIED_AUDIT_SHA256


@pytest.mark.parametrize("case", sorted(DISTINCT_ORACLE_SHA256))
def test_distinct_scores_oracle_bytes(case, tmp_path, monkeypatch):
    n, delta_split, x = case.split("/")
    # the report embeds the world path: keep it relative, so the bytes are fixed
    monkeypatch.chdir(tmp_path)
    Path("distinct.json").write_text(json.dumps(world_to_dict(make_distinct_scores(60))),
                                     encoding="utf-8")
    Path("oracle.json").write_text(json.dumps({
        "world": "distinct.json",
        "loss": {"kind": "zero_one", "epsilon": 0.0},
        "pac": {"epsilon": 0.0, "alpha": 0.5, "delta_split": float(delta_split),
                "threshold_grid": "auto"},
        "oracle": {"n": int(n), "x": x if x == "joint" else float(x)},
        "algorithm": "calibrated",
    }), encoding="utf-8")
    assert main(["oracle", "--config", "oracle.json", "--out", "r.json"]) == 0
    assert _sha256(Path("r.json")) == DISTINCT_ORACLE_SHA256[case]


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
