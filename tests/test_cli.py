import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pacroute.cli import main
from pacroute.worlds import world_to_dict

from conftest import child_env, make_three_cell, make_w1

W1_DICT = world_to_dict(make_w1())

BASE_CONFIG = {
    "loss": {"kind": "zero_one", "epsilon": 0.0},
    "pac": {
        "epsilon": 0.0,
        "alpha": 0.1,
        "delta_split": 0.05,
        "threshold_grid": [0.5, 0.95],
    },
}


@pytest.fixture
def w1_path(tmp_path):
    p = tmp_path / "w1.json"
    p.write_text(json.dumps(W1_DICT))
    return str(p)


def write_config(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_calibrate_w1(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 100, "seed": 7}},
    )
    out = tmp_path / "report.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["command"] == "calibrate"
    assert rep["report"]["tau_hat"] == 0.5
    assert rep["report"]["exact_deferral_mass"] == pytest.approx(0.2)
    assert rep["report"]["exact_miscoverage"] == 0.0
    assert rep["report"]["tested"][0]["rejected"] is True
    assert rep["config"]["calibration"]["seed"] == 7
    assert rep["version"]


def test_calibrate_small_n_defers(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "pac": {**BASE_CONFIG["pac"], "threshold_grid": [0.5]},
            "calibration": {"n": 10, "seed": 7},
        },
    )
    out = tmp_path / "report.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["tau_hat"] == "ALWAYS_DEFER"
    assert rep["report"]["exact_deferral_mass"] == 1.0


def test_seed_override(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 50, "seed": 7}},
    )
    a, b, c = (tmp_path / x for x in ("a.json", "b.json", "c2.json"))
    run_cli(["calibrate", "--config", cfg, "--out", a])
    run_cli(["calibrate", "--config", cfg, "--out", b, "--seed", 7])
    run_cli(["calibrate", "--config", cfg, "--out", c, "--seed", 8])
    assert a.read_bytes() == b.read_bytes()
    rep_c = read_json(c)
    assert rep_c["config"]["calibration"]["seed"] == 8


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["calibrate", "--config", tmp_path / "nope.json"]) == 2


def test_missing_world_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": str(tmp_path / "ghost.json"),
            "calibration": {"n": 10, "seed": 1},
        },
    )
    assert run_cli(["calibrate", "--config", cfg]) == 2


def test_invalid_world_exits_3(tmp_path):
    bad = dict(W1_DICT)
    bad["cells"] = [dict(c) for c in W1_DICT["cells"]]
    bad["cells"][0]["mass"] = 0.5
    world_path = tmp_path / "bad.json"
    world_path.write_text(json.dumps(bad))
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": str(world_path),
            "calibration": {"n": 10, "seed": 1},
        },
    )
    assert run_cli(["calibrate", "--config", cfg]) == 3


def test_table_loss_roundtrip(tmp_path):
    world = {
        "alphabet_size": 3,
        "cells": [
            {"left": 0.0, "right": 0.8, "mass": 0.8, "expert": 0, "fast": 0, "score": 0.1},
            {"left": 0.8, "right": 1.0, "mass": 0.2, "expert": 2, "fast": 0, "score": 0.9},
        ],
    }
    world_path = tmp_path / "w3.json"
    world_path.write_text(json.dumps(world))
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "world": str(world_path),
            "loss": {
                "kind": "table",
                "epsilon": 0.5,
                "table": [[0.0, 0.2, 0.8], [0.2, 0.0, 0.2], [0.8, 0.2, 0.0]],
            },
            "pac": {"epsilon": 0.5, "alpha": 0.1, "delta_split": 0.05,
                    "threshold_grid": [0.5, 0.95]},
            "calibration": {"n": 100, "seed": 7},
        },
    )
    out = tmp_path / "r.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["tau_hat"] == 0.5
    assert rep["config"]["loss"]["table"][0][2] == 0.8


def test_malformed_loss_table_exits_2(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "world": w1_path,
            "loss": {"kind": "table", "epsilon": 0.0, "table": [[0.0, 1.0], [1.0, 0.5]]},
            "pac": BASE_CONFIG["pac"],
            "mc": {"replications": 10, "master_seed": 1},
            "calibration": {"n": 10},
        },
    )
    assert run_cli(["audit", "--config", cfg]) == 2


def test_pac_epsilon_mismatch_exits_2(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "world": w1_path,
            "loss": {"kind": "zero_one", "epsilon": 0.0},
            "pac": {"epsilon": 0.5, "alpha": 0.9, "delta_split": 0.05,
                    "threshold_grid": [0.5]},
            "calibration": {"n": 10, "seed": 1},
        },
    )
    assert run_cli(["calibrate", "--config", cfg]) == 2


def test_non_finite_grid_exits_2_before_any_work(tmp_path, w1_path, capsys):
    pac = {**BASE_CONFIG["pac"], "threshold_grid": [float("nan")]}
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "pac": pac,
            "world": w1_path,
            "mc": {"replications": 50, "master_seed": 3},
            "calibration": {"n": 40},
        },
    )
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "threshold_grid" in capsys.readouterr().err


def test_audit_trivial_flag(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 50, "master_seed": 3, "audit_points": "auto"},
            "calibration": {"n": 40},
            "algorithm": "trivial",
        },
    )
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["trivial_verdict"] is True
    assert rep["report"]["max_fast_prob"] == 0.0


def test_audit_calibrated_w1_not_trivial(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 200, "master_seed": 3, "audit_points": "auto"},
            "calibration": {"n": 100},
        },
    )
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["trivial_verdict"] is False
    assert rep["report"]["max_fast_prob"] == 1.0


def test_audit_trace_csv(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 5, "master_seed": 3, "audit_points": [0.4, 0.9]},
            "calibration": {"n": 100},
        },
    )
    trace = tmp_path / "trace.csv"
    assert run_cli(
        ["audit", "--config", cfg, "--out", tmp_path / "a.json", "--trace", trace]
    ) == 0
    with open(trace, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["replication", "point", "tau_hat", "g", "risk_exceeded"]
    assert len(rows) == 1 + 5 * 2
    assert rows[1] == ["0", "0.4", "0.5", "0", "0"]
    assert rows[2] == ["0", "0.9", "0.5", "1", "0"]


def test_demo_canonical(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 300, "master_seed": 11, "audit_points": "auto"},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": 100},
        },
    )
    out = tmp_path / "demo.json"
    assert run_cli(["demo", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    verdicts = rep["report"]["verdicts"]
    assert verdicts["conditional_violation"] is True
    assert verdicts["indistinguishable"] is True
    assert verdicts["marginal_holds"] is True
    assert verdicts["nontrivial"] is True
    assert verdicts["demo_vacuous"] is False


def test_demo_workers_byte_identical(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 200, "master_seed": 11, "audit_points": "auto"},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": 60},
        },
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["demo", "--config", cfg, "--out", a, "--workers", 1]) == 0
    assert run_cli(["demo", "--config", cfg, "--out", b, "--workers", 8]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_below_one_exits_2(tmp_path, w1_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 50, "seed": 7}},
    )
    with pytest.raises(SystemExit) as exc:
        run_cli(["calibrate", "--config", cfg, "--workers", 0])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_replications_beyond_one_uint32_word_exit_2(tmp_path, w1_path):
    # rejected while the config is parsed, before anything is drawn
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 2**32 + 1, "master_seed": 11},
            "calibration": {"n": 60},
        },
    )
    assert run_cli(["audit", "--config", cfg]) == 2


def test_demo_precondition_exits_4(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 20, "master_seed": 11},
            "demo": {"x_star": 0.9, "eta": 0.01, "n": 20},
        },
    )
    assert run_cli(["demo", "--config", cfg]) == 4


def test_demo_trivial_algorithm(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 50, "master_seed": 11},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": 20},
            "algorithm": "trivial",
        },
    )
    out = tmp_path / "demo.json"
    assert run_cli(["demo", "--config", cfg, "--out", out]) == 0
    verdicts = read_json(out)["report"]["verdicts"]
    assert verdicts["conditional_violation"] is False
    assert verdicts["nontrivial"] is False


def test_demo_trace_has_world_column(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 3, "master_seed": 11, "audit_points": [0.4]},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": 50},
        },
    )
    trace = tmp_path / "t.csv"
    assert run_cli(
        ["demo", "--config", cfg, "--out", tmp_path / "d.json", "--trace", trace]
    ) == 0
    with open(trace, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["world", "replication", "point", "tau_hat", "g", "risk_exceeded"]
    assert len(rows) == 1 + 2 * 3  # base + perturbed, 3 replications, 1 point
    assert {r[0] for r in rows[1:]} == {"base", "perturbed"}


def test_oracle_joint(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "oracle": {"n": 3, "x": "joint"}},
    )
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["value"] == 0.0
    assert rep["report"]["total_probability"] == pytest.approx(1.0, abs=1e-12)
    assert rep["report"]["n_outcomes"] == 4  # occupancy vectors of 3 into 2 cells


def test_oracle_budget_exits_5(tmp_path):
    world = world_to_dict(make_three_cell())
    # pad to 10 cells by splitting: easier to just write a 10-cell uniform world
    cells = [
        {
            "left": i / 10,
            "right": (i + 1) / 10,
            "mass": 0.1,
            "expert": i % 2,
            "fast": 0,
            "score": i / 10,
        }
        for i in range(10)
    ]
    world_path = tmp_path / "w10.json"
    world_path.write_text(json.dumps({"alphabet_size": 2, "cells": cells}))
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": str(world_path), "oracle": {"n": 40, "x": "joint"}},
    )
    assert run_cli(["oracle", "--config", cfg]) == 5


def test_oracle_trivial_fast_prob_zero(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "oracle": {"n": 4, "x": 0.4},
            "algorithm": "trivial",
        },
    )
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--config", cfg, "--out", out]) == 0
    assert read_json(out)["report"]["value"] == 0.0


def test_validate_world_good(tmp_path, w1_path):
    cfg = write_config(tmp_path, "c.json", {"world": w1_path})
    out = tmp_path / "v.json"
    assert run_cli(["validate-world", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["report"]["valid"] is True
    assert rep["report"]["violations"] == []


def test_validate_world_bad_exits_3(tmp_path):
    bad = {"alphabet_size": 2, "cells": [dict(c) for c in W1_DICT["cells"]]}
    bad["cells"][1]["left"] = 0.7
    world_path = tmp_path / "bad.json"
    world_path.write_text(json.dumps(bad))
    cfg = write_config(tmp_path, "c.json", {"world": str(world_path)})
    out = tmp_path / "v.json"
    assert run_cli(["validate-world", "--config", cfg, "--out", out]) == 3
    rep = read_json(out)
    assert rep["report"]["valid"] is False
    assert rep["report"]["violations"]


def test_reports_embed_config_without_workers(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 20, "master_seed": 2},
            "calibration": {"n": 20},
        },
    )
    out = tmp_path / "a.json"
    run_cli(["audit", "--config", cfg, "--out", out, "--workers", 4])
    rep = read_json(out)
    assert "workers" not in json.dumps(rep)
    assert rep["config"]["mc"]["replications"] == 20


def test_repo_configs_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    for name, command in [
        ("calibrate_w1.json", "calibrate"),
        ("oracle_w1.json", "oracle"),
        ("audit_w1.json", "audit"),
    ]:
        cfg = root / "configs" / name
        payload = json.loads(cfg.read_text())
        payload["world"] = str(root / "configs" / "w1.json")
        rewritten = write_config(tmp_path, name, payload)
        out = tmp_path / f"{name}.out"
        assert run_cli([command, "--config", rewritten, "--out", out]) == 0


def test_delta_split_defaults_to_half_alpha(tmp_path, w1_path):
    pac = {"epsilon": 0.0, "alpha": 0.1, "threshold_grid": [0.5, 0.95]}
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "world": w1_path,
            "loss": {"kind": "zero_one", "epsilon": 0.0},
            "pac": pac,
            "calibration": {"n": 100, "seed": 7},
        },
    )
    out = tmp_path / "r.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["config"]["pac"]["delta_split"] == 0.05
    assert rep["report"]["tau_hat"] == 0.5


def _console_script() -> list[str]:
    """The ``pacroute`` command: the installed script if one is on PATH, else
    the ``[project.scripts]`` target run as a setuptools script would run it."""
    script = shutil.which("pacroute")
    if script:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pacroute"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code]


def test_console_script_entry_point(tmp_path, w1_path):
    cfg = write_config(tmp_path, "c.json", {"world": w1_path})
    proc = subprocess.run(
        _console_script() + ["validate-world", "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert '"valid": true' in proc.stdout


def test_float_format_17_digits(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 20, "seed": 1}},
    )
    out = tmp_path / "r.json"
    run_cli(["calibrate", "--config", cfg, "--out", out])
    text = out.read_text()
    assert "0.10000000000000001" in text  # alpha = 0.1 at 17 significant digits