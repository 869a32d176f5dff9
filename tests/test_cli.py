import csv
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pacroute import cli, simulate
from pacroute._kernels import cell_indices, occupancy_counts
from pacroute.adversary import perturb
from pacroute.calibrate import PacConfig
from pacroute.cli import main
from pacroute.risk import LossSpec
from pacroute.simulate import CHUNK, McConfig

from conftest import child_env, make_w1, world_to_dict

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


@pytest.mark.parametrize(
    "loss",
    [
        {"kind": "zero_one", "epsilon": "0"},
        {"kind": "zero_one", "epsilon": False},
        {"kind": "table", "epsilon": 0.0, "table": [["0", True], [True, "0"]]},
        {"kind": "table", "epsilon": 0.0, "table": [[0.0, True], [1.0, 0.0]]},
        {"kind": "table", "epsilon": 0.0, "table": ["01", "10"]},
    ],
    ids=["epsilon_string", "epsilon_bool", "table_strings", "table_bool",
         "table_rows_strings"],
)
def test_loss_entries_must_be_numbers(tmp_path, w1_path, capsys, loss):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "loss": loss,
         "calibration": {"n": 100, "seed": 7}},
    )
    out = tmp_path / "r.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: invalid loss spec:" in err
    assert "must be a " in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "entry", [{}, None, "0.5", True], ids=["object", "null", "string", "bool"]
)
@pytest.mark.parametrize(
    "section, key", [("pac", "threshold_grid"), ("mc", "audit_points")]
)
def test_list_entries_must_be_numbers(tmp_path, w1_path, capsys, section, key, entry):
    payload = {
        **BASE_CONFIG,
        "world": w1_path,
        "mc": {"replications": 5, "master_seed": 3},
        "calibration": {"n": 40},
    }
    payload[section] = {**payload[section], key: [entry]}
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: {section}.{key} must be a list of numbers" in err
    assert not out.exists()


def test_nan_epsilon_exits_2(tmp_path, w1_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "world": w1_path,
            "loss": {"kind": "zero_one", "epsilon": float("nan")},
            "pac": {**BASE_CONFIG["pac"], "epsilon": float("nan")},
            "calibration": {"n": 10, "seed": 1},
        },
    )
    assert run_cli(["calibrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "invalid loss spec: epsilon must be >= 0, got nan" in err
    assert "must equal" not in err


@pytest.mark.parametrize(
    "loss",
    [
        {"kind": "table", "epsilon": 0.0, "table": [[0, math.nan], [1, 0]]},
        {"kind": "table", "epsilon": 0.0, "table": [[0, 1], [math.inf, 0]]},
        {"kind": "table", "epsilon": math.inf, "table": [[0, 1], [1, 0]]},
    ],
    ids=["table_nan", "table_inf", "epsilon_inf"],
)
def test_non_finite_loss_exits_2_before_any_replication(
    tmp_path, w1_path, capsys, no_replications, loss
):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "loss": loss,
         "pac": {**BASE_CONFIG["pac"], "epsilon": loss["epsilon"]},
         "mc": {"replications": 20, "master_seed": 3}, "calibration": {"n": 40}},
    )
    out = tmp_path / "audit.json"
    assert run_cli(["audit", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "invalid loss spec:" in err
    assert "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_twin_audit_points_audited_once(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 4, "master_seed": 3,
                   "audit_points": [0.3, 0.3, 0.30000000000000004]},
            "calibration": {"n": 100},
        },
    )
    out, trace = tmp_path / "a.json", tmp_path / "t.csv"
    assert run_cli(["audit", "--config", cfg, "--out", out, "--trace", trace]) == 0
    rep = read_json(out)
    assert rep["config"]["mc"]["audit_points"] == [0.3]
    assert [p["x"] for p in rep["report"]["points"]] == [0.3]
    assert len(trace.read_text().splitlines()) == 1 + 4


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


def test_demo_workers_byte_identical(tmp_path, w1_path, forks, monkeypatch):
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
    # --workers changes nothing; the split of lanes over processes is chosen
    # from the run, so a run large enough to fork is checked against itself
    # run in-process, on both grids
    n, limit = 60, simulate.FORK_MIN_DRAWS
    for grid in ([0.5, 0.95], "auto"):
        big = write_config(tmp_path, "big.json", {
            **BASE_CONFIG, "world": w1_path,
            "pac": {**BASE_CONFIG["pac"], "threshold_grid": grid},
            "mc": {"replications": -(-limit // n), "master_seed": 11},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": n},
        })
        outs = [tmp_path / "forked.json", tmp_path / "here.json"]
        for out, fewest in zip(outs, (limit, math.inf)):
            forks.clear()
            monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", fewest)
            assert run_cli(["demo", "--config", big, "--out", out]) == 0
            assert len(forks) == (fewest == limit)
        assert outs[0].read_bytes() == outs[1].read_bytes()


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


@pytest.mark.parametrize("existed", [False, True])
def test_demo_precondition_leaves_the_trace_path_as_it_was(tmp_path, w1_path, existed):
    # perturb refuses x_star before any replication, so no row is ever written
    cfg = write_config(tmp_path, "c.json", {**_audit_payload(w1_path),
                                            "demo": {"x_star": 0.9, "eta": 0.01, "n": 20}})
    trace = tmp_path / "t.csv"
    if existed:
        trace.write_text("kept")
    assert run_cli(["demo", "--config", cfg, "--trace", trace]) == 4
    if existed:
        assert trace.read_text() == "kept"
    else:
        assert not trace.exists()


def test_run_failing_after_trace_rows_removes_the_trace(tmp_path, w1_path, capsys,
                                                        monkeypatch):
    # the first chunk's rows are written before the second chunk is drawn
    calls, written = [], []

    def second_chunk_fails(*args, **kwargs):
        calls.append(kwargs["start"])
        if len(calls) == 2:
            written.append(trace.exists())  # the first chunk's rows went to it
            raise MemoryError("second chunk")
        return occupancy_counts(*args, **kwargs)

    monkeypatch.setattr(simulate, "_replication_uniforms", second_chunk_fails)
    payload = {**_audit_payload(w1_path), "mc": {"replications": CHUNK + 1, "master_seed": 3},
               "calibration": {"n": 100}}
    trace, out = tmp_path / "t.csv", tmp_path / "r.json"
    argv = ["audit", "--config", write_config(tmp_path, "c.json", payload), "--out", out,
            "--trace", trace]
    assert run_cli(argv) == 2
    assert calls == [0, CHUNK]
    assert written == [True]
    assert "config error: the run does not fit in memory: second chunk" in capsys.readouterr().err
    assert not trace.exists() and not out.exists()


def _chunked_trace(world, loss, pac, n, mc, stream, points, prefix=""):
    """The trace rows of one lane from a single ``trace_blocks`` call over
    every chunk's thresholds, and each point's fast-route count."""
    chunks = list(simulate._tau_values_for_replications(
        world, loss, pac, n, mc.replications, mc.master_seed, stream))
    assert len(chunks) == 3
    taus = np.concatenate([t for _, t in chunks])
    idx = cell_indices(world.rights, np.array(points))
    fast = [int(np.sum(score <= taus)) for score in world.scores[idx]]
    return "".join(simulate.trace_blocks(world, loss, points, taus, prefix)), fast


@pytest.mark.parametrize("grid", [[0.5, 0.95], "auto"], ids=["fixed", "auto"])
@pytest.mark.parametrize("command", ["audit", "demo"])
def test_chunk_boundaries_never_show(tmp_path, w1_path, command, grid):
    reps = 2 * CHUNK + 3
    payload = {**_audit_payload(w1_path), "mc": {"replications": reps, "master_seed": 5},
               "calibration": {"n": 100}, "demo": {"x_star": 0.4, "eta": 0.01, "n": 100}}
    payload["pac"] = {**payload["pac"], "threshold_grid": grid}
    trace, out = tmp_path / "t.csv", tmp_path / "r.json"
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli([command, "--config", cfg, "--out", out, "--trace", trace]) == 0
    report = read_json(out)["report"]
    world, loss = make_w1(), LossSpec(kind="zero_one", epsilon=0.0)
    pac = PacConfig(**{**payload["pac"], "threshold_grid": None if grid == "auto" else grid})
    mc = McConfig(reps, 5)
    if command == "audit":
        lanes = [(world, simulate.STREAM_AUDIT, report, "")]
    else:
        perturbed = perturb(world, loss, 0.4, 0.01, 100)[1]
        lanes = [(world, simulate.STREAM_AUDIT, report["base_audit"], "base,"),
                 (perturbed, simulate.STREAM_PERTURBED_AUDIT, report["perturbed_audit"],
                  "perturbed,")]
    header = "replication,point,tau_hat,g,risk_exceeded\r\n"
    text = header if command == "audit" else "world," + header
    for w, stream, audit, prefix in lanes:
        points = [p["x"] for p in audit["points"]]
        rows, fast = _chunked_trace(w, loss, pac, 100, mc, stream, points, prefix)
        text += rows
        assert [p["est_fast_prob"] for p in audit["points"]] == [k / reps for k in fast]
    assert trace.read_bytes() == text.encode("utf-8")


def test_demo_without_bad_label_exits_4(tmp_path, capsys):
    # x_star's cell agrees, but no label is worse than epsilon against fast label 0
    world = {"alphabet_size": 3, "cells": [
        {"left": 0.0, "right": 0.8, "mass": 0.8, "expert": 0, "fast": 0, "score": 0.2},
        {"left": 0.8, "right": 1.0, "mass": 0.2, "expert": 0, "fast": 1, "score": 0.9},
    ]}
    loss = {"kind": "table", "epsilon": 0.5, "table": [[0, 0.1, 0.1], [1, 0, 1], [1, 1, 0]]}
    cfg = write_config(tmp_path, "c.json", {
        "world": write_config(tmp_path, "w.json", world), "loss": loss,
        "pac": {**BASE_CONFIG["pac"], "epsilon": 0.5},
        "mc": {"replications": 20, "master_seed": 11},
        "demo": {"x_star": 0.4, "eta": 0.01, "n": 100},
    })
    assert run_cli(["demo", "--config", cfg, "--out", tmp_path / "r.json"]) == 4
    err = capsys.readouterr().err
    assert ("demo precondition error: no label has loss > 0.5 against fast label 0 at "
            "x_star=0.4; the perturbation cannot be built") in err
    assert not (tmp_path / "r.json").exists()


@pytest.fixture
def no_replications(monkeypatch):
    """Fail the test if any replication's uniforms are drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(simulate, "_replication_uniforms", refuse)


@pytest.mark.parametrize("algorithm", ["calibrated", "trivial"])
@pytest.mark.parametrize("command", ["audit", "demo"])
def test_undersized_table_loss_exits_2(tmp_path, capsys, no_replications, command, algorithm):
    # the trivial router draws nothing, so only the bad-cell flags can refuse the table
    world = {"alphabet_size": 3, "cells": [
        {"left": 0.0, "right": 0.5, "mass": 0.5, "expert": 0, "fast": 0, "score": 0.1},
        {"left": 0.5, "right": 1.0, "mass": 0.5, "expert": 2, "fast": 0, "score": 0.9},
    ]}
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": write_config(tmp_path, "w.json", world),
            "loss": {"kind": "table", "epsilon": 0.0, "table": [[0, 1], [1, 0]]},
            "mc": {"replications": 20, "master_seed": 11},
            "calibration": {"n": 100},
            "demo": {"x_star": 0.2, "eta": 0.01, "n": 100},
            "algorithm": algorithm,
        },
    )
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "loss table is 2x2 but the world uses 3 labels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf])
def test_demo_bad_eta_exits_2_before_any_replication(
    tmp_path, w1_path, capsys, no_replications, eta
):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 20, "master_seed": 11},
            "demo": {"x_star": 0.4, "eta": eta, "n": 100},
        },
    )
    out = tmp_path / "r.json"
    assert run_cli(["demo", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"eta must be finite and > 0, got {eta!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


# A valid world, but no float ball around x_star is light enough and still
# holds a piece of x_star's cell.
NARROW_CELL_WORLDS = {
    # every float ball around 0 holds most of cell 0's mass
    "subnormal_cell": ([(0.0, 1e-320, 0.5, 0, 0.1), (1e-320, 1.0, 0.5, 0, 0.9)], 0.0, 0),
    # the light enough ball 0.5 +- 2.2e-17 rounds to the point 0.5: mass 0
    "ball_rounds_to_point": ([(0.0, 0.499999999999999, 0.05, 0, 0.1),
                              (0.499999999999999, 0.500000000000001, 0.9, 0, 0.5),
                              (0.500000000000001, 1.0, 0.05, 1, 0.9)], 0.5, 1),
}


@pytest.mark.parametrize("case", NARROW_CELL_WORLDS.values(), ids=NARROW_CELL_WORLDS)
def test_demo_near_atomic_cell_exits_4(tmp_path, capsys, no_replications, case):
    cells, x_star, cell = case
    world = {"alphabet_size": 2, "cells": [
        {"left": left, "right": right, "mass": mass, "expert": expert, "fast": 0,
         "score": score}
        for left, right, mass, expert, score in cells
    ]}
    world_path = write_config(tmp_path, "w.json", world)
    cfg = {**BASE_CONFIG, "world": world_path}
    assert run_cli(["validate-world", "--config", write_config(tmp_path, "v.json", cfg)]) == 0
    cfg = write_config(
        tmp_path,
        "c.json",
        {**cfg, "mc": {"replications": 20, "master_seed": 11},
         "demo": {"x_star": x_star, "eta": 0.01, "n": 100}},
    )
    capsys.readouterr()
    assert run_cli(["demo", "--config", cfg, "--out", tmp_path / "r.json"]) == 4
    err = capsys.readouterr().err
    assert "no float ball is light enough" in err
    assert f"x_star={x_star!r} (cell {cell})" in err
    assert "Traceback" not in err


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


def test_unwritable_out_exits_2(tmp_path, w1_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 10, "seed": 1}},
    )
    out = tmp_path / "missing" / "report.json"
    assert run_cli(["calibrate", "--config", cfg, "--out", out]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("out", [True, 7], ids=["bool", "int"])
def test_non_string_out_exits_2(tmp_path, w1_path, capsys, out):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 10, "seed": 1}, "out": out},
    )
    assert run_cli(["calibrate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error: config['out'] must be str" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["audit", "demo"])
def test_unwritable_trace_exits_2_before_any_replication(
    tmp_path, w1_path, capsys, monkeypatch, command
):
    def refuse(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(cli, "audit_profile", refuse)
    monkeypatch.setattr(cli, "demo_with_replications", refuse)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 5, "master_seed": 3},
            "calibration": {"n": 100},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": 50},
        },
    )
    trace = tmp_path / "missing" / "t.csv"
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", cfg, "--out", out, "--trace", trace]) == 2
    assert f"config error: cannot write {trace}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, seam", [
    ("calibrate", "sample_calibration"),
    ("oracle", "enumerate_distribution"),
    ("audit", "audit_profile"),
])
def test_run_too_large_for_memory_exits_2(tmp_path, w1_path, capsys, monkeypatch,
                                          command, seam):
    # numpy's message for an allocation too large for memory; nothing is
    # allocated here, and n is the largest the bound accepts
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, seam, refuse)
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "mc": {"replications": 5, "master_seed": 3},
            "calibration": {"n": cli.MAX_N, "seed": 1},
            "oracle": {"n": cli.MAX_N, "x": "joint"},
        },
    )
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: the run does not fit in memory: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, seam", [
    ("calibrate", "calibration", "sample_calibration"),
    ("audit", "calibration", "audit_profile"),
    ("demo", "demo", "demo_with_replications"),
    ("oracle", "oracle", "enumerate_distribution"),
])
def test_n_above_bound_exits_2_before_any_work(tmp_path, w1_path, capsys, monkeypatch,
                                               command, section, seam):
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, seam, refuse)
    sections = {"calibration": {"n": 100, "seed": 1}, "oracle": {"n": 100, "x": "joint"},
                "demo": {"x_star": 0.4, "eta": 0.01, "n": 100}}
    sections[section]["n"] = 10**13
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIG, "world": w1_path,
                                            "mc": {"replications": 5, "master_seed": 3},
                                            **sections})
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    # refused by the bound, not by the MemoryError handler
    assert f"config error: {section}.n must be <= {cli.MAX_N}, got {10**13}" in err
    assert "does not fit in memory" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "demo"])
def test_trace_naming_the_report_exits_2_before_any_replication(
    tmp_path, w1_path, capsys, no_replications, command
):
    # demo: the report path comes from the config and is spelled differently
    out = tmp_path / "r.json"
    out.write_text("kept")
    payload = {**_audit_payload(w1_path), **({"out": str(out)} if command == "demo" else {})}
    argv = [command, "--config", write_config(tmp_path, "c.json", payload),
            "--trace", f"{tmp_path}/./r.json" if command == "demo" else out]
    if command == "audit":
        argv += ["--out", out]
    assert run_cli(argv) == 2
    assert "config error: --trace and the report both name" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_unwritable_out_exits_2_before_any_replication(
    tmp_path, w1_path, capsys, no_replications
):
    # the trace is probed first; a file that exists keeps its bytes
    trace = tmp_path / "t.csv"
    trace.write_text("kept")
    out = tmp_path / "missing" / "r.json"
    cfg = write_config(tmp_path, "c.json", _audit_payload(w1_path))
    assert run_cli(["demo", "--config", cfg, "--out", out, "--trace", trace]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err
    assert trace.read_text() == "kept"
    trace.unlink()
    assert run_cli(["demo", "--config", cfg, "--out", out, "--trace", trace]) == 2
    assert not trace.exists()  # the probe leaves no file behind


@pytest.mark.parametrize("command", ["calibrate", "oracle", "validate-world"])
def test_trace_refused_by_commands_that_write_none(tmp_path, w1_path, capsys, command):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            **BASE_CONFIG,
            "world": w1_path,
            "calibration": {"n": 10, "seed": 1},
            "oracle": {"n": 5},
        },
    )
    trace = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as e:
        run_cli([command, "--config", cfg, "--trace", trace])
    assert e.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not trace.exists()


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


def test_oracle_ten_cells_n40_exits_0(tmp_path):
    # C(49, 9) ~ 2.05e9 occupancy vectors: answered in closed form
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
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)["report"]
    assert rep["total_probability"] == pytest.approx(1.0, abs=1e-12)
    assert rep["n_outcomes"] == math.comb(49, 9)


def test_oracle_refuses_outcome_count_no_report_can_write(tmp_path, monkeypatch, capsys):
    # C(10**4 + 1099, 1099) has about 1580 digits, past a 640-digit limit on
    # int-to-str conversion: refused before the law is entered
    cells = [{"left": i / 1100, "right": (i + 1) / 1100, "mass": 1 / 1100, "expert": 0,
              "fast": i % 2, "score": i / 1100} for i in range(1100)]
    world_path = tmp_path / "w.json"
    world_path.write_text(json.dumps({"alphabet_size": 2, "cells": cells}))
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIG, "world": str(world_path),
                                            "oracle": {"n": 10_000, "x": "joint"}})

    def refuse(*args, **kwargs):
        raise AssertionError("law entered")

    monkeypatch.setattr(simulate, "_threshold_law", refuse)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(["oracle", "--config", cfg, "--out", tmp_path / "o.json"]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert "oracle.n = 10000 on 1100 cells" in err and "640 digits" in err
    assert not (tmp_path / "o.json").exists()


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


@pytest.mark.parametrize("key, value", [("mass", "0.8"), ("expert", 1.7)])
def test_validate_world_refuses_non_numbers_exits_3(tmp_path, key, value):
    bad = {"alphabet_size": 2, "cells": [dict(c) for c in W1_DICT["cells"]]}
    bad["cells"][0][key] = value
    world_path = tmp_path / "bad.json"
    world_path.write_text(json.dumps(bad))
    cfg = write_config(tmp_path, "c.json", {"world": str(world_path)})
    out = tmp_path / "v.json"
    assert run_cli(["validate-world", "--config", cfg, "--out", out]) == 3
    rep = read_json(out)
    assert rep["report"]["valid"] is False
    assert rep["report"]["violations"] == [
        f"malformed world object: cell 0: {key} must be "
        f"{'an integer' if key == 'expert' else 'a number'}, got {value!r}"
    ]


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


@pytest.mark.parametrize("command", ["calibrate", "audit"])
def test_test_level_rounding_to_one_runs(tmp_path, command, capsys):
    # alpha - delta_split rounds to 1.0: every point then counts as bad, each
    # count below n has p-value 0, and b* = n - 1
    root = Path(__file__).resolve().parents[1]
    payload = json.loads((root / "configs" / f"{command}_w1.json").read_text())
    payload["world"] = str(root / "configs" / "w1.json")
    payload["pac"].update(alpha=1.0, delta_split=1e-17)
    assert payload["pac"]["alpha"] - payload["pac"]["delta_split"] == 1.0
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 0, capsys.readouterr().err
    if command == "calibrate":
        assert [t["p_value"] for t in read_json(out)["report"]["tested"]] == [0.0, 0.0]


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


def test_commands_do_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma on its first call (about 11 ms); pytest
    # may import it itself, so the commands run in a fresh process
    root = Path(__file__).resolve().parents[1]
    auto = json.loads((root / "configs/calibrate_w1.json").read_text())
    auto["pac"]["threshold_grid"] = "auto"
    runs = [(cmd, f"configs/{cmd}_w1.json") for cmd in ("calibrate", "audit", "demo")]
    runs.append(("calibrate", write_config(tmp_path, "auto.json", auto)))
    code = (
        "import sys\n"
        "from pacroute.cli import main\n"
        f"for i, (cmd, cfg) in enumerate({runs!r}):\n"
        f"    assert main([cmd, '--config', cfg, '--out', {str(tmp_path)!r} + f'/{{i}}.json']) == 0\n"
        "    print(cmd, cfg, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [word for cmd, cfg in runs for word in (cmd, cfg, "False")]


def test_float_format_shortest_repr(tmp_path, w1_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {**BASE_CONFIG, "world": w1_path, "calibration": {"n": 20, "seed": 1}},
    )
    out = tmp_path / "r.json"
    run_cli(["calibrate", "--config", cfg, "--out", out])
    text = out.read_text()
    # a float is its shortest round-trip repr, and an integral one stays a float
    assert '"alpha": 0.1' in text
    assert '"epsilon": 0.0' in text

# A JSON integer no float can hold: float() of it raises OverflowError.
HUGE = 10**400


def _audit_payload(w1_path):
    return {**BASE_CONFIG, "world": w1_path, "mc": {"replications": 20, "master_seed": 3},
            "calibration": {"n": 40}, "demo": {"x_star": 0.4, "eta": 0.01, "n": 40},
            "oracle": {"n": 3}}


# (command, section, key, value); each value holds HUGE where a number goes
HUGE_CONFIG_FIELDS = [
    ("audit", "pac", "alpha", HUGE),
    ("audit", "pac", "delta_split", HUGE),
    ("audit", "pac", "threshold_grid", [0.5, HUGE]),
    ("audit", "mc", "audit_points", [0.4, HUGE]),
    ("demo", "demo", "eta", HUGE),
    ("demo", "demo", "x_star", HUGE),
    ("oracle", "oracle", "x", HUGE),
    ("audit", "loss", "epsilon", HUGE),
    ("audit", "loss", "table", [[0, HUGE], [1, 0]]),
]


@pytest.mark.parametrize(
    "command, section, key, value", HUGE_CONFIG_FIELDS,
    ids=[f"{s}.{k}" for _, s, k, _ in HUGE_CONFIG_FIELDS],
)
def test_number_no_float_can_hold_exits_2(
    tmp_path, w1_path, capsys, no_replications, command, section, key, value
):
    payload = _audit_payload(w1_path)
    if section == "loss":
        payload["loss"] = {"kind": "table", "epsilon": 0.0, "table": [[0, 1], [1, 0]]}
    payload[section] = {**payload[section], key: value}
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert "a float can hold" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["left", "right", "mass", "score"])
@pytest.mark.parametrize("command", ["calibrate", "audit", "validate-world"])
def test_world_number_no_float_can_hold_exits_3(
    tmp_path, w1_path, capsys, no_replications, command, key
):
    world = {"alphabet_size": 2, "cells": [dict(c) for c in W1_DICT["cells"]]}
    world["cells"][0][key] = HUGE
    payload = {**_audit_payload(w1_path), "world": write_config(tmp_path, "w.json", world),
               "calibration": {"n": 40, "seed": 1}}
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    expected = f"malformed world object: cell 0: {key} must be a number a float can hold"
    if command == "validate-world":
        assert read_json(out)["report"]["violations"] == [expected]
    else:
        assert expected in err
        assert not out.exists()


def test_integral_float_ints_match_the_integer_form(tmp_path, w1_path):
    def report(n, replications, master_seed, seed):
        payload = {**BASE_CONFIG, "world": w1_path,
                   "mc": {"replications": replications, "master_seed": master_seed},
                   "calibration": {"n": n, "seed": seed}}
        cfg = write_config(tmp_path, "c.json", payload)
        outs = {}
        for command in ("calibrate", "audit"):
            outs[command] = tmp_path / f"{command}.json"
            assert run_cli([command, "--config", cfg, "--out", outs[command]]) == 0
        return {command: path.read_bytes() for command, path in outs.items()}

    assert report(60.0, 40.0, 20250810.0, 7.0) == report(60, 40, 20250810, 7)


@pytest.mark.parametrize("section, key", [("mc", "master_seed"), ("calibration", "seed")])
def test_seed_beyond_2_53_written_as_float_exits_2(tmp_path, w1_path, capsys, section, key):
    payload = {**_audit_payload(w1_path), "calibration": {"n": 40, "seed": 1}}
    payload[section] = {**payload[section], key: 2.0**60}
    command = "audit" if section == "mc" else "calibrate"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {section}.{key} written as a float must be at most 2**53" in err


@pytest.mark.parametrize("seed_flag", [False, True], ids=["config", "flag"])
def test_negative_calibration_seed_is_named(tmp_path, w1_path, capsys, seed_flag):
    seed = 7 if seed_flag else -1
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIG, "world": w1_path,
                                            "calibration": {"n": 40, "seed": seed}})
    argv = ["calibrate", "--config", cfg] + (["--seed", -1] if seed_flag else [])
    assert run_cli(argv) == 2
    assert "config error: calibration.seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.5, -0.5, math.nan])
@pytest.mark.parametrize("command, key", [("demo", "x_star"), ("oracle", "x")])
def test_out_of_range_x_is_named(tmp_path, w1_path, capsys, no_replications, command, key,
                                 value):
    payload = _audit_payload(w1_path)
    payload[command] = {**payload[command], key: value}
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: {command}.{key} must be in [0, 1], got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["pac"].update(threshold_gird=[0.5, 0.95]),
         "unknown key 'threshold_gird' in pac"),
        (lambda p: p.update(algoritm="trivial"), "unknown key 'algoritm' in config"),
        (lambda p: p["loss"].update(tabel=[[0, 1], [1, 0]]), "unknown key 'tabel' in loss"),
        (lambda p: p["mc"].update(replication=10), "unknown key 'replication' in mc"),
        (lambda p: p["oracle"].update(y=0.5), "unknown key 'y' in oracle"),
    ],
    ids=["pac_grid", "algorithm", "loss_table", "mc", "oracle"],
)
def test_misspelled_key_exits_2_before_any_work(
    tmp_path, w1_path, capsys, no_replications, edit, message
):
    payload = json.loads(json.dumps(_audit_payload(w1_path)))
    edit(payload)
    out = tmp_path / "r.json"
    assert run_cli(["audit", "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["loss"].update(epsilon=0.5),
         "pac.epsilon (0.0) must equal loss.epsilon (0.5)"),
        (lambda p: p.update(algorithm="bogus"),
         "algorithm must be 'calibrated' or 'trivial', got 'bogus'"),
    ],
    ids=["epsilon_mismatch", "algorithm"],
)
@pytest.mark.parametrize("command", ["audit", "demo", "oracle"])
def test_refused_values_exit_2_before_any_work(
    tmp_path, w1_path, capsys, no_replications, command, edit, message
):
    payload = json.loads(json.dumps(_audit_payload(w1_path)))
    edit(payload)
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", write_config(tmp_path, "c.json", payload),
                    "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _cells(*cells):
    """A two-label world of (left, right, mass, score) cells, all labels 0."""
    return {"alphabet_size": 2, "cells": [
        {"left": left, "right": right, "mass": mass, "expert": 0, "fast": 0, "score": score}
        for left, right, mass, score in cells]}


MALFORMED = "malformed world object: "


@pytest.mark.parametrize(
    "world, violations",
    [
        ({"alphabet_size": 2, "cells": [{k: v for k, v in c.items() if k != "left"}
                                        for c in W1_DICT["cells"]]},
         [MALFORMED + "cell 0 is missing required key 'left'"]),
        ({"alphabet_size": 2, "cells": {"a": 1}},
         [MALFORMED + "world['cells'] must be list, got dict"]),
        ([W1_DICT], [MALFORMED + "world must be a JSON object, got list"]),
        ({"alphabet_size": 2, "cells": [1]}, [MALFORMED + "cell 0 must be a JSON object, got int"]),
        ({"alphabet_size": 2, "cells": []}, ["world has no cells"]),
        (_cells((0.0, 0.8, 0.8, 0.1), (0.8, 0.8, 0.0, 0.5), (0.8, 1.0, 0.2, 0.9)),
         ["cell 1: left 0.8 must be < right 0.8"]),
        (_cells((0.0, 0.5, 1.5, 0.1), (0.5, 1.0, -0.5, 0.9)), ["cell 1: mass -0.5 must be >= 0"]),
        (_cells((0.0, 0.5, 0.5, math.inf), (0.5, 1.0, 0.5, 0.9)),
         ["cell 0: score inf must be finite"]),
        (_cells((0.1, 0.5, 0.5, 0.1), (0.5, 1.0, 0.5, 0.9)), ["first cell must start at 0, got 0.1"]),
        (_cells((0.0, 0.5, 0.5, 0.1), (0.5, 0.9, 0.5, 0.9)), ["last cell must end at 1, got 0.9"]),
    ],
    ids=["missing_key", "cells_object", "list_root", "cell_not_object", "no_cells",
         "empty_cell", "negative_mass", "score_1e400", "first_edge", "last_edge"],
)
def test_malformed_world_is_named(tmp_path, capsys, world, violations):
    world_path = tmp_path / "w.json"
    # JSON has no infinity: the score 1e400 overflows to it when read
    world_path.write_text(json.dumps(world).replace("Infinity", "1e400"))
    cfg = write_config(tmp_path, "c.json", {"world": str(world_path)})
    out = tmp_path / "v.json"
    assert run_cli(["validate-world", "--config", cfg, "--out", out]) == 3
    assert read_json(out)["report"]["violations"] == violations


@pytest.mark.parametrize(
    "config_text, world_text, message",
    [
        ("{", None, "config {config} is not valid JSON"),
        ("[]", None, "config root must be a JSON object"),
        (None, "{", "world file {world} is not valid JSON"),
    ],
    ids=["config_json", "config_root_list", "world_json"],
)
def test_unreadable_config_or_world_exits_2(tmp_path, capsys, config_text, world_text,
                                            message):
    world = tmp_path / "w.json"
    world.write_text(world_text or json.dumps(W1_DICT))
    config = tmp_path / "c.json"
    config.write_text(config_text or json.dumps(
        {**BASE_CONFIG, "world": str(world), "calibration": {"n": 40, "seed": 1}}))
    for command in ("calibrate", "validate-world"):
        assert run_cli([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message.format(config=config, world=world)}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "loss, message",
    [
        ({"kind": "zero_one"}, "loss is missing required key 'epsilon'"),
        ([0.0], "config['loss'] must be dict, got list"),
        ({"kind": "table", "epsilon": 0.0, "table": [1, 0]},
         "loss.table must be a list of lists of numbers"),
        ({"kind": "zero_one", "epsilon": 0.0, "table": [[0, 1], [1, 0]]},
         "zero_one loss takes no table"),
        ({"kind": "table", "epsilon": 0.0, "table": [[0, 1], [1]]},
         "loss table row 1 is not length 2"),
    ],
    ids=["missing_key", "list", "table_rows_numbers", "zero_one_table", "ragged_table"],
)
def test_malformed_loss_is_named(tmp_path, w1_path, capsys, loss, message):
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIG, "world": w1_path, "loss": loss,
                                            "calibration": {"n": 40, "seed": 1}})
    assert run_cli(["calibrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid loss spec: {message}" in err
    assert "Traceback" not in err


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config schema\n\n```jsonc\n(.*?)```", readme, re.S).group(1)
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_config_schema_lists_every_accepted_key():
    cfg = _readme_config()
    assert set(cfg) == set(cli._ALLOWED["config"])
    for section, keys in cli._ALLOWED.items():
        if section != "config":
            assert set(cfg[section]) == set(keys), section


@pytest.mark.parametrize("command", ["calibrate", "audit", "demo", "oracle"])
def test_readme_config_runs_every_command(tmp_path, monkeypatch, command):
    # the schema's world path is relative to the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    cfg = write_config(tmp_path, "c.json", _readme_config())
    out = tmp_path / "r.json"
    assert run_cli([command, "--config", cfg, "--out", out]) == 0
    assert read_json(out)["command"] == command
