"""Config-driven command line: calibrate, audit, demo, oracle, validate-world.

Every run is described by a single JSON config file; ``--seed`` and ``--out``
override the config, and ``--workers`` is accepted for compatibility but has
no effect on outputs or on work. ``audit`` and ``demo`` also take ``--trace``,
which streams per-replication CSV rows; the other commands refuse it.

Exit codes: 0 success, 2 config or parse error (an output that cannot be
written included), 3 world validation error, 4 demo precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .calibrate import PacConfig, select_threshold
from .risk import (
    LossSpec,
    exact_deferral_mass,
    exact_miscoverage,
    loss_from_dict,
    loss_to_dict,
)
from .serialize import dump_json, encode_threshold
from .simulate import (
    JOINT,
    DemoPreconditionError,
    McConfig,
    audit_profile,
    demo_with_replications,
    enumerate_distribution,
    trace_blocks,
)
from .worlds import WorldValidationError, load_world, sample_calibration

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WORLD = 3
EXIT_PRECONDITION = 4


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str, kind, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"{where}[{key!r}] must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _parse_loss(cfg: dict) -> LossSpec:
    raw = _require(cfg, "loss", dict)
    try:
        return loss_from_dict(raw)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid loss spec: {e}") from e


def _parse_pac(cfg: dict, loss: LossSpec) -> PacConfig:
    raw = _require(cfg, "pac", dict)
    grid = raw.get("threshold_grid", "auto")
    if grid == "auto":
        grid = None
    elif isinstance(grid, list):
        grid = tuple(float(g) for g in grid)
    else:
        raise ConfigError("pac.threshold_grid must be a list of floats or \"auto\"")
    delta_split = raw.get("delta_split")
    if delta_split is not None:
        delta_split = float(_require(raw, "delta_split", float, "pac"))
    try:
        pac = PacConfig(
            epsilon=float(_require(raw, "epsilon", float, "pac")),
            alpha=float(_require(raw, "alpha", float, "pac")),
            delta_split=delta_split,
            threshold_grid=grid,
        )
    except ValueError as e:
        raise ConfigError(f"invalid pac config: {e}") from e
    if pac.epsilon != loss.epsilon:
        raise ConfigError(
            f"pac.epsilon ({pac.epsilon!r}) must equal loss.epsilon "
            f"({loss.epsilon!r})"
        )
    return pac


def _parse_mc(cfg: dict, seed_override: int | None) -> McConfig:
    raw = _require(cfg, "mc", dict)
    points = raw.get("audit_points", "auto")
    if points == "auto":
        points = None
    elif isinstance(points, list):
        points = tuple(float(p) for p in points)
    else:
        raise ConfigError("mc.audit_points must be a list of floats or \"auto\"")
    master_seed = int(_require(raw, "master_seed", int, "mc"))
    if seed_override is not None:
        master_seed = seed_override
    try:
        return McConfig(
            replications=int(_require(raw, "replications", int, "mc")),
            master_seed=master_seed,
            audit_points=points,
        )
    except ValueError as e:
        raise ConfigError(f"invalid mc config: {e}") from e


def _parse_algorithm(cfg: dict) -> str:
    algorithm = cfg.get("algorithm", "calibrated")
    if algorithm not in ("calibrated", "trivial"):
        raise ConfigError(
            f"algorithm must be 'calibrated' or 'trivial', got {algorithm!r}"
        )
    return algorithm


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _load_world_from_config(cfg: dict):
    path = _require(cfg, "world", str)
    try:
        return path, load_world(path)
    except OSError as e:
        raise ConfigError(f"cannot read world file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"world file {path} is not valid JSON: {e}") from e


def _mc_to_dict(mc: McConfig) -> dict:
    return {
        "replications": mc.replications,
        "master_seed": mc.master_seed,
        "audit_points": "auto" if mc.audit_points is None else list(mc.audit_points),
    }


def _pac_to_dict(pac: PacConfig) -> dict:
    return {
        "epsilon": pac.epsilon,
        "alpha": pac.alpha,
        "delta_split": pac.delta_split,
        "threshold_grid": "auto"
        if pac.threshold_grid is None
        else list(pac.threshold_grid),
    }


def _write_text(path: str, text: str, blocks=()) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
            f.writelines(blocks)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _emit(report: dict, out_path: str | None) -> None:
    text = dump_json(report) + "\n"
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _write_trace(path: str, header, blocks) -> None:
    """The CSV header row, then the row text of ``simulate.trace_blocks``."""
    _write_text(path, ",".join(header) + "\r\n", blocks)


def _cmd_validate_world(cfg: dict, args) -> int:
    path = _require(cfg, "world", str)
    try:
        load_world(path)
        violations: list[str] = []
    except WorldValidationError as e:
        violations = e.violations
    except OSError as e:
        raise ConfigError(f"cannot read world file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"world file {path} is not valid JSON: {e}") from e
    report = {
        "command": "validate-world",
        "version": __version__,
        "config": {"world": path},
        "report": {"valid": not violations, "violations": violations},
    }
    _emit(report, args.out or cfg.get("out"))
    return EXIT_OK if not violations else EXIT_WORLD


def _cmd_calibrate(cfg: dict, args) -> int:
    world_path, world = _load_world_from_config(cfg)
    loss = _parse_loss(cfg)
    pac = _parse_pac(cfg, loss)
    cal = _require(cfg, "calibration", dict)
    n = int(_require(cal, "n", int, "calibration"))
    seed = int(_require(cal, "seed", int, "calibration"))
    if args.seed is not None:
        seed = args.seed
    data = sample_calibration(world, n, seed)
    outcome = select_threshold(data, world, loss, pac)
    report = {
        "command": "calibrate",
        "version": __version__,
        "config": {
            "world": world_path,
            "loss": loss_to_dict(loss),
            "pac": _pac_to_dict(pac),
            "calibration": {"n": n, "seed": seed},
        },
        "report": {
            "tau_hat": encode_threshold(outcome.tau_hat),
            "n": outcome.n,
            "tested": [
                {
                    "tau": t.tau,
                    "exceedances": t.exceedances,
                    "p_value": t.p_value,
                    "rejected": t.rejected,
                }
                for t in outcome.tested
            ],
            "exact_miscoverage": exact_miscoverage(world, loss, outcome.tau_hat),
            "exact_deferral_mass": exact_deferral_mass(world, outcome.tau_hat),
        },
    }
    _emit(report, args.out or cfg.get("out"))
    return EXIT_OK


def _cmd_audit(cfg: dict, args) -> int:
    world_path, world = _load_world_from_config(cfg)
    loss = _parse_loss(cfg)
    pac = _parse_pac(cfg, loss)
    mc = _parse_mc(cfg, args.seed)
    algorithm = _parse_algorithm(cfg)
    cal = _require(cfg, "calibration", dict)
    n = int(_require(cal, "n", int, "calibration"))
    if args.trace:
        _write_text(args.trace, "")  # an unwritable path fails before any replication
    audit, taus = audit_profile(world, loss, pac, mc, n, algorithm=algorithm)
    if args.trace:
        points = [p.x for p in audit.points]
        _write_trace(
            args.trace,
            ("replication", "point", "tau_hat", "g", "risk_exceeded"),
            trace_blocks(world, loss, points, taus),
        )
    report = {
        "command": "audit",
        "version": __version__,
        "config": {
            "world": world_path,
            "loss": loss_to_dict(loss),
            "pac": _pac_to_dict(pac),
            "mc": _mc_to_dict(mc),
            "calibration": {"n": n},
            "algorithm": algorithm,
        },
        "report": audit,
    }
    _emit(report, args.out or cfg.get("out"))
    return EXIT_OK


def _cmd_demo(cfg: dict, args) -> int:
    world_path, world = _load_world_from_config(cfg)
    loss = _parse_loss(cfg)
    pac = _parse_pac(cfg, loss)
    mc = _parse_mc(cfg, args.seed)
    algorithm = _parse_algorithm(cfg)
    demo = _require(cfg, "demo", dict)
    x_star = float(_require(demo, "x_star", float, "demo"))
    eta = float(_require(demo, "eta", float, "demo"))
    n = int(_require(demo, "n", int, "demo"))
    if args.trace:
        _write_text(args.trace, "")  # an unwritable path fails before any replication
    report_obj, perturbed, points, base_taus, pert_taus = demo_with_replications(
        world, loss, pac, x_star, eta, n, mc, algorithm=algorithm
    )
    if args.trace:
        lanes = (("base", world, base_taus), ("perturbed", perturbed, pert_taus))
        _write_trace(
            args.trace,
            ("world", "replication", "point", "tau_hat", "g", "risk_exceeded"),
            (
                block
                for name, w, taus in lanes
                for block in trace_blocks(w, loss, points, taus, prefix=f"{name},")
            ),
        )
    report = {
        "command": "demo",
        "version": __version__,
        "config": {
            "world": world_path,
            "loss": loss_to_dict(loss),
            "pac": _pac_to_dict(pac),
            "mc": _mc_to_dict(mc),
            "demo": {"x_star": x_star, "eta": eta, "n": n},
            "algorithm": algorithm,
        },
        "report": report_obj,
    }
    _emit(report, args.out or cfg.get("out"))
    return EXIT_OK


def _cmd_oracle(cfg: dict, args) -> int:
    world_path, world = _load_world_from_config(cfg)
    loss = _parse_loss(cfg)
    pac = _parse_pac(cfg, loss)
    algorithm = _parse_algorithm(cfg)
    oracle = _require(cfg, "oracle", dict)
    n = int(_require(oracle, "n", int, "oracle"))
    x_raw = oracle.get("x", JOINT)
    if x_raw == JOINT:
        x = JOINT
    elif isinstance(x_raw, (int, float)) and not isinstance(x_raw, bool):
        x = float(x_raw)
    else:
        raise ConfigError(f"oracle.x must be a float or \"{JOINT}\", got {x_raw!r}")
    result = enumerate_distribution(world, loss, pac, n, x, algorithm=algorithm)
    report = {
        "command": "oracle",
        "version": __version__,
        "config": {
            "world": world_path,
            "loss": loss_to_dict(loss),
            "pac": _pac_to_dict(pac),
            "oracle": {"n": n, "x": x_raw},
            "algorithm": algorithm,
        },
        "report": result,
    }
    _emit(report, args.out or cfg.get("out"))
    return EXIT_OK


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "audit": _cmd_audit,
    "demo": _cmd_demo,
    "oracle": _cmd_oracle,
    "validate-world": _cmd_validate_world,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacroute",
        description="Calibrate, audit and stress-test threshold routers on "
        "synthetic worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="write the report here (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
        p.add_argument(
            "--workers", type=_positive_int, default=1,
            help="accepted for compatibility; has no effect on outputs or work",
        )
        if name in ("audit", "demo"):
            p.add_argument(
                "--trace", default=None, help="write the per-replication CSV trace here",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except WorldValidationError as e:
        print("world validation failed:", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_WORLD
    except DemoPreconditionError as e:
        print(f"demo precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
