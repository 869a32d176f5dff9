"""Config-driven command line: calibrate, audit, demo, oracle, validate-world.

Every run is described by a single JSON config file; ``--seed`` and ``--out``
override the config, and ``--workers`` is accepted for compatibility but has
no effect on outputs or on work. ``audit`` and ``demo`` also take ``--trace``,
which streams per-replication CSV rows; the other commands refuse it.

The config is checked in full before any work runs: ``_resolve`` parses it
once, into the values a command computes with and the resolved config its
report embeds. ``_emit`` writes every report in one envelope.

Exit codes: 0 success, 2 config or parse error (an output that cannot be
written included), 3 world validation error, 4 demo precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from types import SimpleNamespace

from . import __version__
from .calibrate import PacConfig, select_threshold
from .risk import exact_deferral_mass, exact_miscoverage, loss_from_dict, loss_to_dict
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


def _numbers(raw: dict, key: str, where: str):
    """``raw[key]`` as a tuple of floats, or None for "auto" (the default)."""
    value = raw.get(key, "auto")
    if value == "auto":
        return None
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{where}.{key} must be a list of numbers or \"auto\"")
    return tuple(float(v) for v in value)


def _auto(values):
    return "auto" if values is None else list(values)


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


def _resolve(command: str, cfg: dict, args):
    """Parse ``cfg`` for ``command`` once: ``(world, values, config)``.

    ``values`` holds ``loss`` and ``pac``, ``mc`` for audit and demo,
    ``algorithm`` for all but calibrate, and the keys of the command's own
    section; ``config`` is the resolved config its report embeds.
    """
    world_path, world = _load_world_from_config(cfg)
    raw = _require(cfg, "loss", dict)
    try:
        loss = loss_from_dict(raw)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid loss spec: {e}") from e
    raw = _require(cfg, "pac", dict)
    grid = _numbers(raw, "threshold_grid", "pac")
    delta_split = raw.get("delta_split")
    if delta_split is not None:
        delta_split = _require(raw, "delta_split", float, "pac")
    try:
        pac = PacConfig(
            epsilon=_require(raw, "epsilon", float, "pac"),
            alpha=_require(raw, "alpha", float, "pac"),
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
    values = {"loss": loss, "pac": pac}
    config = {
        "world": world_path,
        "loss": loss_to_dict(loss),
        "pac": {**asdict(pac), "threshold_grid": _auto(pac.threshold_grid)},
    }
    if command in ("audit", "demo"):
        raw = _require(cfg, "mc", dict)
        points = _numbers(raw, "audit_points", "mc")
        master_seed = _require(raw, "master_seed", int, "mc")
        try:
            mc = McConfig(
                replications=_require(raw, "replications", int, "mc"),
                master_seed=master_seed if args.seed is None else args.seed,
                audit_points=points,
            )
        except ValueError as e:
            raise ConfigError(f"invalid mc config: {e}") from e
        values["mc"] = mc
        config["mc"] = {**asdict(mc), "audit_points": _auto(mc.audit_points)}
    if command != "calibrate":
        algorithm = cfg.get("algorithm", "calibrated")
        if algorithm not in ("calibrated", "trivial"):
            raise ConfigError(
                f"algorithm must be 'calibrated' or 'trivial', got {algorithm!r}"
            )
        values["algorithm"] = config["algorithm"] = algorithm
    _, name, keys = _COMMANDS[command]
    raw = _require(cfg, name, dict)
    section = {key: _require(raw, key, kind, name) for key, kind in keys.items()}
    if command == "calibrate" and args.seed is not None:
        section["seed"] = args.seed
    values.update(section)
    if command == "oracle":
        x = section["x"] = raw.get("x", JOINT)
        if x != JOINT and (not isinstance(x, (int, float)) or isinstance(x, bool)):
            raise ConfigError(f"oracle.x must be a float or \"{JOINT}\", got {x!r}")
        values["x"] = x if x == JOINT else float(x)
    config[name] = section
    return world, SimpleNamespace(**values), config


def _write_text(path: str, text: str, blocks=()) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
            f.writelines(blocks)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _emit(command: str, config: dict, report, cfg: dict, args) -> None:
    """Write the report envelope to ``--out``, else the config's "out", else stdout."""
    text = dump_json({"command": command, "version": __version__, "config": config,
                      "report": report}) + "\n"
    out_path = args.out or cfg.get("out")
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _write_trace(path: str, header, blocks) -> None:
    """The CSV header row, then the row text of ``simulate.trace_blocks``."""
    _write_text(path, ",".join(header) + "\r\n", blocks)


def _calibrate(world, run, args) -> dict:
    data = sample_calibration(world, run.n, run.seed)
    outcome = select_threshold(data, world, run.loss, run.pac)
    return {
        "tau_hat": encode_threshold(outcome.tau_hat),
        "n": outcome.n,
        "tested": [t._asdict() for t in outcome.tested],
        "exact_miscoverage": exact_miscoverage(world, run.loss, outcome.tau_hat),
        "exact_deferral_mass": exact_deferral_mass(world, outcome.tau_hat),
    }


def _audit(world, run, args):
    audit, taus = audit_profile(
        world, run.loss, run.pac, run.mc, run.n, algorithm=run.algorithm
    )
    if args.trace:
        _write_trace(
            args.trace,
            ("replication", "point", "tau_hat", "g", "risk_exceeded"),
            trace_blocks(world, run.loss, [p.x for p in audit.points], taus),
        )
    return audit


def _demo(world, run, args):
    report, perturbed, points, base_taus, pert_taus = demo_with_replications(
        world, run.loss, run.pac, run.x_star, run.eta, run.n, run.mc,
        algorithm=run.algorithm,
    )
    if args.trace:
        lanes = (("base", world, base_taus), ("perturbed", perturbed, pert_taus))
        _write_trace(
            args.trace,
            ("world", "replication", "point", "tau_hat", "g", "risk_exceeded"),
            (
                block
                for name, w, taus in lanes
                for block in trace_blocks(w, run.loss, points, taus, prefix=f"{name},")
            ),
        )
    return report


def _oracle(world, run, args):
    return enumerate_distribution(
        world, run.loss, run.pac, run.n, run.x, algorithm=run.algorithm
    )


# command -> (what it computes, the config section it reads besides world,
# loss, pac and mc, and that section's keys with their types)
_COMMANDS = {
    "calibrate": (_calibrate, "calibration", {"n": int, "seed": int}),
    "audit": (_audit, "calibration", {"n": int}),
    "demo": (_demo, "demo", {"x_star": float, "eta": float, "n": int}),
    "oracle": (_oracle, "oracle", {"n": int}),
}


def _run(command: str, cfg: dict, args) -> int:
    if "out" in cfg:
        _require(cfg, "out", str)
    if command == "validate-world":
        try:
            _load_world_from_config(cfg)
            violations: list[str] = []
        except WorldValidationError as e:
            violations = e.violations
        report = {"valid": not violations, "violations": violations}
        _emit(command, {"world": cfg["world"]}, report, cfg, args)
        return EXIT_WORLD if violations else EXIT_OK
    world, run, config = _resolve(command, cfg, args)
    if getattr(args, "trace", None):
        _write_text(args.trace, "")  # an unwritable path fails before any replication
    _emit(command, config, _COMMANDS[command][0](world, run, args), cfg, args)
    return EXIT_OK


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
    for name in (*_COMMANDS, "validate-world"):
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
        return _run(args.command, _load_config(args.config), args)
    except WorldValidationError as e:
        print("world validation failed:", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_WORLD
    except DemoPreconditionError as e:
        print(f"demo precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as e:  # a ConfigError, or a value the program refused
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
