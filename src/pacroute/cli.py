"""Config-driven command line: calibrate, audit, demo, oracle, validate-world.

Every run is described by a single JSON config file; ``--seed`` and ``--out``
override the config, and ``--workers`` is accepted for compatibility but has
no effect on outputs or on work. A command that ``_COMMANDS`` gives a trace
header (``audit``, ``demo``) also takes ``--trace``, and writes each chunk's
per-replication CSV rows as it walks the chunk; the others refuse the flag.

The config and every output path are checked before any work runs. A key
that no command reads is refused, and numbers follow ``worlds.json_number``.
``_resolve`` parses the config once, by the ``_KEYS`` table, into the values
a command computes with and the resolved config its report embeds. ``_emit``
writes every report in one envelope.

Exit codes: 0 success, 2 config or parse error (an output that cannot be
written, an ``n`` above MAX_N, or a run too large for memory, included), 3
world validation error, 4 demo precondition error. A failed run leaves no
report, and no trace file it wrote rows to.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict
from types import SimpleNamespace

from . import __version__
from .adversary import DemoPreconditionError
from .calibrate import ALGORITHMS, PacConfig, check_epsilon_match, select_threshold
from .risk import exact_deferral_mass, exact_miscoverage, loss_from_dict, loss_to_dict
from .serialize import dump_json, encode_threshold
from .simulate import (
    JOINT,
    McConfig,
    audit_profile,
    demo_with_replications,
    enumerate_distribution,
)
from .worlds import WorldValidationError, json_field, json_number, load_world, sample_calibration

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WORLD = 3
EXIT_PRECONDITION = 4

# the largest calibration size any command takes (calibration.n, demo.n,
# oracle.n): at 10**6 each command peaks near 110 MiB, at 10**7 near 770
MAX_N = 10**6


class ConfigError(ValueError):
    pass


# section -> key -> (kind, default): a key without one is required, and the
# default may be written out ("joint"); a list is "auto" (None) or numbers
_KEYS = {
    "pac": {"epsilon": (float,), "alpha": (float,), "delta_split": (float, None),
            "threshold_grid": (list,)},
    "mc": {"replications": (int,), "master_seed": (int,), "audit_points": (list,)},
    "calibration": {"n": (int,), "seed": (int,)},
    "demo": {"x_star": (float,), "eta": (float,), "n": (int,)},
    "oracle": {"n": (int,), "x": (float, JOINT)},
}

# every key a config may hold, by section; "config" is the top level
_ALLOWED = {"config": ("world", "out", "algorithm", "loss", *_KEYS),
            "loss": ("kind", "epsilon", "table"), **_KEYS}


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
    path = json_field(cfg, "world", str, "config")
    try:
        return path, load_world(path)
    except OSError as e:
        raise ConfigError(f"cannot read world file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"world file {path} is not valid JSON: {e}") from e


def _check_keys(cfg: dict) -> None:
    """Refuse a key that no command reads; one config may serve every command."""
    for where, keys in _ALLOWED.items():
        section = cfg if where == "config" else cfg.get(where)
        unknown = [k for k in section if k not in keys] if isinstance(section, dict) else ()
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _read(cfg: dict, name: str, keys, seed) -> dict:
    """The ``keys`` (None: all) of section ``name`` by their ``_KEYS`` kinds; a
    ``seed`` (``--seed``) that is not None replaces the seed read."""
    raw = json_field(cfg, name, dict, "config")
    out = {}
    for key in keys or _KEYS[name]:
        kind, *default = _KEYS[name][key]
        if kind is list:
            try:
                out[key] = None if raw.get(key, "auto") == "auto" else tuple(
                    json_number(v, float, f"entry {i}")
                    for i, v in enumerate(json_field(raw, key, list, name)))
            except ValueError as e:
                raise ConfigError(f"{name}.{key} must be a list of numbers or \"auto\": {e}")
        elif default and raw.get(key, default[0]) == default[0]:
            out[key] = default[0]
        else:
            out[key] = json_field(raw, key, kind, name)
        if key in ("seed", "master_seed") and seed is not None:
            out[key] = seed
    return out


def _resolve(command: str, cfg: dict, args):
    """Parse ``cfg`` for ``command`` once: ``(world, values, config)``.

    ``values`` holds ``loss`` and ``pac``, ``mc`` for audit and demo,
    ``algorithm`` for all but calibrate, and the keys of the command's own
    section; ``config`` is the resolved config its report embeds.
    """
    world_path, world = _load_world_from_config(cfg)
    try:
        loss = loss_from_dict(json_field(cfg, "loss", dict, "config"))
    except ValueError as e:
        raise ConfigError(f"invalid loss spec: {e}") from e
    values = {"loss": loss}
    config = {"world": world_path, "loss": loss_to_dict(loss)}
    for name in ("pac", "mc") if command in ("audit", "demo") else ("pac",):
        fields = _read(cfg, name, None, args.seed)
        try:
            values[name] = (PacConfig if name == "pac" else McConfig)(**fields)
        except ValueError as e:
            raise ConfigError(f"invalid {name} config: {e}") from e
        config[name] = {k: "auto" if v is None else v for k, v in asdict(values[name]).items()}
    check_epsilon_match(values["pac"], loss)
    if command != "calibrate":
        algorithm = cfg.get("algorithm", "calibrated")
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be {' or '.join(map(repr, ALGORITHMS))}, "
                              f"got {algorithm!r}")
        values["algorithm"] = config["algorithm"] = algorithm
    _, name, keys, _ = _COMMANDS[command]
    section = config[name] = _read(cfg, name, keys, args.seed)
    for key, low in (("n", 1), ("seed", 0)):
        if section.get(key, low) < low:
            raise ConfigError(f"{name}.{key} must be >= {low}, got {section[key]}")
    if section["n"] > MAX_N:
        raise ConfigError(f"{name}.n must be <= {MAX_N}, got {section['n']}")
    for key in ("x_star", "x"):  # oracle.x may also be "joint"
        if isinstance(section.get(key), float) and not 0.0 <= section[key] <= 1.0:
            raise ConfigError(f"{name}.{key} must be in [0, 1], got {section[key]!r}")
    values.update(section)
    return world, SimpleNamespace(**values), config


def _write_text(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _emit(command: str, config: dict, report, out) -> None:
    """Write the report envelope to ``out``, or to stdout if that is None."""
    text = dump_json({"command": command, "version": __version__, "config": config,
                      "report": report}) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _write_trace(path: str, header, command):
    """``command(trace)``, where ``trace(blocks)`` writes CSV rows to ``path``,
    opened with its header on the first rows; a run that raises after them
    removes the file, so a failed run leaves ``path`` as it was or absent."""
    file = None

    def trace(blocks) -> None:
        nonlocal file
        if file is None:
            file = open(path, "w", encoding="utf-8", newline="")
            file.write(",".join(header) + "\r\n")
        file.writelines(blocks)

    try:
        report = command(trace)
        file.close()  # every traced run writes rows: replications and points are >= 1
    except BaseException as e:
        if file is not None:
            os.remove(path)  # first: on a full disk the close fails too
            with suppress(OSError):
                file.close()
        if isinstance(e, OSError):  # a command reads and writes no other file
            raise ConfigError(f"cannot write {path}: {e}") from e
        raise
    return report


def _calibrate(world, run, trace) -> dict:
    data = sample_calibration(world, run.n, run.seed)
    outcome = select_threshold(data, world, run.loss, run.pac)
    return {
        "tau_hat": encode_threshold(outcome.tau_hat),
        "n": outcome.n,
        "tested": [t._asdict() for t in outcome.tested],
        "exact_miscoverage": exact_miscoverage(world, run.loss, outcome.tau_hat),
        "exact_deferral_mass": exact_deferral_mass(world, outcome.tau_hat),
    }


def _audit(world, run, trace):
    return audit_profile(world, run.loss, run.pac, run.mc, run.n, algorithm=run.algorithm,
                         trace=trace)[0]


def _demo(world, run, trace):
    return demo_with_replications(world, run.loss, run.pac, run.x_star, run.eta, run.n,
                                  run.mc, algorithm=run.algorithm, trace=trace)


def _oracle(world, run, trace):
    return enumerate_distribution(
        world, run.loss, run.pac, run.n, run.x, algorithm=run.algorithm
    )


_TRACE_COLUMNS = ("replication", "point", "tau_hat", "g", "risk_exceeded")

# command -> (what it computes, the section it reads besides world, loss, pac
# and mc, that section's keys it reads (None: all), and the header of its
# --trace CSV (None: the command takes no --trace))
_COMMANDS = {
    "calibrate": (_calibrate, "calibration", None, None),
    "audit": (_audit, "calibration", ("n",), _TRACE_COLUMNS),
    "demo": (_demo, "demo", None, ("world", *_TRACE_COLUMNS)),
    "oracle": (_oracle, "oracle", None, None),
}


def _run(command: str, cfg: dict, args) -> int:
    _check_keys(cfg)
    if "out" in cfg:
        json_field(cfg, "out", str, "config")
    trace, out = getattr(args, "trace", None), args.out or cfg.get("out")
    if command == "validate-world":
        try:
            _load_world_from_config(cfg)
            violations: list[str] = []
        except WorldValidationError as e:
            violations = e.violations
        report = {"valid": not violations, "violations": violations}
        _emit(command, {"world": cfg["world"]}, report, out)
        return EXIT_WORLD if violations else EXIT_OK
    world, run, config = _resolve(command, cfg, args)
    if trace and out and os.path.realpath(trace) == os.path.realpath(out):
        raise ConfigError(f"--trace and the report both name {trace}")
    for path in filter(None, (trace, out)):  # an unwritable output fails before any work
        existed = os.path.lexists(path)
        _write_text(path, "", mode="a")  # an existing file keeps its bytes
        if not existed:
            os.remove(path)
    compute, *_, header = _COMMANDS[command]
    report = (_write_trace(trace, header, lambda rows: compute(world, run, rows)) if trace
              else compute(world, run, None))
    _emit(command, config, report, out)
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
        if name in _COMMANDS and _COMMANDS[name][3]:
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
    except MemoryError as e:  # a size no bound refuses
        print(f"config error: the run does not fit in memory: {str(e) or 'no detail'}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
