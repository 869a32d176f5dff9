"""Config-driven command line: calibrate, audit, demo, oracle, validate-world.

Every run is described by a single JSON config file; ``--seed`` and ``--out``
override the config, and ``--workers`` is accepted for compatibility but has
no effect on outputs or on work. A command that ``_COMMANDS`` gives a trace
header (``audit``, ``demo``) also takes ``--trace``, and writes each chunk's
per-replication CSV rows as it walks the chunk; the others refuse the flag.

``parse_args`` reads ``COMMAND --flag value ...`` by the ``_FLAGS`` table,
flag -> converter, without argparse: in a fresh process on 2 vCPUs
argparse's parsers, help formatters and ``gettext`` lookups took 1.6-4.2 ms
of every command, as long as the exact oracle of a 10-cell world or longer
(README, "Start-up"). A value follows its flag or an ``=``; the last of
a repeated flag wins; a flag is never abbreviated. A parse error prints the
usage line and a message naming the flag to stderr and raises
``SystemExit(2)``; ``-h`` prints the help to stdout and raises
``SystemExit(0)``.

The config is checked before any work. A key that no command reads is
refused, and numbers follow ``worlds.json_number``. ``_resolve`` parses the
config once, by the ``_KEYS`` table, into the values a command computes with
and the resolved config its report embeds. ``_emit`` writes every report in
one envelope.

Each output (``--trace``, then the report) is opened once, before any
replication, with ``O_WRONLY | O_CREAT`` and no ``O_TRUNC``; that open is
also the check that it can be written. The run writes it from offset 0 and,
when it succeeds, cuts a regular file to the bytes written. A rerun thus
overwrites blocks already allocated: on ext4 a truncating open of a file
that holds the last run's trace frees its blocks inside ``open`` and makes
its close start writeback of the whole rewrite, which the next open waits
behind. Two outputs that are one file (``os.fstat``'s device and inode, so
hard links too) are refused before any work. A failed run removes each
output it created or wrote to, if the path itself is still that regular
file (``os.lstat``: a symlink or a device is never unlinked); an output it
never wrote keeps its bytes.

Exit codes: 0 success, 2 config or parse error (also an output that cannot
be written, stdout included, an ``n`` above MAX_N, or a run too large for
memory), 3 world validation error, 4 demo precondition error.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from contextlib import contextmanager, suppress
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

# an output is opened without O_TRUNC: see the module docstring
_WRITE = os.O_WRONLY | os.O_CREAT


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


class _Output:
    """An output path, opened once for writing in place: see the module docstring."""

    def __init__(self, path: str):
        self.path, self.written = path, False
        try:
            try:
                fd, self.created = os.open(path, _WRITE | os.O_EXCL, 0o666), True
            except FileExistsError:
                fd, self.created = os.open(path, _WRITE, 0o666), False
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e}") from e
        self.file = open(fd, "w", encoding="utf-8", newline="")
        self.st = os.fstat(fd)

    def write(self, text: str) -> None:
        self.written = True
        try:
            self.file.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {self.path}: {e}") from e

    def finish(self) -> None:
        """Cut a regular file to the bytes written, then close it."""
        try:
            self.file.flush()
            if stat.S_ISREG(self.st.st_mode):
                fd = self.file.fileno()
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            self.file.close()
        except OSError as e:
            raise ConfigError(f"cannot write {self.path}: {e}") from e

    def discard(self) -> None:
        """Remove the file if this run created it or wrote to it, but only a
        regular file at the path itself, the one opened; then close it."""
        if self.created or self.written:
            with suppress(OSError):
                st = os.lstat(self.path)
                if stat.S_ISREG(st.st_mode) and os.path.samestat(st, self.st):
                    os.remove(self.path)  # first: on a full disk the close fails too
        with suppress(OSError):
            self.file.close()


@contextmanager
def _outputs(trace, out):
    """Open the ``--trace`` and report paths that are set (each None or an
    ``_Output``), before any work; cut each to its bytes when the block
    succeeds, and discard each if it raises."""
    outputs = []
    try:
        for path in (trace, out):  # one by one: a failed open discards those before it
            outputs.append(_Output(path) if path else None)
        if None not in outputs and os.path.samestat(outputs[0].st, outputs[1].st):
            raise ConfigError(f"--trace and the report both name {trace}")
        yield outputs
        for output in filter(None, outputs):
            output.finish()
    except BaseException:
        for output in filter(None, outputs):
            output.discard()
        raise


def _emit(command: str, config: dict, report, out) -> None:
    """Write the report envelope to the ``_Output`` ``out``, or to stdout if
    that is None."""
    text = dump_json({"command": command, "version": __version__, "config": config,
                      "report": report}) + "\n"
    if out is not None:
        out.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        # text a failed write leaves in stdout's buffer would fail again, with
        # a traceback, as the interpreter flushes stdout at exit
        with suppress(OSError, ValueError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ConfigError(f"cannot write the report to stdout: {e}") from e


def _write_trace(path: str, output, header, command):
    """``command(trace)``, where ``trace(blocks)`` writes CSV rows to
    ``output``, the ``_Output`` open at ``path``, with the header before the
    first rows: a run that fails before any row leaves the file unwritten."""

    def trace(blocks) -> None:
        if not output.written:
            output.write(",".join(header) + "\r\n")
        output.file.writelines(blocks)

    try:
        return command(trace)
    except OSError as e:  # a command reads and writes no other file
        raise ConfigError(f"cannot write {path}: {e}") from e


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
    trace, out = args.trace, args.out or cfg.get("out")
    if command == "validate-world":
        try:
            _load_world_from_config(cfg)
            violations: list[str] = []
        except WorldValidationError as e:
            violations = e.violations
        report = {"valid": not violations, "violations": violations}
        with _outputs(None, out) as (_, report_file):
            _emit(command, {"world": cfg["world"]}, report, report_file)
        return EXIT_WORLD if violations else EXIT_OK
    world, run, config = _resolve(command, cfg, args)
    compute, *_, header = _COMMANDS[command]
    with _outputs(trace, out) as (trace_file, report_file):
        report = (_write_trace(trace, trace_file, header,
                               lambda rows: compute(world, run, rows)) if trace
                  else compute(world, run, None))
        _emit(command, config, report, report_file)
    return EXIT_OK


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


# flag -> the converter of its value; --trace only for a command that
# _COMMANDS gives a trace header
_FLAGS = {"--config": str, "--out": str, "--seed": _integer, "--workers": _positive_int,
          "--trace": str}

_COMMAND_NAMES = (*_COMMANDS, "validate-world")

USAGE = (f"usage: pacroute {{{','.join(_COMMAND_NAMES)}}} --config PATH [--out PATH] "
         "[--seed N] [--workers N] [--trace PATH]")

HELP = f"""{USAGE}

Calibrate, audit and stress-test threshold routers on synthetic worlds.

  --config PATH   the run config JSON (required)
  --out PATH      write the report here (default: the config's "out", else stdout)
  --seed N        override the config's seeds
  --workers N     an integer >= 1, accepted for compatibility; no effect on
                  outputs or on work
  --trace PATH    audit and demo only: write the per-replication CSV trace here

A value follows its flag as the next argument or after "=" (--seed=3); one
that begins with "-" must be a number. The last of a repeated flag wins.

Exit codes: 0 success, 2 config or parse error, 3 world validation error,
4 demo precondition error.
"""


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}\npacroute: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _is_value(text: str) -> bool:
    """May ``text`` follow a flag as its value: not itself flag-like?"""
    return text[:1] != "-" or text == "-" or text[1:2].isdigit() or text[1:2] == "."


def parse_args(argv) -> SimpleNamespace:
    """The command of ``argv`` and its flags' values, by ``_FLAGS``.

    ``-h`` or ``--help`` prints HELP to stdout and raises SystemExit(0); a
    parse error prints USAGE and a message to stderr and raises SystemExit(2).
    """
    args = SimpleNamespace(command=None, config=None, out=None, seed=None, workers=1,
                           trace=None)
    rest = iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(EXIT_OK)
        if args.command is None:
            if arg not in _COMMAND_NAMES:
                _usage_error(f"the first argument must be a command "
                             f"({', '.join(_COMMAND_NAMES)}), got {arg!r}")
            args.command = arg
            continue
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            _usage_error(f"unrecognized argument {arg!r}")
        if flag == "--trace" and (args.command not in _COMMANDS
                                  or not _COMMANDS[args.command][3]):
            _usage_error(f"{args.command} takes no --trace")
        if not eq:
            value = next(rest, None)
            if value is None or not _is_value(value):
                _usage_error(f"{flag} needs a value")
        try:
            setattr(args, flag[2:], _FLAGS[flag](value))
        except ValueError as e:
            _usage_error(f"{flag} {e}")
    if args.command is None:
        _usage_error(f"missing command ({', '.join(_COMMAND_NAMES)})")
    if args.config is None:
        _usage_error("missing --config")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
