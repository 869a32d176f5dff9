"""End-to-end benchmark of the `pacroute` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo_fixed --seed 1 --seconds 38 --trace 0

A closed loop with one client: each `pacroute <command>` invocation is a fresh
child process (`child.py`, with `src` and this interpreter's `sys.path` on its
PYTHONPATH, since the package is not installed) and starts only after the
previous one exits, until the run has lasted about ``--seconds``. All inputs
are generated from ``--seed`` (`workloads.py`). The first invocation's
outputs are checked in full, and every later one must write the same bytes;
a non-zero exit, a failed check or different bytes counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of untraced invocations, with
times scaled to a nominal host speed (see REF_NOMINAL_S). ``--trace 1``
alternates untraced and traced invocations and reports the per-layer metrics
of the traced ones (`spans.py`, wall-clock), plus the tracing overhead.
The line before the result holds the environment record and sample counts;
the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 120.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# On a shared host each CPU slows and recovers on its own schedule (by up to
# 1.7x, for seconds at a time), and the scheduler starts every child on the
# same CPU. Invocations therefore start on each CPU in turn, so that a run
# averages over all of them; the child widens its mask again at once, so its
# worker threads may use every CPU.
CPUS = sorted(os.sched_getaffinity(0))


def child_env() -> dict:
    # The child gets this interpreter's sys.path explicitly: a child started
    # with a bare environment loses PYTHONPATH and cannot import pacroute.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in sys.path if p])
    env["PERFBENCH_CPUS"] = ",".join(map(str, CPUS))
    return env


def invoke(spec_path: str, traced: bool, check: bool, env: dict, cpu: int) -> dict:
    """Run one invocation to completion; a crash or timeout becomes a failure."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
    spawn_t = _now()
    try:
        proc = subprocess.run(
            cmd + [repr(spawn_t), "1" if traced else "0", "1" if check else "0"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"invocation exceeded {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"child exited {proc.returncode}: {last[0]}"]}
    return json.loads(lines[-1])


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent repo's)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts without a .git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    from pacroute import _kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.active_backend(),
        "platform": platform.platform(),
    }


def _write_spec(spec: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    return path


def _set_flag(argv: list[str], flag: str, value: str) -> list[str]:
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


def invocations(workload: str, seed: int, seconds: float, traced: bool, sizes) -> list[dict]:
    """Every invocation a run attempts, in order, each with its check results."""
    import workloads

    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    records = []
    try:
        spec = workloads.build(workload, seed, workdir, sizes)
        spec_path = _write_spec(spec, os.path.join(workdir, "spec.json"))
        # warm the byte-code and file caches, as any second run of the CLI has
        subprocess.run([sys.executable, "-c", "import pacroute.cli"],
                       env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        rounds = []

        def record(path, tr, timed):
            # the outputs are checked in full until one invocation has been
            checked = any(r.get("checked") for r in records)
            cpu = CPUS[len(rounds) % len(CPUS)]
            records.append(dict(invoke(path, tr, not checked, env, cpu),
                                timed=timed, traced=tr))

        if workload == "demo_fixed":
            # untimed: --workers 1 must give the same report bytes
            serial = dict(spec, report=os.path.join(workdir, "serial_report.json"))
            serial["argv"] = _set_flag(_set_flag(spec["argv"], "--workers", "1"),
                                       "--out", serial["report"])
            record(_write_spec(serial, os.path.join(workdir, "serial.json")), False, False)
        start = _now()
        while True:
            t = _now()
            for tr in (False, True) if traced else (False,):
                record(spec_path, tr, True)
            rounds.append(_now() - t)
            # stop where the run ends nearest to `seconds`
            if _now() - start + statistics.median(rounds) / 2 >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    # every invocation in a run reads the same inputs, so each must write the
    # bytes of the invocation whose outputs were checked
    ref = next((r for r in records if r.get("checked")), None)
    for r in records:
        if "output_sha256" not in r or r is ref:
            continue
        if ref is None or r["output_sha256"] != ref["output_sha256"]:
            r["failures"].append("outputs differ from the checked invocation's")
        elif ref["failures"]:
            r["failures"].append("outputs equal those that failed the checks")
    return records


# Host speed of the end-to-end times. On a shared host a CPU runs at
# one speed for seconds at a time and at up to 1.7x another the next, and the
# share of slow time drifts by tens of percent over minutes, far beyond any
# bound a wall-clock figure could hold from one run to the next. Each
# invocation therefore times a fixed interpreter workload right before and
# after its command (`child.reference`), and its set-up and command times are
# scaled to a host on which that workload takes REF_NOMINAL_S; a change to
# pacroute moves the scaled times as it moves the wall-clock ones. The
# wall-clock samples and the reference times are kept in the detail line.
REF_NOMINAL_S = 0.1


def end_to_end(plain: list[dict], items: int, detail: dict) -> dict:
    import workloads

    cmd = [r["cmd_s"] for r in plain]
    scale = [REF_NOMINAL_S / statistics.fmean(r["ref_s"]) for r in plain]
    cmd_scaled = [c * k for c, k in zip(cmd, scale)]
    # The command time is a mean: the mean of a run varies less from run to
    # run than its median. A run holds too few invocations for a percentile
    # with ten beyond it above the median, so the median, the maximum and
    # the raw samples are recorded beside it.
    detail["cmd_s"] = cmd
    detail["cmd_s_p50"] = statistics.median(cmd)
    detail["cmd_s_max"] = max(cmd)
    detail["cmd_s_scaled_p50"] = statistics.median(cmd_scaled)
    detail["setup_s"] = [r["setup_s"] for r in plain]
    detail["ref_s"] = [r["ref_s"] for r in plain]
    detail["work_items_per_invocation"] = items
    detail["work_unit"] = workloads.WORK_UNIT[detail["workload"]]
    setup_scaled = [r["setup_s"] * k for r, k in zip(plain, scale)]
    return {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "cmd_s_mean": {"value": statistics.fmean(cmd_scaled), "unit": "s"},
        "calsets_per_s": {"value": items * len(cmd) / math.fsum(cmd_scaled), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                        "unit": "MiB"},
    }


def per_layer(plain: list[dict], traced: list[dict], detail: dict) -> dict:
    import spans

    detail["traced_samples"] = len(traced)
    metrics = {}
    for name in traced[0]["layers"]:
        unit = spans.unit(name)
        # counts repeat exactly; keep them whole numbers
        median = statistics.median if unit in ("s", "ratio") else statistics.median_low
        metrics[name] = {"value": median(r["layers"][name] for r in traced), "unit": unit}
    overhead = (statistics.fmean(r["cmd_s"] for r in traced)
                - statistics.fmean(r["cmd_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool, sizes) -> int:
    records = invocations(workload, seed, seconds, traced, sizes)
    failed = [r for r in records if r["failures"]]
    ok = [r for r in records if r["timed"] and not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    layered = [r for r in ok if r["traced"]]
    detail = {
        "workload": workload,
        "seed": seed,
        "env": environment(),
        "invocations": len(records),
        "cmd_s_samples": len(plain),
        "failures": [m for r in failed for m in r["failures"]][:10],
    }
    items = next((r["items"] for r in records if "items" in r), None)
    metrics = {}
    if plain and items and not traced:
        metrics = end_to_end(plain, items, detail)
    elif plain and layered:
        metrics = per_layer(plain, layered, detail)
    print(json.dumps(detail))
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pacroute", "cli.py")):
        print(f"perfbench: no pacroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               sizes or workloads.FULL)


if __name__ == "__main__":
    sys.exit(main())
