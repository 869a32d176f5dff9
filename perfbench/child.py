"""One `pacroute` invocation in a fresh process, as a researcher runs the CLI.

Usage: child.py SPEC_JSON SPAWN_T TRACED CHECK

SPAWN_T is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so set-up time covers interpreter start plus ``import
pacroute``. The child times its ``cli.main(argv)`` call, reads its peak RSS,
digests its outputs, and prints one JSON record as its last line. Right
before ``import pacroute`` and right after the call it also times a fixed
pure-Python computation, which depends on no code of the package: the
parent uses it to scale the times to one host speed. With
TRACED = 1, recording wrappers are installed on the layer seams first. With
CHECK = 1, the outputs are also checked in full; the parent requires every
other invocation of the run to write the same bytes.
"""

import os
import sys
import time

# started on one CPU by the parent; let worker threads use them all
os.sched_setaffinity(0, {int(c) for c in os.environ["PERFBENCH_CPUS"].split(",")})


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference() -> float:
    """Seconds this CPU takes, just now, for a fixed interpreter workload."""
    t0 = _now()
    table = {}
    acc = 0
    for i in range(200_000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + (acc >> 11)
        if not i & 7:
            table[key + 1024] = [acc, str(i)]
    return _now() - t0


def peak_rss_kib() -> int:
    """High-water resident set of this process image.

    Not ``ru_maxrss``: that also counts the image before exec, which is the
    parent's when the child is started by vfork.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec_path, spawn_t = sys.argv[1], float(sys.argv[2])
    traced, full_check = sys.argv[3] == "1", sys.argv[4] == "1"
    ref_before = reference()
    start = _now()
    import pacroute.cli as cli

    ready = _now()

    import json

    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    cmd_s = time.perf_counter() - t0
    peak_kib = peak_rss_kib()
    if tracer is not None:
        tracer.uninstall()
    ref_after = reference()

    import workloads

    record = {
        "setup_s": ready - spawn_t - ref_before,
        "import_s": ready - start,
        "ref_s": [ref_before, ref_after],
        "cmd_s": cmd_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "exit_code": code,
        "failures": [],
    }
    if code != 0:
        record["failures"].append(f"pacroute {spec['argv'][0]} exited {code}")
    else:
        if full_check:
            failures, report = workloads.check(spec)
            record["failures"] += failures
            record["items"] = workloads.work_items(spec, report)
        record["checked"] = full_check
        record["output_sha256"] = workloads.output_digest(spec)
    if tracer is not None:
        record["layers"] = tracer.layers()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
