"""The demo's perturbed audit lane in a forked worker: chosen from the run,
byte-identical to the in-process lane, and never leaving a process behind."""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pacroute import cli, simulate
from pacroute._kernels import occupancy_counts
from pacroute.calibrate import PacConfig
from pacroute.serialize import dump_json
from pacroute.simulate import (
    FORK_MIN_DRAWS,
    STREAM_AUDIT,
    STREAM_PERTURBED_AUDIT,
    McConfig,
    _forks_lane,
    demo_with_replications,
)

from conftest import child_env, world_to_dict

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the demo forks on Linux only")

N = 100
REPLICATIONS = -(-FORK_MIN_DRAWS // N)  # the fewest that fork at n = N
ROOT = Path(__file__).resolve().parents[1]


def assert_no_children() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _demo(w1, loss01, pac):
    return demo_with_replications(w1, loss01, pac, 0.4, 0.01, N,
                                  McConfig(replications=REPLICATIONS, master_seed=5))


def _lanes_failing(monkeypatch, fail):
    """Make ``fail(stream, in_worker)`` run before each chunk is drawn."""
    parent = os.getpid()

    def draw(master_seed, stream, *args, **kwargs):
        fail(stream, os.getpid() != parent)
        return occupancy_counts(master_seed, stream, *args, **kwargs)

    monkeypatch.setattr(simulate, "_replication_uniforms", draw)


def test_forks_only_large_untraced_runs_whose_walk_draws(w1, loss01, pac_w1, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    lane = (w1, loss01, pac_w1, N)
    assert _forks_lane(*lane, REPLICATIONS, "calibrated", None)
    assert not _forks_lane(*lane, REPLICATIONS - 1, "calibrated", None)
    assert not _forks_lane(*lane, REPLICATIONS, "calibrated", print)  # traced
    assert not _forks_lane(*lane, REPLICATIONS, "trivial", None)
    # b* = -1 at n = 5: the calibrated walk draws nothing however many replications
    assert not _forks_lane(w1, loss01, pac_w1, 5, 60000, "calibrated", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not _forks_lane(*lane, REPLICATIONS, "calibrated", None)


def test_calibrated_lane_that_draws_nothing_does_not_fork(w1, loss01, pac_w1, forks,
                                                          monkeypatch):
    # 60000 x 5 >= FORK_MIN_DRAWS, but b* = -1 at n = 5: every walk selects
    # ALWAYS_DEFER without a draw, so a worker would only cost its fork
    def refuse(*args, **kwargs):
        raise AssertionError("uniforms drawn")

    monkeypatch.setattr(simulate, "_replication_uniforms", refuse)
    report = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 5,
                                    McConfig(replications=60000, master_seed=5))
    assert report.deferral_mass_mean == 1.0
    assert forks == []
    assert_no_children()


@pytest.mark.parametrize("grid", [(0.5, 0.95), None], ids=["fixed", "auto"])
def test_forked_lane_gives_the_in_process_bytes(w1, loss01, forks, monkeypatch, grid):
    pac = PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=grid)
    forked = dump_json(_demo(w1, loss01, pac))
    assert len(forks) == 1
    assert_no_children()
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", float("inf"))
    assert dump_json(_demo(w1, loss01, pac)) == forked
    assert len(forks) == 1


@pytest.mark.parametrize("streams", [(STREAM_PERTURBED_AUDIT,), None], ids=["worker", "all"])
def test_no_replications_assertion_reaches_the_caller(tmp_path, w1, loss01, pac_w1, forks,
                                                      monkeypatch, streams):
    # a worker whose lane raises hands back nothing, so its lane runs here
    # and raises the AssertionError again; when the parent's first lane
    # raises it, the worker is killed
    calls = tmp_path / "calls"  # both processes append "stream in_worker"

    def refuse(stream, in_worker):
        with open(calls, "a") as log:
            log.write(f"{stream} {in_worker}\n")
        if streams is None or stream in streams:
            raise AssertionError("replications ran")

    _lanes_failing(monkeypatch, refuse)
    with pytest.raises(AssertionError, match="^replications ran$"):
        _demo(w1, loss01, pac_w1)
    assert len(forks) == 1
    assert_no_children()
    perturbed = sorted(c for c in calls.read_text().splitlines()
                       if c.startswith(f"{STREAM_PERTURBED_AUDIT} "))
    if streams is None:  # the base lane raised first: the lane is not run here
        assert f"{STREAM_PERTURBED_AUDIT} False" not in perturbed
    else:
        assert perturbed == [f"{STREAM_PERTURBED_AUDIT} False", f"{STREAM_PERTURBED_AUDIT} True"]


def test_worker_memory_error_exits_2_as_in_process(tmp_path, w1_path_large, capsys, forks,
                                                   monkeypatch):
    def refuse(stream, in_worker):
        if stream == STREAM_PERTURBED_AUDIT:
            raise MemoryError("Unable to allocate 8.0 EiB for the perturbed lane")

    _lanes_failing(monkeypatch, refuse)
    cfg, out = w1_path_large, tmp_path / "r.json"
    errors = []
    for limit in (FORK_MIN_DRAWS, float("inf")):  # forked, then in-process
        monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", limit)
        assert cli.main(["demo", "--config", cfg, "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert len(forks) == 1
    assert errors[0] == errors[1] == ("config error: the run does not fit in memory: "
                                      "Unable to allocate 8.0 EiB for the perturbed lane\n")
    assert_no_children()


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_unpicklable():
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    raise LocalError("not picklable")


@pytest.mark.parametrize("fail", [_kill, _raise_unpicklable], ids=["sigkill", "unpicklable"])
def test_killed_worker_lane_runs_in_process(w1, loss01, pac_w1, forks, monkeypatch, fail):
    expected = dump_json(_demo(w1, loss01, pac_w1))

    def die(stream, in_worker):
        if in_worker:
            fail()

    _lanes_failing(monkeypatch, die)
    assert dump_json(_demo(w1, loss01, pac_w1)) == expected
    assert len(forks) == 2
    assert_no_children()


def test_parent_lane_failure_kills_and_reaps_the_worker(w1, loss01, pac_w1, forks,
                                                        monkeypatch):
    def fail(stream, in_worker):
        if in_worker:
            time.sleep(60)  # a worker left running would hold the test a minute
        elif stream == STREAM_AUDIT:
            raise MemoryError("base lane")

    _lanes_failing(monkeypatch, fail)
    start = time.monotonic()
    with pytest.raises(MemoryError, match="^base lane$"):
        _demo(w1, loss01, pac_w1)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_children()


@pytest.fixture
def w1_path_large(tmp_path, w1):
    """A demo config on w1 whose perturbed lane draws FORK_MIN_DRAWS or more."""
    world = tmp_path / "w1.json"
    world.write_text(json.dumps(world_to_dict(w1)))
    payload = json.loads((ROOT / "configs" / "demo_w1.json").read_text())
    payload.update(world=str(world), demo={**payload["demo"], "n": N})
    payload["mc"]["replications"] = REPLICATIONS
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(payload))
    return str(cfg)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
], ids=["fork_eagain", "pipe_emfile"])
def test_worker_that_cannot_start_runs_its_lane_here(tmp_path, w1_path_large, forks,
                                                     monkeypatch, call, error):
    here, out = tmp_path / "here.json", tmp_path / "r.json"
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", float("inf"))
    assert cli.main(["demo", "--config", w1_path_large, "--out", str(here)]) == 0
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", FORK_MIN_DRAWS)
    tried = []

    def refuse(*args):
        tried.append(call)
        raise error

    monkeypatch.setattr(os, call, refuse)  # after the pipe on "fork": its fds must close
    fds = _open_fds()
    assert cli.main(["demo", "--config", w1_path_large, "--out", str(out)]) == 0
    assert _open_fds() == fds
    assert tried == [call]
    assert out.read_bytes() == here.read_bytes()
    assert forks == []
    assert_no_children()


def test_lane_error_after_a_failed_fork_is_not_chained(w1, loss01, pac_w1, forks, monkeypatch):
    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def fail(stream, in_worker):
        if stream == STREAM_PERTURBED_AUDIT:
            raise MemoryError("perturbed lane")

    monkeypatch.setattr(os, "fork", refuse)
    _lanes_failing(monkeypatch, fail)
    with pytest.raises(MemoryError, match="^perturbed lane$") as exc:
        _demo(w1, loss01, pac_w1)
    assert exc.value.__context__ is None and exc.value.__cause__ is None
    assert_no_children()


def test_demo_command_forks_and_exits_in_time(tmp_path, w1_path_large, monkeypatch):
    # a fresh process on this host's CPUs (it forks if there are two or
    # more); a worker that deadlocked would hang the command, so it runs
    # under a timeout, and its report must equal the in-process one
    out = tmp_path / "forked.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pacroute.cli", "demo", "--config", w1_path_large,
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    monkeypatch.setattr(simulate, "FORK_MIN_DRAWS", float("inf"))
    assert cli.main(["demo", "--config", w1_path_large, "--out", str(tmp_path / "here.json")]) == 0
    assert out.read_bytes() == (tmp_path / "here.json").read_bytes()
