"""Ray session, per-op timeouts, the failure ledger and /proc accounting."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

RAY_CPUS = 2  # smallest count at which every timed op completes on a 4-vCPU host
OP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
# AF_UNIX paths are capped at 107 bytes; Ray appends ~63 of its own
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout_s: float = OP_TIMEOUT_S):
    """Run ``fn()`` in a daemon thread and return its result, raising
    ``OpTimeout`` if it has not finished after ``timeout_s``. A timed-out
    call is abandoned; ``ray.shutdown`` later stops the work it started."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise OpTimeout(f"no result after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass
class Ledger:
    """Counts the timed ops of a run and the ones that failed: raised, hit
    the per-op timeout, or mismatched their reference."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    aborted: bool = False  # a timeout leaves work running: stop timing

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.failures.append({"op": op, "reason": reason})
        print(f"perfbench: {op} failed: {reason}", file=sys.stderr, flush=True)

    def run(self, op: str, fn, timeout_s: float = OP_TIMEOUT_S):
        """Timed call of ``fn``: ``(result, wall_s)``, or ``(None, None)``
        after recording the failure."""
        self.attempt()
        t0 = time.perf_counter()
        try:
            result = call_with_timeout(fn, timeout_s)
        except OpTimeout as exc:
            self.aborted = True
            self.fail(op, f"timeout: {exc}")
            return None, None
        except Exception as exc:  # noqa: BLE001 - any op error counts as a failed op
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - t0

    def check(self, op: str, mismatches: list[str]) -> bool:
        if mismatches:
            self.fail(op, "mismatch vs reference: " + ", ".join(mismatches))
            return False
        return True


# ---------------------------------------------------------------------------
# /proc accounting (this process plus every process of its Ray session)


def _proc_table() -> dict[int, tuple[int, float]]:
    """pid -> (ppid, cpu seconds) for every live (non-zombie) process."""
    table = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        rest = stat[stat.rfind(")") + 2 :].split()
        if rest[0] == "Z":
            continue
        table[int(d)] = (int(rest[1]), (int(rest[11]) + int(rest[12])) / _CLK_TCK)
    return table


def session_pids(root: int | None = None) -> dict[int, float]:
    """pid -> cpu seconds for ``root`` (default: this process) and all its
    descendants; a local Ray session's gcs, raylet, agents and workers are
    all descendants of the process that started it."""
    root = root or os.getpid()
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _cpu) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in table:
            out[pid] = table[pid][1]
        todo.extend(children.get(pid, ()))
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    return sum(cpu - before.get(pid, 0.0) for pid, cpu in after.items())


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().startswith(b"ray::")
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and every live Ray worker."""
    me = os.getpid()
    pids = [p for p in session_pids() if p == me or _is_ray_worker(p)]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def steal_jiffies() -> int:
    """Host-wide cumulative CPU-steal jiffies (0 if unreadable)."""
    try:
        with open("/proc/stat") as fh:
            parts = fh.readline().split()
        return int(parts[8]) if len(parts) > 8 else 0
    except (OSError, ValueError):
        return 0


def host_info() -> dict:
    return {
        "ray_cpus": RAY_CPUS,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count() or 0,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Ray session


def ray_temp_dir(work_dir: str) -> str:
    """Ray's session directory: inside the work dir when its socket paths
    fit the AF_UNIX limit, else a short private temp dir. ``stop_ray``
    removes it."""
    inside = os.path.join(work_dir, "ray")
    if len(inside) + _RAY_SOCKET_SUFFIX <= 107:
        shutil.rmtree(inside, ignore_errors=True)
        os.makedirs(inside)
        return inside
    return tempfile.mkdtemp(prefix="pb-ray-", dir="/tmp")


def start_ray(repo_root: str, temp_dir: str) -> None:
    """Start a local Ray session whose workers can import the engine
    wherever this process was launched from, then prove it with one probe
    task that fails fast."""
    import ray

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        runtime_env={"env_vars": {"PYTHONPATH": repo_root}},
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        # a lambda is pickled by value, so only the engine import is tested
        probe = ray.remote(lambda: __import__("pdf_extractors_ray").__file__)
        where = call_with_timeout(lambda: ray.get(probe.remote()), 60.0)
    except Exception as exc:  # noqa: BLE001 - any failure here is fatal
        raise RuntimeError(
            "Ray workers cannot import pdf_extractors_ray "
            f"(runtime_env PYTHONPATH={repo_root}): {type(exc).__name__}: {exc}"
        ) from exc
    if not where.startswith(repo_root):
        raise RuntimeError(f"Ray workers import pdf_extractors_ray from {where}, not {repo_root}")


def _reap_children() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_ray(temp_dir: str, wait_s: float = 30.0) -> None:
    """Shut the session down, wait until every child process has ended
    (killing stragglers after ``wait_s``) and remove the session directory."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    me = os.getpid()
    deadline, killed = time.monotonic() + wait_s, False
    while True:
        _reap_children()
        left = [p for p in session_pids() if p != me]
        if not left:
            break
        if time.monotonic() > deadline:
            if killed:
                print(f"perfbench: processes {left} survived SIGKILL", file=sys.stderr)
                break
            for p in left:
                try:
                    os.kill(p, 9)
                except OSError:
                    pass
            deadline, killed = time.monotonic() + 10.0, True
        time.sleep(0.1)
    shutil.rmtree(temp_dir, ignore_errors=True)
