"""Launch measured commands, each in a fresh interpreter, from the checkout root."""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import workloads as W

WORK_DIR = ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 60


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def src_dir(root: Path) -> Path:
    return root / "src"


class CommandError(RuntimeError):
    pass


def run_child(mode: str, wl: W.Workload, root: Path, **extra) -> dict:
    """Run one child job and return its result; stdout goes to a null sink."""
    job_dir = wl.out_dir.parent
    job = dict(extra, mode=mode, src=str(src_dir(root)), argv=wl.argv, config=wl.config,
               result=str(job_dir / f"result-{mode}.json"))
    job_path = job_dir / f"job-{mode}.json"
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path)], cwd=root, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CommandError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise CommandError(f"{mode} child exited {proc.returncode}: "
                           f"{err.decode(errors='replace').strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def run_command(wl: W.Workload, root: Path, mode: str = "run", **extra) -> dict:
    """Clear the workload's output directory, then run its command once."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    return run_child(mode, wl, root, **extra)
