"""Shared plumbing: locating the program, statistics, the run record."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of the benchmark inside the checkout (git-ignored)
WORK = ROOT / ".perfbench"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Put the checkout's own ``src/`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0-100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect set-up's garbage before the measuring window opens.

    Only what set-up left behind is collected; the index stays in the
    collector's generations, so full collections during the window
    still walk it, as they do in the program as it ships.
    """
    gc.collect()


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (``df -T``)."""
    try:
        out = subprocess.run(["df", "-T", str(path)], capture_output=True,
                             text=True, timeout=10, check=False).stdout
        return out.splitlines()[-1].split()[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def environment(store_dir: Path) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "store_filesystem": filesystem_of(store_dir),
    }


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: digest of the answers to the workload's fixed probe queries
    answers: str = ""
    #: the traced phase's span records (written to the run file)
    snapshot: dict | None = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def result_line(outcome: Outcome, names: list[str]) -> str:
    """The contract's final JSON line, holding exactly *names*."""
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0],
                           "unit": outcome.metrics[name][1]}
                    for name in names},
    })
