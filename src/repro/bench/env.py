"""Environment fingerprint embedded in every benchmark result file.

The fingerprint answers "were these two result files produced under
comparable conditions?" — ``repro bench compare`` prints a warning when the
Python or NumPy versions differ, because modelled metric values are only
guaranteed bit-identical under identical numerics, and hard-gates wall
times only between documents with the same timing fields (kernel family,
machine, CPU model and count, interpreter; see ``compare.py``).

``platform`` records the kernel *family* (``Linux-6.18``), not the full
release: the release string changes with every kernel patch build, which
says nothing about how fast code runs, while the CPU model and count do.
"""
from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
from typing import Dict, Optional

import numpy as np

__all__ = ["environment_fingerprint", "git_revision", "kernel_family",
           "cpu_model"]


def kernel_family() -> str:
    """Operating system plus kernel ``major.minor``, e.g. ``Linux-6.18``."""
    release = platform.release()
    match = re.match(r"\d+(\.\d+)?", release)
    return f"{platform.system()}-{match.group(0) if match else release}"


def cpu_model() -> str:
    """The CPU's model name: ``/proc/cpuinfo`` on Linux, else
    ``platform.processor()`` (possibly ``""``)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit (``<sha>[-dirty]``), or ``None`` outside a checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{sha}-dirty" if dirty else sha
    except (OSError, subprocess.SubprocessError):
        return None


def environment_fingerprint(cwd: Optional[str] = None) -> Dict[str, object]:
    """Stable description of the interpreter, libraries and machine."""
    from .. import __version__ as repro_version

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": kernel_family(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "repro": repro_version,
        "executable": sys.executable,
        "git": git_revision(cwd),
    }
