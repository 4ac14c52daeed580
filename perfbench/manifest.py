"""The run manifest: what was measured, on what, with which resolved knobs."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from .environment import THREAD_VARS

__all__ = ["collect", "git_sha", "source_digest"]


def git_sha(root: Path) -> Optional[str]:
    """Commit of ``root``'s own ``.git`` directory, read without running git.

    Returns ``None`` outside a git checkout (e.g. an exported tree), where
    :func:`source_digest` still identifies the measured code.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the relative paths and contents of every ``.py`` under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas() -> Dict[str, Any]:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return {}
    info = config.get("Build Dependencies", {}).get("blas", {})
    return {k: info.get(k) for k in ("name", "version", "openblas configuration")}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect(root: Path, workload: str, seed: int, networks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The manifest of one run; ``networks`` come from :func:`perfbench.workloads.describe`."""
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "allocator_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "argv": sys.argv,
        "workload": workload,
        "seed": seed,
        "networks": networks,
    }
