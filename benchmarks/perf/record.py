"""Benchmark records: the environment block and JSON read/write.

Every record names the machine and software it was measured on, so two
records can be compared only when that is meaningful.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

__all__ = ["SCHEMA_VERSION", "ENV_PINS", "env_block", "missing_pins",
           "write_record", "read_record"]

#: Version of the record layout below; bump on any incompatible change.
SCHEMA_VERSION = 1

#: Environment variables a run must pin: training is sensitive to hash
#: order, and BLAS threads would compete with the service's own two.
ENV_PINS = ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS")


def missing_pins() -> list[str]:
    return [name for name in ENV_PINS if not os.environ.get(name)]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _blas() -> dict:
    import numpy
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def env_block(root: Path, seed: int) -> dict:
    import numpy
    return {
        "schema_version": SCHEMA_VERSION,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(root),
        "seed": seed,
        **{name: os.environ.get(name) for name in ENV_PINS},
    }


def write_record(path, record: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def read_record(path) -> dict:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    version = record.get("env", {}).get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: record schema {version!r}, "
                         f"expected {SCHEMA_VERSION}")
    return record
