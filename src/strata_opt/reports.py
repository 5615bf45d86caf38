"""JSON-serializable run reports.

A report stores only plain Python scalars/lists so that
``Report.from_json(report.to_json()) == report`` holds exactly.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import THREAD_VARS

__all__ = ["Report", "diagnostics_to_plain", "environment", "write_reports"]


def _plain(obj):
    """Recursively convert numpy scalars/arrays into JSON-native values."""
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return None  # JSON has no NaN/inf; drop to null
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def environment() -> dict:
    """What produced a run's numbers: the Python, numpy and BLAS versions (no
    BLAS where numpy predates show_config(mode="dicts")) and the BLAS thread
    variables as this process sees them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def diagnostics_to_plain(diagnostics) -> list[dict]:
    return [_plain(vars(rec)) for rec in diagnostics]


@dataclass
class Report:
    problem: dict
    diagnostics: list = field(default_factory=list)
    status_xi: int = -1
    bound: float | None = None
    distance: float | None = None
    relative_distance: float | None = None
    minimizers_voigt: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)  # distance_consistency is relative to |input|
    seconds: float = 0.0
    environment: dict = field(default_factory=dict)

    def __post_init__(self):
        self.problem = _plain(self.problem)
        self.diagnostics = _plain(self.diagnostics)
        self.bound = _plain(self.bound)
        self.distance = _plain(self.distance)
        self.relative_distance = _plain(self.relative_distance)
        self.minimizers_voigt = _plain(self.minimizers_voigt)
        self.residuals = _plain(self.residuals)
        self.seconds = float(self.seconds)
        self.environment = _plain(self.environment)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))


def write_reports(path, reports) -> None:
    """Write one report, or a list of them as a JSON array, to path."""
    text = reports.to_json() if isinstance(reports, Report) else (
        "[" + ",\n".join(r.to_json() for r in reports) + "]")
    with open(path, "w") as fh:
        fh.write(text + "\n")
