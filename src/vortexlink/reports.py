"""Structured, deterministic JSON reports.

Reruns with identical inputs must be byte-identical, so reports carry no
timestamps; per-stage timings go to a sidecar file next to the report.
Numeric entries that were tested against a tolerance are stored as
{"value": v, "tol": t, "pass": bool}.
"""

from __future__ import annotations

import json
import time


def checked(value, tol, passed=None) -> dict:
    if passed is None:
        passed = bool(abs(value) <= tol)
    return {"value": value, "tol": tol, "pass": bool(passed)}


def checked_window(value, lo, hi) -> dict:
    return {
        "value": value,
        "window": [lo, hi],
        "pass": bool(lo <= value <= hi),
    }


def dump_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class StageTimer:
    """Collects per-stage wall times, written to a sidecar file.

    `solver` holds per-solve CG telemetry (keyed by the solved pair); it is
    written beside the stages under its own key, so "timings" lists stages
    only.
    """

    def __init__(self):
        self.stages = {}
        self.solver = {}
        self._t0 = None
        self._name = None

    def start(self, name):
        self._t0 = time.perf_counter()
        self._name = name

    def stop(self):
        if self._name is not None:
            self.stages[self._name] = round(
                time.perf_counter() - self._t0, 4
            )
            self._name = None

    def write_sidecar(self, report_path):
        path = str(report_path) + ".timings.json"
        with open(path, "w") as fh:
            doc = {"timings": self.stages}
            if self.solver:
                doc["solver"] = self.solver
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
