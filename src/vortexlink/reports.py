"""Structured, deterministic JSON reports.

Reruns with identical inputs must be byte-identical, so reports carry no
timestamps; per-stage timings go to a sidecar file next to the report.
Numeric entries that were tested against a tolerance are stored as
{"value": v, "tol": t, "pass": bool}.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def checked(value, tol) -> dict:
    return {"value": value, "tol": tol, "pass": bool(abs(value) <= tol)}


def checked_window(value, lo, hi) -> dict:
    return {
        "value": value,
        "window": [lo, hi],
        "pass": bool(lo <= value <= hi),
    }


def report_text(doc: dict) -> str:
    """The package's one JSON layout for the files it writes: indented,
    keys sorted, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dump_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(report))


def _fft_calls() -> int:
    """The spectral layer's transform count so far; 0 while it is not
    imported, so that timing a command that transforms nothing (`lk`,
    `oracle`) never imports the spectral layer."""
    operators = sys.modules.get(f"{__package__}.operators")
    return 0 if operators is None else operators.fft_calls


def _resident_mb() -> float:
    """The process's current resident set in MiB (Linux /proc/self/statm)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class StageTimer:
    """Collects per-stage wall times, written to a sidecar file.

    `solver` holds per-solve CG telemetry (keyed by the solved interval,
    such as "12" or "123"),
    `peak_rss_mb` the process's peak resident set at the end of each stage
    (a high-water mark, so it never falls from one stage to the next),
    `rss_mb` its current resident set at the end of each stage (it falls
    when a stage frees memory that the allocator hands back), `minflt` the
    minor page faults taken in each stage (ru_minflt; a page the process
    maps afresh costs one) and `fft_calls` the `rfft3`/`irfft3` calls made
    in each stage.  They are written beside the stages under their own keys,
    so "timings" lists stage seconds only; "solver" is written only when
    there were solves and "fft_calls" only when some stage transformed.
    """

    def __init__(self):
        self.stages = {}
        self.solver = {}
        self.peak_rss_mb = {}
        self.rss_mb = {}
        self.minflt = {}
        self.fft_calls = {}
        self._t0 = None
        self._ffts0 = None
        self._minflt0 = None
        self._name = None

    def start(self, name):
        self._t0 = time.perf_counter()
        self._ffts0 = _fft_calls()
        self._minflt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self._name = name

    def stop(self):
        if self._name is not None:
            self.stages[self._name] = round(
                time.perf_counter() - self._t0, 4
            )
            # the current resident set first: the high-water mark read after
            # it covers it.  ru_maxrss counts KiB (Linux)
            self.rss_mb[self._name] = round(_resident_mb(), 1)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.peak_rss_mb[self._name] = round(usage.ru_maxrss / 1024, 1)
            self.minflt[self._name] = usage.ru_minflt - self._minflt0
            self.fft_calls[self._name] = _fft_calls() - self._ffts0
            self._name = None

    def write_sidecar(self, report_path):
        path = str(report_path) + ".timings.json"
        with open(path, "w") as fh:
            doc = {"timings": self.stages, "peak_rss_mb": self.peak_rss_mb,
                   "rss_mb": self.rss_mb, "minflt": self.minflt}
            if self.solver:
                doc["solver"] = self.solver
            if any(self.fft_calls.values()):
                doc["fft_calls"] = self.fft_calls
            fh.write(report_text(doc))
