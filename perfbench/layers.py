"""Per-layer metrics from the spans that traced_cli.py records.

A span's self time is its duration minus the time its direct child spans
cover.  A ``.s`` metric is the inclusive time of the outermost spans of
that name, summed over one pass; a ``.self_s`` metric sums self times.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit, better); the order is the order of the printed result
PER_LAYER = [
    ("operators.fft.calls", "count", "lower"),
    ("operators.fft.ms_per_call", "ms", "lower"),
    ("operators.fft.self_s", "s", "lower"),
    ("operators.fft.gb_computed", "GB", "lower"),
    # fft_probe.py: one rfft3 on 96^3 with the default workers and with one
    ("operators.fft.probe_ms", "ms", "lower"),
    ("operators.fft.probe_ms_1thread", "ms", "lower"),
    ("operators.ext_d.self_s", "s", "lower"),
    ("operators.codiff.self_s", "s", "lower"),
    ("operators.curl_inv.self_s", "s", "lower"),
    ("operators.laplace_inv.self_s", "s", "lower"),
    ("operators.wedge.self_s", "s", "lower"),
    ("massey.cg.iterations", "count", "lower"),
    ("massey.cg.ms_per_iteration", "ms", "lower"),
    ("massey.cg.ffts_per_iteration", "count", "lower"),
    ("massey.solve_primitive.self_s", "s", "lower"),
    ("massey.precondition.self_s", "s", "lower"),
    ("massey.masked_domain.s", "s", "lower"),
    ("massey.distance_to_curve_field.s", "s", "lower"),
    ("massey.bianchi_residual.s", "s", "lower"),
    ("massey.involution_report.s", "s", "lower"),
    ("tubes.deposit.points", "count", "lower"),
    ("tubes.deposit.us_per_point", "us", "lower"),
    ("tubes.disc_dual_1form.s", "s", "lower"),
    ("tubes.link_fields.s", "s", "lower"),
    ("tubes.meridian_period.calls", "count", "lower"),
    ("tubes.meridian_period.ms_per_call", "ms", "lower"),
    ("interpolate.trilinear.points", "count", "lower"),
    ("interpolate.trilinear.s", "s", "lower"),
    ("linking.gauss_linking.s", "s", "lower"),
    ("linking.find_crossings.calls", "count", "lower"),
    ("linking.find_crossings.s", "s", "lower"),
    ("linking.projection_yield", "ratio", "higher"),
    ("diagrams.mu_bar.calls", "count", "lower"),
    ("diagrams.mu_bar.s", "s", "lower"),
    ("comomentum.f1.s", "s", "lower"),
    ("comomentum.f2.s", "s", "lower"),
    ("random_fields.s", "s", "lower"),
    ("fieldio.write_vtk.s", "s", "lower"),
    ("fieldio.write_vlf.s", "s", "lower"),
    ("fieldio.mb_written", "MB", "lower"),
    ("fieldio.write_vtk.mb_per_s", "MB/s", "higher"),
    ("scenes.load_scene.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
]

# every stage a command writes to its .timings.json sidecar
STAGES = [
    "linking_matrix", "writhe_framing",
    "eq25_suite", "eq26_eq29_suite", "eq27_suite", "abc_fixture",
    "scene_fields", "pairwise", "solves", "triple", "oracle",
    "cartan_bianchi", "involution",
    "mu_bar",
    "fields", "write",
]
PER_LAYER += [(f"cli.stage.{s}_s", "s", "lower") for s in STAGES]
PER_LAYER += [
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _command_totals(spans, acc, cg):
    """Add one command's spans into the per-name accumulators."""
    n = len(spans)
    children = [[] for _ in range(n)]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    ffts_under = [0] * n
    for i, row in enumerate(spans):
        if row[0] == "operators.fft":
            p = row[3]
            while p >= 0:
                ffts_under[p] += 1
                p = spans[p][3]
    for i, (name, t0, t1, parent, count) in enumerate(spans):
        dur = t1 - t0
        acc["calls", name] += 1
        acc["count", name] += count
        acc["self", name] += dur - sum(spans[c][2] - spans[c][1] for c in children[i])
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            acc["incl", name] += dur
        if name != "massey.solve_primitive":
            continue
        kids = [spans[c][0] for c in children[i]]
        iterations = kids.count("massey.precondition")
        if not iterations:
            continue
        # an iteration is one apply_A plus one preconditioning: the first
        # preconditioning stands in for the one the last iteration skips,
        # and the right-hand-side codiff and the final ext_d are left out
        rhs = children[i][kids.index("operators.codiff")]
        final = children[i][len(kids) - 1 - kids[::-1].index("operators.ext_d")]
        cg["iterations"] += iterations
        cg["ffts"] += ffts_under[i] - ffts_under[rhs] - ffts_under[final]
        cg["s"] += dur


def pass_metrics(commands) -> dict:
    """Per-layer metrics of one traced pass.

    `commands` holds one dict per command with the span rows (`spans`),
    the import time (`import_s`) and the CG iteration count its report
    states (`report_iterations`).
    """
    acc = defaultdict(float)
    cg = defaultdict(float)
    for cmd in commands:
        _command_totals(cmd["spans"], acc, cg)
    reported = sum(cmd["report_iterations"] for cmd in commands)
    if reported != cg["iterations"]:
        raise ValueError(
            f"reports state {reported} CG iterations, spans show {cg['iterations']:g}"
        )

    def calls(n):
        return acc["calls", n]

    vtk_mb = acc["count", "fieldio.write_vtk"] / 1e6
    out = {
        "operators.fft.calls": calls("operators.fft"),
        "operators.fft.ms_per_call": _ratio(acc["self", "operators.fft"], calls("operators.fft"), 1e3),
        "operators.fft.self_s": acc["self", "operators.fft"],
        "operators.fft.gb_computed": acc["count", "operators.fft"] / 1e9,
        "massey.cg.iterations": reported,
        "massey.cg.ms_per_iteration": _ratio(cg["s"], cg["iterations"], 1e3),
        "massey.cg.ffts_per_iteration": _ratio(cg["ffts"], cg["iterations"]),
        "massey.solve_primitive.self_s": acc["self", "massey.solve_primitive"],
        "massey.precondition.self_s": acc["self", "massey.precondition"],
        "tubes.deposit.points": acc["count", "tubes.deposit"],
        "tubes.deposit.us_per_point": _ratio(acc["incl", "tubes.deposit"], acc["count", "tubes.deposit"], 1e6),
        "tubes.meridian_period.calls": calls("tubes.meridian_period"),
        "tubes.meridian_period.ms_per_call": _ratio(acc["incl", "tubes.meridian_period"], calls("tubes.meridian_period"), 1e3),
        "interpolate.trilinear.points": acc["count", "interpolate.trilinear"],
        "linking.find_crossings.calls": calls("linking.find_crossings"),
        "linking.projection_yield": _ratio(acc["count", "linking.find_crossings"], calls("linking.find_crossings")),
        "diagrams.mu_bar.calls": calls("diagrams.mu_bar"),
        "fieldio.mb_written": vtk_mb + acc["count", "fieldio.write_vlf"] / 1e6,
        "fieldio.write_vtk.mb_per_s": _ratio(vtk_mb, acc["incl", "fieldio.write_vtk"]),
        "cli.import_s": statistics.median(c["import_s"] for c in commands),
    }
    for op in ("ext_d", "codiff", "curl_inv", "laplace_inv", "wedge"):
        out[f"operators.{op}.self_s"] = acc["self", f"operators.{op}"]
    for name in (
        "massey.masked_domain", "massey.distance_to_curve_field",
        "massey.bianchi_residual", "massey.involution_report",
        "tubes.disc_dual_1form", "tubes.link_fields", "interpolate.trilinear",
        "linking.gauss_linking", "linking.find_crossings", "diagrams.mu_bar",
        "comomentum.f1", "comomentum.f2", "random_fields",
        "fieldio.write_vtk", "fieldio.write_vlf", "scenes.load_scene",
    ):
        out[f"{name}.s"] = acc["incl", name]
    return out


def stage_metrics(sidecars) -> dict:
    """Per-stage seconds of one untraced pass, summed over its commands."""
    out = {f"cli.stage.{s}_s": 0.0 for s in STAGES}
    for stages in sidecars:
        for name, seconds in stages.items():
            if name not in STAGES:
                raise ValueError(f"sidecar reports an unlisted stage {name!r}")
            out[f"cli.stage.{name}_s"] += seconds
    return out
