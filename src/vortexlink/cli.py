"""Batch command-line front end.

Commands: lk, comomentum, massey, oracle, export.  Reports are
deterministic JSON (byte-identical under identical inputs/config/seed);
per-stage timings go to a `<out>.timings.json` sidecar.

Exit codes: 0 success, 2 input validation, 3 numerical precondition,
4 topological obstruction, 5 invariant indeterminacy.  `massey` and `export`
gate their scene once with `tubes.validate_scene`, whose docstring gives the
order of the checks and the exit code of each.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import errors as E
from .constants import TRIPLE_LINKING_SIGN
from .grid import Grid3, VectorField
from .reports import StageTimer, checked, checked_window, dump_report, report_text
from .scenes import Config, load_scene, scene_to_doc

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_OBSTRUCTION = 4
EXIT_INDETERMINATE = 5

_NUMERICAL = (
    E.NotDivergenceFree,
    E.NonzeroMean,
    E.NonzeroHarmonicPart,
    E.ObstructedPotential,
    E.NoConvergence,
    E.TubeTooThin,
    E.TubeOverlap,
    E.CurvesIntersect,
    E.DegenerateProjection,
    E.NotPlanar,
)


def _emit(report, out_path, timer):
    if out_path:
        dump_report(out_path, report)
        timer.write_sidecar(out_path)
    else:
        sys.stdout.write(report_text(report))


# projection directions tried before a scene is declared degenerate
DIRECTION_TRIES = 32


def cmd_lk(args) -> tuple[int, dict]:
    from .linking import (
        crossing_linking,
        gauss_linking,
        with_generic_direction,
        writhe_framing,
    )

    timer = StageTimer()
    grid, link = load_scene(args.scene)
    rng = np.random.default_rng(args.seed)
    comps = link.components
    n = len(comps)
    gauss = [[0.0] * n for _ in range(n)]
    crossing = [[0] * n for _ in range(n)]
    timer.start("linking_matrix")
    for i in range(n):
        for j in range(i + 1, n):
            gauss[i][j] = gauss[j][i] = gauss_linking(comps[i], comps[j])
            crossing[i][j] = crossing[j][i] = with_generic_direction(
                lambda d: crossing_linking(comps[i], comps[j], d), rng, DIRECTION_TRIES
            )
    timer.stop()
    timer.start("writhe_framing")
    writhe, framing = [], []
    for c in comps:
        w, f = with_generic_direction(
            lambda d: writhe_framing(c, d), rng, DIRECTION_TRIES
        )
        writhe.append(w)
        framing.append(f)
    timer.stop()
    agreement = max(
        (abs(gauss[i][j] - crossing[i][j]) for i in range(n) for j in range(n) if i != j),
        default=0.0,
    )
    report = {
        "schema": "vortexlink-report-1",
        "command": "lk",
        "scene": scene_to_doc(grid, link),
        "linking": {
            "gauss": gauss,
            "crossing": crossing,
            "writhe": writhe,
            "framing": framing,
            "estimator_agreement": checked(agreement, 1e-3),
        },
    }
    _emit(report, args.out, timer)
    return 0, report


def _abc(grid, A=1.0, B=1.0, C=1.0):
    x, y, z = grid.meshgrid()
    return VectorField(grid, np.stack([
        A * np.sin(z) + C * np.cos(y),
        B * np.sin(x) + A * np.cos(z),
        C * np.sin(y) + B * np.cos(x),
    ]))


def cmd_comomentum(args) -> tuple[int, dict]:
    from .comomentum import (
        bracket_defect_residual,
        eq_potential_residual,
        equivariance_defect,
        f1,
        hamiltonian_residual,
        mu2,
        mu2_certificates,
        triple_evaluation_residual,
    )
    from .grid import dot
    from .operators import codiff
    from .random_fields import random_vector_field, tower_pair, tower_triple

    timer = StageTimer()
    cfg = Config.load(args.config)
    grid = Grid3(cfg.grid_n, cfg.grid_l)
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    tol = cfg.tolerances

    if args.non_solenoidal:
        # deliberate validation-path failure
        bad = random_vector_field(grid, rng)
        f1(bad)

    pairs = args.pairs
    triples = args.triples
    timer.start("eq25_suite")
    eq25, gauge = [], []
    for _ in range(pairs):
        b, c = tower_pair(grid, rng)
        h = f1(b)
        eq25.append(hamiltonian_residual(h, b))
        gauge.append(codiff(h).sup_norm() / max(h.sup_norm(), 1e-300))
    timer.stop()
    timer.start("eq26_eq29_suite")
    eq26, eq29, harm = [], [], []
    for _ in range(pairs):
        b, c = tower_pair(grid, rng)
        eq26.append(eq_potential_residual(b, c))
        eq29.append(bracket_defect_residual(b, c))
        harm.append(mu2_certificates(mu2(b, c))["harmonic_part"])
    timer.stop()
    timer.start("eq27_suite")
    eq27 = [triple_evaluation_residual(*tower_triple(grid, rng)) for _ in range(triples)]
    timer.stop()
    timer.start("abc_fixture")
    if abs(cfg.grid_l - 2 * np.pi) > 1e-12:
        abc_grid = Grid3(cfg.grid_n, 2 * np.pi)
    else:
        abc_grid = grid
    v = _abc(abc_grid)
    abc_eq25 = hamiltonian_residual(f1(v), v)
    defect = equivariance_defect(v, v)
    defect_norm = defect.sup_norm() / float(np.max(dot(v, v)))
    timer.stop()
    report = {
        "schema": "vortexlink-report-1",
        "command": "comomentum",
        "config": {"N": cfg.grid_n, "L": cfg.grid_l, "seed": int(rng_seed(args, cfg))},
        "comomentum": {
            "eq25": checked(max(eq25 + [abc_eq25]), tol["eps_ham"]),
            "eq26": checked(max(eq26), 1e-6),
            "eq27": checked(max(eq27), 1e-5) if eq27 else None,
            "eq29": checked(max(eq29), 1e-6),
            "gauge": checked(max(gauge), 1e-9),
            "mu2_harmonic_part": checked(max(harm), tol["eps_obstruction"]),
            "equivariance_defect_norm": {
                "value": defect_norm,
                "threshold": 0.1,
                "exceeds": bool(defect_norm > 0.1),
            },
        },
    }
    _emit(report, args.out, timer)
    return 0, report


def rng_seed(args, cfg):
    return args.seed if args.seed is not None else cfg.seed


def _scene_diagram(link, rng):
    from .diagrams import diagram_from_curves
    from .linking import with_generic_direction

    return with_generic_direction(
        lambda d: diagram_from_curves(link.components, d), rng, DIRECTION_TRIES
    )


def cmd_massey(args) -> tuple[int, dict]:
    from .diagrams import mu_bar
    from .massey import (
        MasseyConfig,
        MasseyHierarchy,
        cartan_bianchi_report,
        involution_report,
    )

    timer = StageTimer()
    cfg = Config.load(args.config)
    grid, link = load_scene(args.scene)
    rng = np.random.default_rng(rng_seed(args, cfg))
    tol = cfg.tolerances
    mcfg = MasseyConfig(
        eps_period=tol["eps_period"],
        eps_massey=tol["eps_massey"],
        cg_tol=tol["cg_tol"],
        cg_maxiter=int(tol["cg_maxiter"]),
    )
    timer.start("scene_fields")
    h = MasseyHierarchy.from_scene(link, grid, mcfg)
    timer.stop()
    n = len(link.components)
    periods = {}
    timer.start("pairwise")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            h.obstruction_form(i, j)
            periods[f"{i}{j}"] = {
                str(k): v for k, v in h.certificates[("periods", (i, j))].items()
            }
    timer.stop()
    prim_res = {}
    try:
        timer.start("solves")
        for (i, j) in ((1, 2), (2, 3)) if n >= 3 else ((1, 2),):
            _, info = h.solve(i, j)
            prim_res[f"{i}{j}"] = {
                "masked_residual": checked(info["masked_residual"], mcfg.eps_massey),
                "iterations": info["iterations"],
            }
            timer.solver[f"{i}{j}"] = info["telemetry"]
        timer.stop()
    except E.ObstructedClass as exc:
        timer.stop()
        report = {
            "schema": "vortexlink-report-1",
            "command": "massey",
            "scene": scene_to_doc(grid, link),
            "massey": {
                "periods": periods,
                "obstructed": {
                    "pair": _offending_pair(h, mcfg),
                    "message": str(exc),
                },
            },
        }
        _emit(report, args.out, timer)
        print(f"ObstructedClass: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION, report

    massey_section = {"periods": periods, "primitive_residuals": prim_res}
    if n >= 3:
        timer.start("triple")
        h.massey_triple()
        mu_grid = h.triple_linking(3)
        timer.stop()
        timer.start("oracle")
        diagram = _scene_diagram(link, rng)
        mu_oracle = mu_bar(diagram, (1, 2, 3))
        timer.stop()
        timer.start("cartan_bianchi")
        cartan = cartan_bianchi_report(h)
        timer.stop()
        timer.start("involution")
        invol = involution_report(h)
        inv_max = max(
            (v for part in ("iota", "lie", "pb") for v in invol[part].values()), default=0.0
        )
        timer.stop()
        massey_section.update(
            {
                "closedness": {
                    "".join(map(str, key)):
                        checked(h.certificates[("closedness", key)], mcfg.eps_massey)
                    for key in ((1, 2), (2, 3), (1, 2, 3))
                },
                "mu123_grid": mu_grid,
                "mu123_grid_calibrated": TRIPLE_LINKING_SIGN * mu_grid,
                "mu123_oracle": int(mu_oracle),
                "calibrated_sign": TRIPLE_LINKING_SIGN,
                # a zero oracle value has no ratio: the grid period must
                # then pass the meridian-period gate for a vanishing class
                "agreement": (
                    checked_window(abs(mu_grid) / abs(mu_oracle), 0.85, 1.15)
                    if mu_oracle
                    else checked(abs(mu_grid), mcfg.eps_period)
                ),
                "cartan_bianchi": cartan,
                "involution": invol,
                "involution_max_residual": checked(inv_max, mcfg.eps_massey),
            }
        )
    report = {
        "schema": "vortexlink-report-1",
        "command": "massey",
        "scene": scene_to_doc(grid, link),
        "massey": massey_section,
    }
    _emit(report, args.out, timer)
    return 0, report


def _offending_pair(h, mcfg):
    bad = [key for (kind, key), periods in h.certificates.items()
           if kind == "periods" and any(abs(p) > mcfg.eps_period for p in periods.values())]
    return f"{bad[0][0]},{bad[0][1]}" if bad else None


def cmd_oracle(args) -> tuple[int, dict]:
    from .diagrams import LinkDiagram, mu_bar, _proper_subsequences

    timer = StageTimer()
    index = tuple(int(ch) for ch in args.index)
    if args.diagram:
        with open(args.diagram) as fh:
            diagram = LinkDiagram.from_json(fh.read())
        scene_doc = {"diagram": args.diagram}
    elif args.scene:
        grid, link = load_scene(args.scene)
        rng = np.random.default_rng(args.seed or 0)
        diagram = _scene_diagram(link, rng)
        scene_doc = scene_to_doc(grid, link)
    else:
        raise E.SceneError("oracle needs --scene or --diagram")
    timer.start("mu_bar")
    trail = {}
    for sub in _proper_subsequences(index):
        trail["".join(map(str, sub))] = mu_bar(diagram, sub, check_lower=False)
    value = mu_bar(diagram, index)
    timer.stop()
    report = {
        "schema": "vortexlink-report-1",
        "command": "oracle",
        "scene": scene_doc,
        "oracle": {
            "index": args.index,
            "value": int(value),
            "vanishing_checks": trail,
        },
    }
    _emit(report, args.out, timer)
    print(f"mu_bar({args.index}) = {value}")
    return 0, report


def cmd_export(args) -> tuple[int, dict]:
    import os

    from .fieldio import write_vlf, write_vtk
    from .tubes import LinkFields

    timer = StageTimer()
    grid, link = load_scene(args.scene)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    timer.start("fields")
    lf = LinkFields.build(link, grid)
    timer.stop()
    written = []
    timer.start("write")
    for i, om in enumerate(lf.omegas):
        base = os.path.join(out_dir, f"omega_{i + 1}")
        write_vlf(base + ".vlf", om)
        write_vtk(base + ".vtk", om, name=f"omega_{i + 1}")
        written.extend([base + ".vlf", base + ".vtk"])
    vtot = lf.primitive_total()
    base = os.path.join(out_dir, "velocity_primitive")
    write_vlf(base + ".vlf", vtot)
    write_vtk(base + ".vtk", vtot, name="velocity_primitive")
    written.extend([base + ".vlf", base + ".vtk"])
    timer.stop()
    report = {
        "schema": "vortexlink-report-1",
        "command": "export",
        "scene": scene_to_doc(grid, link),
        # names inside out_dir: the report does not depend on how the
        # directory was spelled or where the command ran
        "written": sorted(os.path.basename(p) for p in written),
    }
    report_path = os.path.join(out_dir, "export_report.json")
    dump_report(report_path, report)
    timer.write_sidecar(report_path)
    return 0, report


def build_parser():
    p = argparse.ArgumentParser(
        prog="vortexlink",
        description="Helicity, linking numbers and Massey hierarchy on the periodic box",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scene_required=True):
        sp.add_argument("--config", default=None, help="config JSON path")
        if scene_required is not None:
            sp.add_argument(
                "--scene", default=None, required=scene_required,
                help="scene JSON path (schema vlink-1)",
            )
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="report JSON path")

    sp = sub.add_parser("lk", help="linking matrix, writhe and framing")
    common(sp)
    sp.set_defaults(func=cmd_lk)

    sp = sub.add_parser("comomentum", help="co-momentum residual suite")
    common(sp, scene_required=False)
    sp.add_argument("--pairs", type=int, default=20)
    sp.add_argument("--triples", type=int, default=10)
    sp.add_argument(
        "--non-solenoidal", action="store_true",
        help="feed a non-solenoidal field (validation-path check)",
    )
    sp.set_defaults(func=cmd_comomentum)

    sp = sub.add_parser("massey", help="Massey hierarchy and triple linking")
    common(sp)
    sp.set_defaults(func=cmd_massey)

    sp = sub.add_parser("oracle", help="Milnor mu-bar from a diagram or scene")
    common(sp, scene_required=False)
    sp.add_argument("--diagram", default=None, help="diagram JSON (vdiag-1)")
    sp.add_argument("index", help="multi-index, e.g. 12 or 123")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("export", help="export scene fields (VTK + VLF1)")
    common(sp)
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, _ = args.func(args)
        return code
    except E.IndeterminateInvariant as exc:
        print(f"IndeterminateInvariant: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except E.ObstructedClass as exc:
        print(f"ObstructedClass: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except _NUMERICAL as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (E.SceneError, E.InconsistentDiagram, FileNotFoundError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
