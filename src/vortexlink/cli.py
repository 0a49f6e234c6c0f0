"""Batch command-line front end.

Commands: lk, comomentum, massey, oracle, export.  Each report section is
built by the library (`linking.linking_report`, `comomentum.comomentum_report`,
`massey.massey_report`, `diagrams.oracle_report`); this module parses the
arguments, reads the config section and the scene or diagram (each JSON
document through `scenes.read_json`), and writes the files.  Reports are
deterministic JSON (byte-identical under identical inputs/config/seed);
per-stage timings go to a `<out>.timings.json` sidecar.  `--seed` (default
0) is the only seed source; `lk`, `oracle --scene` and `massey` each
project their scene once, through `diagrams.scene_diagram`, along the
first generic direction drawn from it.

A command takes only the inputs it reads.  `comomentum` reads only the
`grid` section (`N`, `L`) of its `--config`, `massey` only `tolerances`
(`eps_massey`, `eps_period`, `cg_tol`, `cg_maxiter`; every other gate is a
constant of `constants.py`): any other key is a SceneError before the scene
is read.  `lk`, `oracle` and `export` have no `--config`, `comomentum` no
`--scene`, and `oracle` reads one of `--scene` and `--diagram`.

Exit codes: 0 success, 2 for a usage error (the parser checks the counts
and the oracle's multi-index digits before any file is read), a malformed
input (a SceneError) or a path that cannot be read or written (any
OSError: a missing file, a directory where a file belongs, an `--out`
under a regular file), otherwise the `exit_code` of the raised error (see
`errors.py`).  `massey` and `export` gate their scene once with
`tubes.validate_scene`, whose docstring gives the order of the checks.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import errors as E
from .reports import StageTimer, dump_report, report_text
from .scenes import grid_config, load_scene, read_json, scene_to_doc, tolerance_config

EXIT_VALIDATION = E.SceneError.exit_code
EXIT_NUMERICAL = E.NotDivergenceFree.exit_code
EXIT_OBSTRUCTION = E.ObstructedClass.exit_code
EXIT_INDETERMINATE = E.IndeterminateInvariant.exit_code


def _envelope(command, **sections) -> dict:
    """The report: schema and command, then the scene (or config) echo and
    the library's section."""
    return {"schema": "vortexlink-report-1", "command": command, **sections}


def _emit(report, out_path, timer):
    if out_path:
        dump_report(out_path, report)
        timer.write_sidecar(out_path)
    else:
        sys.stdout.write(report_text(report))


def _check_index(index, n):
    """SceneError unless every digit of the multi-index names a component."""
    for ch in index:
        if not 1 <= int(ch) <= n:
            raise E.SceneError(f"multi-index {index} names component {ch} of a {n}-component link")


def cmd_lk(args) -> tuple[int, dict]:
    from .linking import linking_report

    timer = StageTimer()
    rng = np.random.default_rng(args.seed)
    grid, link = load_scene(args.scene)
    report = _envelope("lk", scene=scene_to_doc(grid, link),
                       linking=linking_report(link, rng, timer))
    _emit(report, args.out, timer)
    return 0, report


def cmd_comomentum(args) -> tuple[int, dict]:
    from .comomentum import comomentum_report

    timer = StageTimer()
    grid = grid_config(args.config)
    rng = np.random.default_rng(args.seed)
    section = comomentum_report(grid, rng, args.pairs, args.triples, timer)
    report = _envelope("comomentum", comomentum=section, config={
        "N": grid.n_points, "L": grid.box_length, "seed": args.seed})
    _emit(report, args.out, timer)
    return 0, report


def cmd_massey(args) -> tuple[int, dict]:
    from .massey import massey_report

    timer = StageTimer()
    tolerances = tolerance_config(args.config)
    rng = np.random.default_rng(args.seed)
    grid, link = load_scene(args.scene)
    section, obstruction = massey_report(link, grid, tolerances, rng, timer)
    report = _envelope("massey", scene=scene_to_doc(grid, link), massey=section)
    _emit(report, args.out, timer)
    if obstruction is not None:
        raise obstruction
    return 0, report


def cmd_oracle(args) -> tuple[int, dict]:
    from .diagrams import diagram_from_doc, diagram_to_doc, oracle_report, scene_diagram

    timer = StageTimer()
    if args.diagram:
        diagram = diagram_from_doc(read_json(args.diagram))
        _check_index(args.index, diagram.n_components)
        # the document itself, so the report does not depend on the path
        scene = diagram_to_doc(diagram)
    else:
        rng = np.random.default_rng(args.seed)
        grid, link = load_scene(args.scene)
        _check_index(args.index, len(link.components))
        diagram = scene_diagram(link, rng)
        scene = scene_to_doc(grid, link)
    report = _envelope("oracle", scene=scene, oracle=oracle_report(diagram, args.index, timer))
    _emit(report, args.out, timer)
    print(f"mu_bar({args.index}) = {report['oracle']['value']}")
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
    # names inside out_dir: the report does not depend on how the
    # directory was spelled or where the command ran
    report = _envelope("export", scene=scene_to_doc(grid, link),
                       written=sorted(os.path.basename(p) for p in written))
    report_path = os.path.join(out_dir, "export_report.json")
    dump_report(report_path, report)
    timer.write_sidecar(report_path)
    return 0, report


def _count(least):
    """argparse type: an integer of at least `least`, else a usage error that
    argparse prefixes with the flag's name."""
    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    parse.__name__ = "count"
    return parse


def _multi_index(text):
    """argparse type: a multi-index of two or more component digits, such as
    12 or 123, else a usage error."""
    if not (text.isascii() and text.isdigit() and len(text) >= 2):
        raise argparse.ArgumentTypeError(
            f"must be two or more component digits, such as 12 or 123, got {text!r}"
        )
    return text


def build_parser():
    p = argparse.ArgumentParser(
        prog="vortexlink",
        description="Helicity, linking numbers and Massey hierarchy on the periodic box",
    )
    sub = p.add_subparsers(dest="command", required=True)
    scene_help = "scene JSON path (schema vlink-1)"

    def common(sp, scene=True, config=False, out_help="report JSON path"):
        if config:
            sp.add_argument("--config", default=None, help="config JSON path")
        if scene:
            sp.add_argument("--scene", required=True, help=scene_help)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help=out_help)

    sp = sub.add_parser("lk", help="linking matrix, writhe and framing")
    common(sp)
    sp.set_defaults(func=cmd_lk)

    sp = sub.add_parser("comomentum", help="co-momentum residual suite")
    common(sp, scene=False, config=True)
    sp.add_argument("--pairs", type=_count(1), default=20,
                    help="tower pairs to draw (at least 1)")
    sp.add_argument("--triples", type=_count(0), default=10,
                    help="tower triples to draw (0 skips eq. 27)")
    sp.set_defaults(func=cmd_comomentum)

    sp = sub.add_parser("massey", help="Massey hierarchy and triple linking")
    common(sp, config=True)
    sp.set_defaults(func=cmd_massey)

    sp = sub.add_parser("oracle", help="Milnor mu-bar from a diagram or scene")
    common(sp, scene=False)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--scene", help=scene_help)
    source.add_argument("--diagram", help="diagram JSON (vdiag-1)")
    sp.add_argument("index", type=_multi_index, help="multi-index, e.g. 12 or 123")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("export", help="export scene fields (VTK + VLF1)")
    common(sp, out_help="output directory for export_report.json and the field files")
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, _ = args.func(args)
        return code
    except E.VortexLinkError as exc:
        if exc.exit_code is None:
            raise
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a missing input, a directory named as a file or an output path
        # that cannot be made: one line, no traceback
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
