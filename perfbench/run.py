"""Benchmark of the vortexlink command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every operation is one
``python3 -m vortexlink.cli`` process on the checkout's ``src``, started
after the previous one has exited (a closed loop with one client).  A pass
runs each of the workload's commands once; the run repeats whole passes
for about ``--seconds`` (the whole number of passes that ends nearest to
it, at least one), checks every output (checks.py) and prints one JSON
object as its last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's passes.  With ``--trace 1`` untraced and traced passes alternate:
traced passes run the command through traced_cli.py and give the per-layer
metrics (layers.py), untraced passes give the per-stage times and the
reference for the tracing overhead.  The spans are written to
``.perfbench/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402

WORK = ROOT / ".perfbench"
FIX = "fixtures/"
MASSEY_CONFIG = "perfbench/inputs/massey_borromean.json"
# every run must end within 180 s
RUN_DEADLINE_S = 175

END_TO_END = [
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

WORKLOADS = (
    "massey-borromean", "fixture-sweep", "comomentum-tower", "export-borromean",
)


def workload_ops(name, seed, out: Path):
    """The commands of one pass: (operation, CLI arguments, report, output dir)."""
    s = ["--seed", str(seed)]
    ops = []

    def op(key, argv, out_dir=None):
        report = out / (key.replace(":", "_") + ".json")
        if out_dir is None:
            argv = argv[:1] + ["--out", str(report)] + argv[1:]
        else:
            report = out_dir / "export_report.json"
            argv = argv[:1] + ["--out", str(out_dir)] + argv[1:]
        ops.append((key, argv, report, out_dir))

    if name == "massey-borromean":
        op("massey", ["massey", "--scene", FIX + "borromean.json",
                      "--config", MASSEY_CONFIG, *s])
        op("oracle:scene", ["oracle", "--scene", FIX + "borromean.json", *s, "123"])
        op("oracle:diagram", ["oracle", "--diagram", FIX + "borromean_diagram.json", "123"])
    elif name == "fixture-sweep":
        scenes = (("hopf", "12"), ("split", "12"), ("split_triple", "123"),
                  ("borromean", "123"))
        for scene, _ in scenes:
            op(f"lk:{scene}", ["lk", "--scene", f"{FIX}{scene}.json", *s])
        for scene, index in scenes:
            op(f"oracle:{scene}", ["oracle", "--scene", f"{FIX}{scene}.json", *s, index])
        for scene, index in (("hopf", "12"), ("borromean", "123")):
            op(f"oracle:{scene}_diagram",
               ["oracle", "--diagram", f"{FIX}{scene}_diagram.json", index])
        for scene in ("hopf", "split", "split_triple"):
            op(f"massey:{scene}", ["massey", "--scene", f"{FIX}{scene}.json", *s])
    elif name == "comomentum-tower":
        op("comomentum", ["comomentum", "--pairs", "1", "--triples", "1", *s])
    elif name == "export-borromean":
        op("export", ["export", "--scene", FIX + "borromean.json", *s], out / "export")
    return ops


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"the run reached its {RUN_DEADLINE_S} s deadline")


def run_command(prefix, argv, env, err_path, t_run):
    """Run one command to its exit: (exit code, wall s, peak RSS MB)."""
    left = max(1, int(RUN_DEADLINE_S - (time.perf_counter() - t_run)))
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(prefix + argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(left)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_pass(workload, seed, traced, env, t_run):
    # one directory for every pass: reports that name their files must match
    out = WORK / workload / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ran = []
    t0 = time.perf_counter()
    for key, argv, report, out_dir in workload_ops(workload, seed, out):
        tag = key.replace(":", "_")
        prefix = [sys.executable]
        if traced:
            prefix += [str(HERE / "traced_cli.py"), str(out / f"{tag}.spans.json")]
        else:
            prefix += ["-m", "vortexlink.cli"]
        ran.append((key, tag, report, out_dir,
                    *run_command(prefix, argv, env, out / f"{tag}.stderr", t_run)))
    pass_s = time.perf_counter() - t0

    results, setups, rss, sidecars, commands = {}, [], [], [], []
    for key, tag, report, out_dir, code, wall, peak in ran:
        raw = report.read_bytes() if report.exists() else None
        results[key] = {
            "exit": code,
            "report": raw,
            "stderr": (out / f"{tag}.stderr").read_text(errors="replace"),
            "out_dir": str(out_dir) if out_dir else None,
        }
        sidecar = Path(str(report) + ".timings.json")
        stages = json.loads(sidecar.read_text())["timings"] if sidecar.exists() else {}
        sidecars.append(stages)
        setups.append(wall - sum(stages.values()))
        rss.append(peak)
        if traced:
            doc = json.loads((out / f"{tag}.spans.json").read_text())
            iters = json.loads(raw).get("massey", {}).get("primitive_residuals", {}) if raw else {}
            commands.append({
                "key": key,
                "spans": doc["spans"],
                "import_s": doc["import_s"],
                "report_iterations": sum(v["iterations"] for v in iters.values()),
            })
    try:
        rows = checks.CHECKS[workload](results)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        # a missing output or a report without the expected entries fails the pass
        rows = [("reports", "readable", False, repr(exc))]
    shutil.rmtree(out, ignore_errors=True)
    return {
        "traced": traced,
        "pass_s": pass_s,
        "setups": setups,
        "peak_rss_mb": max(rss),
        "results": results,
        "rows": rows,
        "stages": layers.stage_metrics(sidecars),
        "commands": commands,
    }


def check_spec():
    """The metric names of BENCHMARK.json must be the ones this file prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    have_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    have_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if have_e2e != END_TO_END or have_layer != layers.PER_LAYER:
        raise SystemExit("BENCHMARK.json lists other metrics than perfbench prints")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json lists other workloads than perfbench runs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    missing = [p for p in ("src/vortexlink/cli.py", "fixtures/borromean.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a vortexlink checkout: {', '.join(missing)} missing", file=sys.stderr)
        return 2
    check_spec()
    t_run = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    # a stopped run stops the command it is waiting for (see run_command)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # compile the package once, so that no timed command writes bytecode
    subprocess.run([sys.executable, "-c", "import vortexlink.cli, vortexlink.massey, "
                    "vortexlink.comomentum, vortexlink.fieldio, vortexlink.diagrams"],
                   cwd=ROOT, env=env, check=True)

    passes = []
    t_measure = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, args.seed, traced, env, t_run))
        kinds = {p["traced"] for p in passes}
        # stop at the whole number of passes that ends nearest to --seconds
        elapsed = time.perf_counter() - t_measure
        if elapsed * (1 + 0.5 / len(passes)) >= args.seconds and len(kinds) == 1 + args.trace:
            break

    # passes with the same seed must write byte-identical reports
    first = passes[0]["results"]
    for p in passes[1:]:
        for key, res in p["results"].items():
            p["rows"].append((key, "identical_reruns", res["report"] == first[key]["report"], ""))

    attempted = failed = 0
    correct = True
    for p in passes:
        bad = {}
        for op, check, ok, detail in p["rows"]:
            if not ok:
                bad.setdefault(op, []).append((check, detail))
        attempted += len(p["results"])
        failed += len(bad)
        for op, found in bad.items():
            for check, detail in found:
                known = (op, check) in checks.KNOWN_FAULTS
                if not known:
                    correct = False
                if p is passes[0] or not known:
                    label = "known fault" if known else "FAILED"
                    print(f"{label}: {op} {check} {detail}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    med = statistics.median
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layers.pass_metrics(p["commands"]) for p in traced]
        values = {k: med(m[k] for m in per_pass) for k in per_pass[0]}
        for k in plain[0]["stages"]:
            values[k] = med(p["stages"][k] for p in plain)
        base = med(p["pass_s"] for p in plain)
        values["trace.overhead_s"] = med(p["pass_s"] for p in traced) - base
        values["trace.overhead_share"] = values["trace.overhead_s"] / base
        for key, threads in (("operators.fft.probe_ms", None), ("operators.fft.probe_ms_1thread", "1")):
            probe_env = dict(env)
            probe_env.pop("VORTEXLINK_THREADS", None)
            if threads:
                probe_env["VORTEXLINK_THREADS"] = threads
            probe = subprocess.run([sys.executable, str(HERE / "fft_probe.py")], cwd=ROOT,
                                   env=probe_env, capture_output=True, text=True, check=True)
            values[key] = json.loads(probe.stdout)["ms"]
        spec = layers.PER_LAYER
        spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_out, "w") as fh:
            json.dump({
                "columns": ["pass", "command", "name", "start", "end", "parent", "count"],
                "rows": [[i, c["key"], *row] for i, p in enumerate(passes) if p["traced"]
                         for c in p["commands"] for row in c["spans"]],
            }, fh)
    else:
        values = {
            "pass_s": med(p["pass_s"] for p in plain),
            "setup_s": med(s for p in plain for s in p["setups"]),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        }
        spec = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
