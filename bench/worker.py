"""Benchmark worker: one fresh process per run, started by run.py.

It imports lubelastic from the checkout's src/, builds the workload's inputs
from the seed, and runs passes of the workload's fixed operation list until
the time budget is spent (at least one pass).  With --trace 1 it alternates
untraced and traced passes; traced passes wrap the library's public
callables (see `_targets`) and yield the per-layer metrics.  The record goes to
<outdir>/record.json; a traced run also writes spans.csv.gz and
self_time.json there.

With --setup-probe it stops once the inputs are built and prints "ready",
so run.py can time a fresh process from start to ready.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _targets():
    from tracing import distinct_results

    def mode_steps(tracer, args, result):
        tracer.count("fsi.mode_steps", getattr(args[0], "K", 0))

    return [
        ("spectral.chebops", "spectral", "ChebOps.__init__", None),
        ("spectral.fft", "spectral", "PeriodicGrid.rfft", None),
        ("spectral.fft", "spectral", "PeriodicGrid.irfft", None),
        ("spectral.csv_write", "spectral", "PeriodicField.to_csv", None),
        ("spectral.csv_write", "spectral", "ChannelField.to_csv", None),
        ("fsi.run_fsi", "fsi", "run_fsi", None),
        ("fsi.run", "fsi", "FsiSolver.run", None),
        ("fsi.advance", "fsi", "FsiSolver.advance", mode_steps),
        ("fsi.assemble", "fsi", "FsiSolver.assembled", distinct_results("fsi.assemblies")),
        ("fsi.pressure", "fsi", "FsiSolver.pressure_hat", None),
        ("fsi.materialize", "fsi", "FsiSolver.materialize", None),
        ("fsi.save", "fsi", "FsiTrajectory.save", None),
        ("fsi.save", "fsi", "EnergyLedger.to_csv", None),
        ("fsi.invariants", "fsi", "FsiState.check_invariants", None),
        ("reconstruction.solve_reduced", "reconstruction", "solve_reduced", None),
        ("reconstruction.forcing_F", "reconstruction", "forcing_F", None),
        ("reconstruction.assemble_approx", "reconstruction", "assemble_approx", None),
        ("thinfilm.solve_linear_sixth", "thinfilm", "solve_linear_sixth", None),
        ("thinfilm.step", "thinfilm", "step", None),
        ("thinfilm.reynolds", "thinfilm", "solve_reynolds_stationary", None),
        ("verify.run_rate_study", "verify", "run_rate_study", None),
        ("verify.compare", "verify", "compare_trajectories", None),
        ("verify.audit", "verify", "energy_audit", None),
        ("verify.fit", "verify", "fit_rate", None),
        ("cli.run", "cli", "run", None),
    ]


def layer_metrics(table: dict, counts: dict, values: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    def incl(name):
        return table.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    advance_s, advance_calls = incl("fsi.advance"), calls("fsi.advance")
    cli_s = incl("cli.run")
    out = {
        "spectral.chebops_builds": calls("spectral.chebops"),
        "spectral.chebops_s": incl("spectral.chebops"),
        "spectral.fft_calls": calls("spectral.fft"),
        "spectral.fft_s": incl("spectral.fft"),
        "spectral.csv_write_s": incl("spectral.csv_write"),
        "spectral.csv_files": calls("spectral.csv_write"),
        "fsi.advance_calls": advance_calls,
        "fsi.advance_s": advance_s,
        "fsi.step_ms": 1e3 * advance_s / advance_calls if advance_calls else 0.0,
        "fsi.mode_steps_per_s": counts.get("fsi.mode_steps", 0) / advance_s if advance_s else 0.0,
        "fsi.assemble_s": incl("fsi.assemble"),
        "fsi.assemblies": counts.get("fsi.assemblies", 0),
        "fsi.pressure_s": incl("fsi.pressure"),
        "fsi.materialize_s": incl("fsi.materialize"),
        "fsi.run_self_s": table.get("fsi.run", {}).get("self_s", 0.0),
        "fsi.save_s": incl("fsi.save"),
        "fsi.invariants_s": incl("fsi.invariants"),
        "fsi.invariant_failures": values.get("fsi.invariant_failures", 0),
        "fsi.identity_residual_rel": values.get("fsi.identity_residual_rel", 0.0),
        "reconstruction.solve_reduced_s": incl("reconstruction.solve_reduced"),
        "reconstruction.forcing_F_calls": calls("reconstruction.forcing_F"),
        "reconstruction.forcing_F_s": incl("reconstruction.forcing_F"),
        "reconstruction.assemble_approx_s": incl("reconstruction.assemble_approx"),
        "thinfilm.solve_linear_sixth_s": incl("thinfilm.solve_linear_sixth"),
        "thinfilm.step_calls": calls("thinfilm.step"),
        "thinfilm.step_s": incl("thinfilm.step"),
        "thinfilm.reynolds_s": incl("thinfilm.reynolds"),
        "verify.run_rate_study_s": incl("verify.run_rate_study"),
        "verify.compare_s": incl("verify.compare"),
        "verify.audit_s": incl("verify.audit"),
        "verify.fit_s": incl("verify.fit"),
        "cli.run_s": cli_s,
        "cli.artifact_files": values.get("cli.artifact_files", 0),
        "cli.artifact_bytes": values.get("cli.artifact_bytes", 0),
        "cli.write_mb_per_s": values.get("cli.artifact_bytes", 0) / 1e6 / cli_s if cli_s else 0.0,
    }
    for which in ("velocity", "pressure", "displacement"):
        out[f"verify.slope_{which}"] = values.get(f"verify.slope_{which}", 0.0)
    out["verify.r2_min"] = values.get("verify.r2_min", 0.0)
    return out


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _release_solver_cache() -> None:
    """Empty lubelastic's per-params solver cache between operations.

    `fsi._solvers` is a WeakKeyDictionary whose FsiSolver values hold their
    FsiParams keys, so no entry is ever freed, and a run of a few dozen 2D
    passes would hold over half a gigabyte.  Every operation builds fresh
    params and never hits the cache, so emptying it frees memory and
    changes no timing.  A commit without the cache is left alone.
    """
    cache = getattr(sys.modules.get("lubelastic.fsi"), "_solvers", None)
    if cache is not None:
        cache.clear()


def run_pass(workload: str, inputs: dict, tracer=None) -> dict:
    """Run the workload's operations once; time only the library calls."""
    import workloads

    gates = workloads.Gates()
    values: dict = {}
    wall = cpu = 0.0
    ops = failed = 0
    for label, run, check in workloads.operations(workload, inputs):
        ops += 1
        _release_solver_cache()
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            if tracer is None:
                result = run()
            else:
                with tracer.operation(f"bench.{label}"):
                    result = run()
        except Exception as exc:  # count it, keep measuring the rest
            wall += time.perf_counter() - t0
            cpu += _cpu_s() - c0
            traceback.print_exc()
            gates.check("operation_completed", False, f"{label}: {exc!r}")
            failed += 1
            continue
        wall += time.perf_counter() - t0
        cpu += _cpu_s() - c0
        gates.check("operation_completed", True)
        unexpected = gates.totals()[2]
        try:
            check(result, gates, values)
        except Exception as exc:
            traceback.print_exc()
            gates.check("outputs_readable", False, f"{label}: {exc!r}")
        del result
        if gates.totals()[2] > unexpected:
            failed += 1
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "failed_ops": failed,
            "gates": gates, "values": values}


def traced_pass(workload: str, inputs: dict) -> tuple[dict, object, list]:
    from tracing import Tracer, install

    tracer = Tracer()
    patch = install(tracer, "lubelastic", _targets())
    try:
        rec = run_pass(workload, inputs, tracer)
    finally:
        patch.restore()
    rec["layer"] = layer_metrics(tracer.table(), tracer.counts, rec["values"])
    return rec, tracer, patch.absent


def _versions() -> dict:
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    for mod in (numpy, scipy):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            blas = deps.get("blas", {})
            out[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except Exception:  # provenance only; older builds lack mode="dicts"
            out[f"{mod.__name__}_blas"] = "unknown"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--outdir", default=None, help="where record.json goes (measured runs)")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("error: -O strips the assert-based invariant checks", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lubelastic
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(lubelastic.__file__).resolve().parents:
        print(f"error: imported lubelastic from {lubelastic.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = BENCH / "_work" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.size, str(workdir))
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.outdir is None:
            ap.error("--outdir is required for a measured run")
        return _measure(args, inputs, import_s)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, inputs: dict, import_s: float) -> int:
    import workloads

    kinds = ("untraced",) if args.trace == 0 else ("untraced", "traced")
    passes: dict[str, list] = {"untraced": [], "traced": []}
    gates = workloads.Gates()
    last_tracer, absent = None, []
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        p0 = time.perf_counter()
        if kind == "traced":
            rec, last_tracer, absent = traced_pass(args.workload, inputs)
        else:
            rec = run_pass(args.workload, inputs)
        longest = max(longest, time.perf_counter() - p0)
        gates.merge(rec.pop("gates"))
        passes[kind].append(rec)
        if i == 0:
            first_pass_rss = _peak_rss_mb()
        i += 1
        if i >= len(kinds) and time.perf_counter() - start + longest > args.seconds:
            break

    untraced = passes["untraced"]
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "inputs": workloads.describe(args.workload, inputs),
        "versions": _versions(),
        "import_s": import_s,
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in passes["traced"]],
        "ops_attempted": sum(p["ops"] for k in passes for p in passes[k]),
        "ops_failed": sum(p["failed_ops"] for k in passes for p in passes[k]),
        "gates": gates.table,
        # through the first pass, so the figure does not depend on how many
        # passes the budget allowed; the end-of-run peak is kept beside it
        "peak_rss_mb": first_pass_rss,
        "peak_rss_mb_end": _peak_rss_mb(),
        "absent": absent,
    }
    if passes["traced"]:
        layers = [p["layer"] for p in passes["traced"]]
        layer = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        layer["process.import_s"] = import_s
        layer["process.cpu_s"] = statistics.median(record["cpu_s"])
        layer["trace.overhead_s"] = (statistics.median(record["traced_wall_s"])
                                     - statistics.median(record["wall_s"]))
        record["layer"] = layer
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if last_tracer is not None:
        table = last_tracer.table()
        record["self_time"] = table
        with open(outdir / "self_time.json", "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
        last_tracer.write_spans(str(outdir / "spans.csv.gz"))
    with open(outdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
