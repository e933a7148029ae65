"""lubelastic benchmark entry point.

    python3 bench/run.py --workload ladder-k2 --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (bench/worker.py) with BLAS/OpenMP
thread counts pinned to 1 and without -O.  `setup_s` is the median over
several fresh processes of start-to-ready (import lubelastic plus seeded
input generation); one further worker runs the measured passes.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1.  Lines before it, starting
with '#', give provenance, sample counts, the gate table and, when traced,
the self-time table.  Run records, spans and self-time tables are kept
under bench/_work/runs/.

Other modes:
  --workload all   every workload, untraced then traced, as one report
  --selfcheck      every workload and gate at toy size, in seconds
  --heldout        draw a seed that was not used while building the benchmark
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ladder-k2", "fsi2d-patch", "cli-artifacts")
SETUP_PROBES = 5
DEV_SEEDS = range(0, 1000)  # seeds tried while the benchmark was built
RUN_LIMIT_S = 170.0

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def _setup_times(workload: str, seed: int, size: str, count: int, deadline: float) -> list[float]:
    """Start-to-ready seconds of `count` fresh processes, after one warm-up
    process that fills the file cache (and the bytecode cache, where Python
    writes one)."""
    times = []
    for i in range(count + 1):
        cmd = _worker_cmd("--workload", workload, "--seed", str(seed), "--size", size,
                          "--setup-probe")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
                                text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"setup probe exited {proc.returncode}")
        if i > 0:
            times.append(ready)
    return times


def _run_worker(workload, seed, seconds, trace, size, outdir: Path, deadline: float) -> dict:
    cmd = _worker_cmd("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace), "--size", size, "--outdir", str(outdir))
    record_path = outdir / "record.json"
    if record_path.exists():
        record_path.unlink()
    proc = subprocess.Popen(cmd, env=_worker_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not record_path.exists():
        raise BenchError(f"worker exited {proc.returncode}")
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh)


def _provenance() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": None, "cpu_model": None, "caches": {}}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            info["git_commit"] = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
             probes: int = SETUP_PROBES) -> tuple[dict, list[str], dict]:
    """One benchmark run: returns (result line, '#' detail lines, record)."""
    if not (ROOT / "src" / "lubelastic" / "__init__.py").is_file():
        raise BenchError(f"no lubelastic sources under {ROOT / 'src'}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    contract = _load_contract()
    deadline = time.monotonic() + RUN_LIMIT_S
    outdir = BENCH / "_work" / "runs" / f"{workload}-{size}-seed{seed}-trace{trace}"
    setup = [] if trace else _setup_times(workload, seed, size, probes, deadline)
    record = _run_worker(workload, seed, seconds, trace, size, outdir, deadline)
    record["provenance"] = _provenance()
    record["setup_s"] = setup

    gates = record["gates"]
    pairs = sum(g["attempted"] for g in gates.values())
    failed_pairs = sum(g["failed"] for g in gates.values())
    unexpected = sum(g["failed"] - g["known_failed"] for g in gates.values())
    if trace:
        values = dict(record["layer"])
        declared = contract["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(record["wall_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "pass_ratio": (pairs - failed_pairs) / pairs,
        }
        declared = contract["end_to_end"]
    record["fail_ratio"] = failed_pairs / pairs
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": unexpected == 0 and record["ops_failed"] == 0 and record["ops_attempted"] > 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    }
    with open(outdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result, _detail(record, pairs, failed_pairs, outdir), record


def _detail(record: dict, pairs: int, failed_pairs: int, outdir: Path) -> list[str]:
    prov, ver = record["provenance"], record["versions"]
    lines = [
        f"# workload {record['workload']} seed {record['seed']} size {record['size']} "
        f"inputs {json.dumps(record['inputs'], sort_keys=True)}",
        f"# commit {prov['git_commit']} source_sha256 {prov['source_sha256'][:16]} "
        f"python {ver['python']} numpy {ver['numpy']} scipy {ver['scipy']} "
        f"blas {ver['numpy_blas']} nproc {prov['nproc']} cpu {prov['cpu_model']} "
        f"caches {prov['caches']}",
    ]
    walls = record["wall_s"]
    lines.append(f"# wall_s {statistics.median(walls):.4f} s, median of {len(walls)} "
                 f"untraced passes {[round(w, 4) for w in walls]}")
    if record["setup_s"]:
        s = record["setup_s"]
        lines.append(f"# setup_s {statistics.median(s):.4f} s, median of {len(s)} fresh processes")
    lines.append(f"# peak_rss_mb {record['peak_rss_mb']:.1f} MB, worker process through its "
                 f"first pass; {record['peak_rss_mb_end']:.1f} MB at the end of the run")
    lines.append(f"# fail_ratio {failed_pairs / pairs:.4f} ({failed_pairs} of {pairs} "
                 f"(operation, gate) pairs); pass_ratio = 1 - fail_ratio; operations "
                 f"{record['ops_attempted']}, failed {record['ops_failed']}")
    for name, g in sorted(record["gates"].items()):
        note = ""
        if g["known_failed"]:
            note = f" ({g['known_failed']} recorded known failure)"
        if g["failed"]:
            note += f": {g['message']}"
        lines.append(f"#   gate {name}: {g['failed']}/{g['attempted']} failed{note}")
    if "layer" in record:
        table = record["self_time"]
        library = sum(v["self_s"] for k, v in table.items() if not k.startswith("bench."))
        glue = sum(v["self_s"] for k, v in table.items() if k.startswith("bench."))
        traced = record["traced_wall_s"]
        lines.append(f"# traced passes {len(traced)}, wall {statistics.median(traced):.4f} s; "
                     f"trace.overhead_s {record['layer']['trace.overhead_s']:.4f}")
        lines.append(f"# last traced pass: library self time {library:.4f} s + benchmark "
                     f"glue {glue:.4f} s; untraced wall {statistics.median(walls):.4f} s")
        lines.append("# self time by span (last traced pass): name calls self_s inclusive_s")
        for name, v in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"#   {name:34s} {v['calls']:8d} {v['self_s']:10.4f} "
                         f"{v['inclusive_s']:10.4f}")
        if record["absent"]:
            lines.append(f"# absent at this commit: {', '.join(record['absent'])}")
    lines.append(f"# record {outdir.relative_to(ROOT)}")
    return lines


def _selfcheck() -> int:
    contract = _load_contract()
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            try:
                result, _, record = run_once(workload, 1, 0, trace, size="toy", probes=1)
            except BenchError as exc:
                print(f"FAIL {workload} trace {trace}: {exc}")
                ok = False
                continue
            names = [m["name"] for m in contract[key]]
            problems = []
            if not result["correct"]:
                problems.append("gates failed: " + ", ".join(
                    n for n, g in record["gates"].items() if g["failed"] > g["known_failed"]))
            if list(result["metrics"]) != names:
                problems.append("metric names differ from BENCHMARK.json")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad:
                problems.append(f"non-numeric metrics {bad}")
            if trace and record["absent"]:
                problems.append(f"absent callables {record['absent']}")
            status = "FAIL" if problems else "ok"
            print(f"{status:4s} {workload:14s} trace {trace} {time.perf_counter() - t0:5.1f} s "
                  f"ops {result['attempted']} {'; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


def _report(seed: int, seconds: float) -> int:
    contract = _load_contract()
    for workload in WORKLOADS:
        result0, detail0, record0 = run_once(workload, seed, seconds, 0)
        result1, detail1, _ = run_once(workload, seed, seconds, 1)
        print(f"== {workload} (seed {seed}) correct {result0['correct'] and result1['correct']}")
        print("\n".join(detail0))
        for m in contract["end_to_end"]:
            value = result0["metrics"][m["name"]]["value"]
            samples = {"wall_s": len(record0["wall_s"]),
                       "setup_s": len(record0["setup_s"])}.get(m["name"], 1)
            print(f"  {m['name']:14s} {value:14.6g} {m['unit']:6s} n={samples}")
        pairs = sum(g["attempted"] for g in record0["gates"].values())
        print(f"  {'fail_ratio':14s} {record0['fail_ratio']:14.6g} {'1':6s} n={pairs} "
              f"(operation, gate) pairs")
        print("\n".join(line for line in detail1 if line.startswith(("# traced", "# last",
                                                                         "# absent"))))
        for m in contract["per_layer"]:
            print(f"  {m['name']:34s} {result1['metrics'][m['name']]['value']:14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lubelastic benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload and gate at toy size")
    ap.add_argument("--heldout", action="store_true",
                    help="use a fresh seed outside the development seeds")
    args = ap.parse_args(argv)
    # on SIGTERM unwind through the `finally` blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.selfcheck:
            return _selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        seed = args.seed
        if args.heldout:
            seed = DEV_SEEDS.stop + secrets.randbelow(2**31 - DEV_SEEDS.stop)
            print(f"# held-out seed {seed}")
        elif seed is None:
            ap.error("--seed is required (or --heldout)")
        if args.seconds is None:
            args.seconds = _load_contract()["run_seconds"]
        if args.workload == "all":
            return _report(seed, args.seconds)
        result, detail, _ = run_once(args.workload, seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(detail))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
