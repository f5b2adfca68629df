#!/usr/bin/env python3
"""End-to-end benchmark of the planning daemon (psd_serve) and the sweep
CLI (psd_sweep), with a traced in-process replay that attributes the time
to the repository's modules.

  python3 perfbench/run.py --workload {serve-hit,serve-plan,sweep-cold}
                           [--seed N] [--seconds S] [--trace 0|1]

Builds the tools and the trace driver from the checkout in Release
(.bench_build/perfbench), makes every input from --seed before any clock
starts, measures for --seconds, checks every answer, and prints each
metric by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} — the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Run context, spans and the
full result land in .bench_build/work/. See NOTES.md for why each workload
exists and what each metric means.
"""
import argparse
import glob
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import loadgen  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"

WORKLOADS = ("serve-hit", "serve-plan", "sweep-cold")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("serve.overhead_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.parse_us_p50", "us"),
    ("serve.respond_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.solves", "count"),
    ("serve.coalesced", "count"),
    ("serve.failed", "count"),
    ("core.select_ms_p50", "ms"),
    ("core.select_candidates", "count"),
    ("core.plan_ms_p50", "ms"),
    ("core.instance_ms_p50", "ms"),
    ("core.pipelined_ms_p50", "ms"),
    ("core.planner_new_us_p50", "us"),
    ("workload.materialize_ms_p50", "ms"),
    ("collective.steps", "count"),
    ("topo.hops_ms_p50", "ms"),
    ("topo.build_ms_p50", "ms"),
    ("flow.theta_lookups_per_op", "count"),
    ("flow.theta_hit_us_p50", "us"),
    ("flow.theta_solves", "count"),
    ("flow.theta_solve_ms_p50", "ms"),
    ("flow.gk_sssp_searches", "count"),
    ("flow.gk_path_pushes", "count"),
    ("flow.cache_lock_contentions", "count"),
    ("sweep.theta_useful_ratio", "ratio"),
    ("sweep.pool_busy_ratio", "ratio"),
    ("sweep.job_ms_p50", "ms"),
    ("sweep.job_ms_max", "ms"),
    ("sim.churn_ms_p50", "ms"),
    ("sim.replan_solves", "count"),
    ("sim.cache_kept_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.reconciled_share", "ratio"),
    ("trace.coverage_p50", "ratio"),
    ("loadgen.cpu_share", "ratio"),
)

WARM_CONNECTIONS = 2    # set-up: both daemon workers solve θ in parallel
SERVE_CONNECTIONS = 1   # measured phase: one request outstanding
SERVE_WORKERS = 2       # psd_serve's default worker count (not overridden)
SWEEP_THREADS = 3       # pool threads; with the participating caller = nproc
SETUP_REPEATS = 3       # setup_s is the median of this many launches
WINDOWS = 40            # serve timings are taken per window of the phase
PLAN_LINES_PER_S = 5000  # serve-plan inputs made per measured second
CLIENT_CPU_FLAG = 0.85  # client CPU share (of one core) that flags a run
TRACE_REQUESTS = 4000   # measured lines the traced replay takes
RUN_DEADLINE_S = 170    # after the build; a run must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run context


def source_present():
    return all((ROOT / p).exists() for p in
               ("CMakeLists.txt", "src", "tools/psd_serve.cpp", "tools/psd_sweep.cpp",
                "tools/check_sweep_report.py"))


def build():
    """Configures (once) and builds the Release tools and trace driver."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                    "--target", "psd_serve_tool", "psd_sweep_tool", "psd_bench_trace"],
                   check=True, stdout=sys.stderr)
    return {"serve": str(BUILD_DIR / "psd" / "tools" / "psd_serve"),
            "sweep": str(BUILD_DIR / "psd" / "tools" / "psd_sweep"),
            "trace": str(BUILD_DIR / "psd_bench_trace")}


def calibrate(bins):
    """Time of a fixed CPU loop: recorded to show drift, never used to
    scale a metric."""
    out = subprocess.run([bins["trace"], "calibrate"], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)["calibration_ms"]


def compiler():
    for path in glob.glob(str(BUILD_DIR / "CMakeFiles" / "*" / "CMakeCXXCompiler.cmake")):
        vals = {}
        with open(path) as f:
            for ln in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if ln.startswith(f"set({key} "):
                        vals[key] = ln.split('"')[1]
        if vals:
            return " ".join(vals.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_ticks():
    """Box-wide CPU ticks (total, stolen by the hypervisor) from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def steal_share(t0, t1):
    return (t1[1] - t0[1]) / max(1, t1[0] - t0[0])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Serve workloads


def warm_up(conns, warm):
    """Answers every warm-up line once over the benchmark's connections;
    returns the answer lines in warm-up order."""
    answers = [None] * len(warm)

    def keep(i, line):
        answers[i] = line
        return 0.0 if b'"code":"OK"' in line else None

    res = loadgen.closed_loop(conns, warm, 1e9, keep)
    if res.failed:
        raise RuntimeError(f"warm-up answer failed: {res.failures[0]}")
    return answers


def stats_delta(before, after):
    keys = ("planned", "cache_hits", "coalesced", "shed", "invalid", "internal_errors",
            "deadline_exceeded", "degraded")
    return {k: after[k] - before[k] for k in keys}


def run_serve(args, bins, hit):
    run_dir = WORK_DIR / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    daemon_log = WORK_DIR / f"{args.workload}-psd_serve.log"
    if hit:
        warm, lines, key_of = benchlib.serve_hit_inputs(args.seed)
    else:
        warm, lines = benchlib.serve_plan_inputs(args.seed, PLAN_LINES_PER_S * args.seconds)

    setups, daemon, conns = [], None, []
    all_cpus = os.sched_getaffinity(0)
    cpus = sorted(all_cpus)
    try:
        for rep in range(SETUP_REPEATS):
            daemon = loadgen.Daemon(bins["serve"], str(run_dir), str(daemon_log))
            conns = daemon.connect(WARM_CONNECTIONS)
            answers = warm_up(conns, warm)
            setups.append(time.perf_counter() - daemon.launched)
            if rep + 1 < SETUP_REPEATS:
                daemon.stop(conns)
                daemon, conns = None, []

        if hit:
            expected = [benchlib.hit_body(a) for a in answers]

            def check(i, line):
                return benchlib.check_hit_line(line, i, expected[key_of[i]])
        else:
            def check(i, line):
                try:
                    resp = json.loads(line)
                except ValueError:
                    return None
                if benchlib.check_fresh(resp, str(i)) is not None:
                    return None
                return resp.get("plan_latency_ms")

        # The measured phase runs the daemon and this client together on one
        # CPU, and moves them to the next CPU every window (see NOTES.md,
        # Steadiness): a vCPU that never idles is not handed back to the
        # hypervisor between requests, and the rotation averages over the
        # vCPUs' own speeds.
        def move_to(k):
            cpu = {cpus[k % len(cpus)]}
            loadgen.pin_threads(daemon.pid, cpu)
            os.sched_setaffinity(0, cpu)

        before = loadgen.stats(conns[0])
        steal0 = cpu_ticks()
        move_to(0)
        cpu0 = loadgen.proc_cpu_seconds(daemon.pid)
        try:
            res = loadgen.closed_loop(conns[:SERVE_CONNECTIONS], lines, args.seconds, check,
                                      cycle=hit, windows=WINDOWS,
                                      cpu=lambda: loadgen.proc_cpu_seconds(daemon.pid),
                                      on_window=move_to)
        finally:
            os.sched_setaffinity(0, all_cpus)
        daemon_cpu = loadgen.proc_cpu_seconds(daemon.pid) - cpu0
        steal1 = cpu_ticks()
        after = loadgen.stats(conns[0])
        rss = loadgen.proc_peak_rss_mib(daemon.pid)
    finally:
        if daemon is not None:
            daemon.stop(conns)

    answered = len(res.latency_ns)
    delta = stats_delta(before, after)
    errors = {k: delta[k] for k in ("shed", "invalid", "internal_errors",
                                    "deadline_exceeded", "degraded") if delta[k]}
    if hit:
        class_ok = (delta["cache_hits"] == answered and delta["planned"] == 0
                    and delta["coalesced"] == 0)
    else:
        class_ok = (delta["cache_hits"] == 0 and delta["coalesced"] == 0
                    and delta["planned"] == answered
                    and after["theta_cache_hit_rate"] >= 0.99)
    if not hit and res.sent >= len(lines):
        notes_exhausted = [f"inputs exhausted after {res.sent} requests"]
    else:
        notes_exhausted = []

    # The p50 is the mean of the windows' p50s: the host's CPU speed moves
    # in stretches of seconds, and the pooled median of two speeds jumps
    # between them where a mean does not (NOTES.md, Steadiness).
    # Throughput and CPU are whole-phase ratios; p99 needs the whole phase
    # for 10 samples beyond it.
    wins = benchlib.window_stats(res.marks, res.done_ns, res.latency_ns)
    lat_ms = sorted(x / 1e6 for x in res.latency_ns)
    series = {
        "latency_p50_ms": [benchlib.percentile(w["lat_ms"], 50)[0] for w in wins],
        "throughput_ops_s": [w["answers"] / w["wall_s"] for w in wins],
        "cpu_ms_per_op": [1e3 * w["cpu_s"] / w["answers"] for w in wins],
    }
    p99, beyond = benchlib.percentile(lat_ms, 99)
    top = benchlib.highest_supported_percentile(len(lat_ms))
    client_share = res.client_cpu_s / res.wall_s
    e2e = {
        "latency_p50_ms": statistics.mean(series["latency_p50_ms"]),
        "latency_p99_ms": p99,
        "throughput_ops_s": answered / res.wall_s,
        "cpu_ms_per_op": 1e3 * daemon_cpu / answered,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    notes = [
        f"requests: {res.sent} sent, {answered} answered, {res.failed} failed checks; "
        f"measured over {SERVE_CONNECTIONS} connection, daemon and client on one CPU "
        f"at a time, rotating over CPUs {cpus} each window (set-up over "
        f"{WARM_CONNECTIONS} connections, unpinned), {SERVE_WORKERS} daemon workers",
        f"timings: p50 is the mean of {len(wins)} windows of {args.seconds / WINDOWS:g} s "
        f"(fewest answers in a window {min(w['answers'] for w in wins)}); p99 is the "
        f"whole phase's, {beyond} of {len(lat_ms)} samples beyond it (highest "
        f"percentile with >= {benchlib.MIN_BEYOND} beyond: p{top})",
        f"whole phase: pooled p50 {benchlib.percentile(lat_ms, 50)[0]:.4f} ms; "
        f"steal during the phase {steal_share(steal0, steal1):.4f}",
        f"setup_s: median of {SETUP_REPEATS} launches "
        f"({', '.join(f'{s:.3f}' for s in setups)} s), {len(warm)} warm-up requests each",
        f"stats delta: {delta}; theta_cache_hit_rate after: {after['theta_cache_hit_rate']:.6f}",
        f"client CPU: {client_share:.3f} of one core"
        + ("  ** FLAG: the load generator nears one core **"
           if client_share >= CLIENT_CPU_FLAG else ""),
    ] + notes_exhausted + [f"failing answer: {f}" for f in res.failures]
    if errors:
        notes.append(f"non-OK outcomes in stats: {errors}")
    if not class_ok:
        notes.append("CLASS CHECK FAILED: the phase was not pure "
                     + ("memo hits" if hit else "fresh solves on a warm θ cache"))

    overhead = sorted(l / 1e6 - p for l, p in zip(res.latency_ns, res.plan_ms)
                      if not math.isnan(p))
    failed = res.failed + (res.sent - answered)
    layer = {
        "serve.overhead_ms_p50": benchlib.percentile(overhead, 50)[0] if overhead else 0.0,
        "serve.memo_hit_ratio": delta["cache_hits"] / answered,
        "serve.solves": delta["planned"],
        "serve.coalesced": delta["coalesced"],
        "serve.failed": failed,
        "loadgen.cpu_share": client_share,
    }
    out = {"attempted": res.sent, "failed": failed,
           "correct": failed == 0 and class_ok and not errors,
           "e2e": e2e, "layer": layer, "notes": notes, "series": series,
           "context": {"phase_cpus": cpus, "phase_steal_share": steal_share(steal0, steal1)}}
    if args.trace:
        trace_serve(args, bins, warm, lines[:TRACE_REQUESTS], out)
    return out


def trace_serve(args, bins, warm, lines, out):
    warm_path = WORK_DIR / f"{args.workload}-warm.jsonl"
    req_path = WORK_DIR / f"{args.workload}-requests.jsonl"
    warm_path.write_bytes(b"".join(warm))
    req_path.write_bytes(b"".join(lines))
    run_trace(out, [bins["trace"], args.workload, "--warm", str(warm_path),
                    "--requests", str(req_path)], args)


def run_trace(out, cmd, args):
    spans = WORK_DIR / f"{args.workload}-seed{args.seed}.spans.json"
    proc = subprocess.run(cmd + ["--spans", str(spans)], capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        out["correct"] = False
        out["notes"].append(f"trace driver failed ({proc.returncode}): {proc.stderr.strip()}")
        if not proc.stdout.strip():
            return
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    out["layer"] = {**summary["metrics"], **out["layer"]}
    out["self_ms"] = summary["self_ms"]
    m = summary["metrics"]
    out["notes"].append(
        f"trace: {int(m['trace.requests'])} requests replayed, {int(m['trace.spans'])} spans "
        f"-> {os.path.relpath(spans, ROOT)}; tracing overhead "
        f"{m['trace.overhead_pct']:.2f}% vs the interleaved untraced replay; "
        f"{100 * m['trace.reconciled_share']:.1f}% of requests reconcile within 10% "
        f"(median coverage {m['trace.coverage_p50']:.4f})")


# ---------------------------------------------------------------------------
# Sweep workload


def sweep_pass(bins, spec_paths, tag):
    """One sweep-cold request: psd_sweep on each grid, one after the other.
    Returns its wall time, CPU, peak RSS and the report files."""
    t0 = time.perf_counter()
    runs = []
    for name, spec in spec_paths.items():
        out_json = WORK_DIR / f"sweep-{tag}-{name}.json"
        out_csv = WORK_DIR / f"sweep-{tag}-{name}.csv"
        with open(WORK_DIR / "sweep-cold-psd_sweep.log", "ab") as errlog:
            proc = subprocess.Popen(
                [bins["sweep"], "--spec", str(spec), "--threads", str(SWEEP_THREADS),
                 "--quiet", "--out-json", str(out_json), "--out-csv", str(out_csv)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=errlog)
            # wait4 reaps the child with its own rusage: CPU and peak RSS
            # of exactly this psd_sweep process.
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        runs.append({"name": name, "json": out_json, "csv": out_csv,
                     "exit": proc.returncode, "cpu_s": ru.ru_utime + ru.ru_stime,
                     "rss_mib": ru.ru_maxrss / 1024.0})
    return {"wall_s": time.perf_counter() - t0, "runs": runs}


def check_pass(p, reference):
    """Checks one pass. Returns its rows; how many failed (error rows, plus
    every row of a grid whose run exited non-zero, failed
    check_sweep_report.py, or wrote a CSV that differs from the reference
    run's); the problems found; and each grid's row count. `reference` maps
    grid name -> (CSV bytes, rows); None when checking the reference."""
    rows = failed = 0
    problems, counts = [], {}
    for r in p["runs"]:
        try:
            report = json.loads(r["json"].read_text())
            n = len(report["rows"])
        except (OSError, ValueError, KeyError):
            problems.append(f"{r['name']}: unreadable report (exit {r['exit']})")
            if reference is not None and r["name"] in reference:
                rows += reference[r["name"]][1]
                failed += reference[r["name"]][1]
            continue
        counts[r["name"]] = n
        rows += n
        bad = [x for x in report["rows"] if "error" in x]
        chk = subprocess.run([sys.executable, str(ROOT / "tools" / "check_sweep_report.py"),
                              str(r["json"]), str(r["csv"])], capture_output=True, text=True)
        same = reference is None or r["csv"].read_bytes() == reference[r["name"]][0]
        if r["exit"] != 0 or chk.returncode != 0 or not same:
            failed += n
            problems.append(f"{r['name']}: exit {r['exit']}, checker "
                            f"{chk.stderr.strip() or 'ok'}, csv identical: {same}")
        else:
            failed += len(bad)
    return rows, failed, problems, counts


def run_sweep(args, bins):
    specs = benchlib.sweep_specs(args.seed)
    spec_paths = {}
    for name, text in specs.items():
        spec_paths[name] = WORK_DIR / f"sweep-cold-{name}.grid"
        spec_paths[name].write_text(text)

    # Set-up: the reference sweep every measured sweep must reproduce.
    ref = sweep_pass(bins, spec_paths, "ref")
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        passes.append(sweep_pass(bins, spec_paths, f"m{len(passes)}"))
    phase_s = time.perf_counter() - start

    ref_rows, ref_failed, problems, counts = check_pass(ref, None)
    reference = {r["name"]: (r["csv"].read_bytes(), counts[r["name"]])
                 for r in ref["runs"] if r["name"] in counts}
    rows = failed = 0
    for p in passes:
        n, f, probs, _ = check_pass(p, reference)
        rows += n
        failed += f
        problems += probs
    walls = sorted(1e3 * p["wall_s"] for p in passes)
    cpu = sum(r["cpu_s"] for p in passes for r in p["runs"])
    e2e = {
        "latency_p50_ms": statistics.median(walls),
        "latency_p99_ms": walls[-1],
        "throughput_ops_s": rows / phase_s,
        "cpu_ms_per_op": 1e3 * cpu / rows,
        "setup_s": ref["wall_s"],
        "peak_rss_mb": max(r["rss_mib"] for p in passes for r in p["runs"]),
    }
    notes = [
        f"rows: {rows} over {len(passes)} sweeps ({ref_rows} rows per sweep), "
        f"{failed} failed; psd_sweep --threads {SWEEP_THREADS}, grids n16 (churn) + n32",
        f"latency_*: wall of one sweep (both grids); p50 is the median of {len(passes)}, "
        f"p99 the slowest — too few sweeps for a percentile with 10 beyond it",
        "setup_s: the reference sweep whose CSVs every measured sweep must match",
    ] + [f"sweep problem: {x}" for x in problems]
    series = {
        "latency_ms": [1e3 * p["wall_s"] for p in passes],
        "throughput_ops_s": [ref_rows / p["wall_s"] for p in passes],
        "cpu_ms_per_op": [1e3 * sum(r["cpu_s"] for r in p["runs"]) / ref_rows
                          for p in passes],
    }
    # No serve layer and no load generator here: their per-layer metrics
    # read 0 (see NOTES.md).
    out = {"attempted": rows, "failed": failed,
           "correct": failed == 0 and ref_failed == 0 and rows > 0 and not problems,
           "e2e": e2e, "layer": {}, "notes": notes, "series": series}
    if args.trace:
        cmd = [bins["trace"], "sweep", "--threads", str(SWEEP_THREADS)]
        for path in spec_paths.values():
            cmd += ["--spec", str(path)]
        run_trace(out, cmd, args)
    return out


# ---------------------------------------------------------------------------


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not source_present():
        log(f"no psd source tree at {ROOT} (CMakeLists.txt, src/, tools/): nothing to build")
        return 2
    try:
        bins = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, on_deadline)
    # A terminated run still unwinds, so the daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(RUN_DEADLINE_S)

    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "build_type": "Release", "compiler": compiler(), "git_sha": git_sha(),
           "serve_workers": SERVE_WORKERS, "warm_connections": WARM_CONNECTIONS,
           "serve_connections": SERVE_CONNECTIONS,
           "sweep_threads": SWEEP_THREADS, "loadavg_before": os.getloadavg(),
           "calibration_ms_before": calibrate(bins)}
    run = run_sweep if args.workload == "sweep-cold" else (
        lambda a, b: run_serve(a, b, hit=a.workload == "serve-hit"))
    ticks0 = cpu_ticks()
    out = run(args, bins)
    ticks1 = cpu_ticks()
    ctx["steal_share"] = steal_share(ticks0, ticks1)
    ctx.update(out.get("context", {}))
    ctx["calibration_ms_after"] = calibrate(bins)
    ctx["loadavg_after"] = os.getloadavg()
    signal.alarm(0)

    table = PER_LAYER if args.trace else END_TO_END
    values = out["layer"] if args.trace else out["e2e"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in table}
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    if args.trace:
        for name, unit in END_TO_END:
            print(f"  (untraced) {name:<17} {out['e2e'][name]:>16.6f} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")
    for note in out["notes"]:
        print(f"  - {note}")
    if "self_ms" in out:
        print("  self time by phase:layer (ms): " + json.dumps(
            {k: round(v, 3) for k, v in sorted(out["self_ms"].items())}))
    print("context " + json.dumps(ctx))
    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    (WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json").write_text(
        json.dumps({**result, "context": ctx, "notes": out["notes"],
                    "end_to_end": out["e2e"], "per_layer": out["layer"],
                    "series": out["series"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
