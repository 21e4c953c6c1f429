"""The gridscope benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the code measured is the checkout's
own ``src``.  The run generates the workload's inputs from the seed, times
set-up in fresh interpreters, runs the workload's command chain in a worker
process of its own for S seconds, and checks the outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones, from a separate
traced run.  A readable summary goes to standard error.  The exit code is
0 when every check passed, 1 when the gate failed and 2 when the run could
not be made at all (for instance, the checkout lacks the program).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import speed

SETUP_REPS = 9
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 20.0


def _python(script: str, *args) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name(script)), *map(str, args)]


def _run_child(argv, timeout: float) -> tuple[int, float]:
    """Run a child process to its end; returns its exit code and wall time.

    The exit is awaited on a pidfd: ``subprocess``'s own timed wait polls
    with sleeps of up to 50 ms, which would round a short wall time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=common.child_env(), stdout=subprocess.DEVNULL)
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    elapsed = time.perf_counter() - start
    if not exited:
        proc.kill()
    code = proc.wait()
    return (code if exited else -1), elapsed


def measure_setup(picks: str, calibration: Path, gate) -> list[float]:
    """Nominal-speed wall time of SETUP_REPS fresh interpreters that each
    fit and load the calibration; every probe must write the same bytes."""
    times, first = [], None
    before = speed.kernel_seconds()
    for i in range(SETUP_REPS):
        code, elapsed = _run_child(_python("setup_probe.py", picks, calibration),
                                   PROBE_TIMEOUT_S)
        after = speed.kernel_seconds()
        times.append(elapsed * speed.scale(before, after))
        before = after
        data = calibration.read_bytes() if calibration.is_file() else None
        first = data if first is None else first
        gate.check(code == 0 and data == first, f"set-up probe {i}: exit {code}")
    return times


def run_worker(manifest_path: Path, calibration: Path, seconds: int,
               spans: Path | None, half: Path | None) -> dict:
    argv = _python("worker.py", "--manifest", manifest_path,
                   "--calibration", calibration, "--seconds", seconds)
    if spans is not None:
        argv += ["--spans", str(spans)]
        if half is not None:
            argv += ["--half", str(half)]
    done = subprocess.run(argv, env=common.child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(manifest, setup_times, result, quality) -> dict:
    main_stage = "detmetrics" if manifest["workload"] == "detscore" else "reconstruct"
    timed = [r for r in result["reps"] if r["kind"] == "timed"]
    command = common.median([r["times"][main_stage] * r["scale"] for r in timed])
    print(f"{len(timed)} repetitions; wall medians before rescaling: {main_stage} "
          f"{common.median([r['times'][main_stage] for r in timed]):.4f} s, "
          f"speed scale {common.median([r['scale'] for r in timed]):.4f}", file=sys.stderr)
    return {
        "command_s": command,
        "chain_s": common.median([sum(r["times"].values()) * r["scale"] for r in timed]),
        "rows_per_s": manifest["rows"] / command,
        "setup_s": common.median(setup_times),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "quality": quality.get("plot_rate", quality.get("map50_95")),
    }


def per_layer(result, quality, timings) -> dict:
    figures = dict(result["layers"])
    figures["simulate.generate.s"] = timings["simulate.generate.s"]
    figures["simulate.write.s"] = timings["simulate.write.s"]
    figures["fusion.track_err_mm"] = quality.get("track_err_mm", 0.0)
    figures["evaluation.face_err_mm"] = quality.get("face_err_mm", 0.0)
    figures["evaluation.plot_rate"] = quality.get("plot_rate", 0.0)
    figures["metrics.map50_95"] = quality.get("map50_95", 0.0)
    return figures


def bench(workload: str, seed: int, seconds: int, trace: bool, frames: int, work: Path):
    import gate as gates
    import workloads
    from gridscope.errors import GridscopeError

    gate = gates.Gate()
    timings = common.Timings()
    manifest = workloads.generate(workload, seed, frames, work / "full", timings)
    half = None
    if trace and workload in workloads.PIPELINES:
        workloads.generate(workload, seed, frames // 2, work / "half", common.Timings())
        half = work / "half" / "manifest.json"
    calibration = work / "calibration.json"
    setup_times = measure_setup(manifest["picks"], calibration, gate)
    spans = None
    if trace:
        out = common.ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload}.jsonl"
    result = run_worker(work / "full" / "manifest.json", calibration, seconds, spans, half)
    gate.invocations(result["reps"])
    try:
        if workload == "detscore":
            quality = gates.detscore_checks(gate, manifest)
        else:
            quality = gates.pipeline_checks(gate, manifest)
    except (GridscopeError, OSError, KeyError, ValueError) as exc:
        gate.check(False, f"outputs unreadable: {exc!r}")
        quality = {"plot_rate": 0.0, "map50_95": 0.0}
    if trace:
        metrics = per_layer(result, quality, timings)
        top = sorted(result["self_s"].items(), key=lambda kv: -kv[1])[:5]
        print("largest self times: " + ", ".join(f"{n} {v:.4f} s" for n, v in top),
              file=sys.stderr)
        print(f"spans written to {spans}", file=sys.stderr)
    else:
        metrics = end_to_end(manifest, setup_times, result, quality)
    return gate, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--frames", type=int, default=None,
                        help="override the workload's frame count (smoke test)")
    args = parser.parse_args(argv)
    try:
        common.bootstrap()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.FRAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gate, figures = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.frames or workloads.FRAMES[args.workload], work)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"perfbench: no figure for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload:>9} {name:<40} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    for problem in gate.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
