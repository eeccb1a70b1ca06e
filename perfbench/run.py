"""Host-time benchmark of the DCPerf simulator over three user paths.

    python3 perfbench/run.py --workload suite-cold --seed 7 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``suite-cold`` -- ``DCPerfSuite(early_stop=True)`` on SKU2 with no
  run cache, as ``dcperf suite --no-cache`` runs it: 18 points.
* ``grid-pool`` -- the 7 paper benchmarks x SKU1-4 x kernels 6.4/6.9
  through ``SweepExecutor`` on warm pool workers, then warm-cache
  replays of the same grid.
* ``faults-control`` -- seven ``execute_point`` runs under fault and
  SLO-control scenarios.

Every repetition runs in a fresh process (``workloads.py``), so the
program's per-process memos start empty.  Repetitions run until
``--seconds`` is spent (at least three), and each metric is the median
over them.  With ``--trace 0`` the command prints the end-to-end
metrics; with ``--trace 1`` it alternates an untraced and a traced
repetition and prints the per-layer table, including
``trace.overhead`` (traced wall time over untraced wall time).

End-to-end metrics, all host time or memory:

* ``setup_s`` -- process start to the first call into the main pass
  (interpreter, imports, registry, executor and cache construction).
  Two setup-only repetitions per full one add samples.
* ``wall_s`` -- the main pass.
* ``events_per_s`` -- engine events per host second of in-process work:
  the main pass, or on ``grid-pool`` repeated in-process passes over its
  sample once memos are warm, because pool workers cannot be counted
  from outside.
* ``peak_rss_mb`` -- the largest resident set of a repetition's process
  and its pool workers.

``replay_s``, one warm-cache replay of the workload's points through the
same entry point, is printed beside them but carries no bound: a few
milliseconds of file reads and decoding, it moved by 20-40% between
runs of the same code on a shared 2-vCPU host, more than any bound
allows.  The traced run reports it as ``exec.replay_s``.

Simulated statistics are deterministic for a seed, so the benchmark
hashes every report: all repetitions, the warm-cache replays and, on
``grid-pool``, an in-process re-run of one point per benchmark must
agree byte for byte.  A point that fails, is recovered in-process or
fails a digest check counts toward ``error_rate``, and the command then
exits with status 1.  It exits with status 2, printing no result, when
the program's source is not beside the benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and spread, ``error_rate``, and the
run's metadata (CPUs, workers, pool mode, Python, commit, seed).

The seven older ``BENCH_*.json`` files and ``tools/bench_*.py`` scripts
stay as they are; folding them into this benchmark is separate work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Each run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
MIN_MEASURE_REPS = 3
#: A measuring round: one full repetition and two that stop at setup.
MEASURE_ROUND = ("measure", "setup", "setup")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_per_layer_units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def spread(values: Sequence[float]) -> float:
    """Quartile spread as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def commit_of(root: str) -> str:
    """HEAD commit read from ``.git`` without leaving ``root``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(tmp: str) -> Dict[str, str]:
    """The program's defaults, its source from this checkout, temp files here."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCPERF_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Every cache the benchmark uses is an explicit directory under tmp;
    # this keeps anything else from reaching the user's default cache.
    env["DCPERF_CACHE"] = "0"
    env["TMPDIR"] = tmp
    return env


def spawn(workload: str, seed: int, mode: str, tmp: str, timeout: float,
          window: Optional[float]) -> Tuple[Optional[dict], str]:
    """Run one repetition in a fresh process; (result, error text)."""
    rep_tmp = tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--tmp", rep_tmp]
    if window is not None:
        cmd += ["--window", repr(window)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(rep_tmp), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{mode} repetition timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(rep_tmp, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"{mode} repetition exited {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), ""


def run_reps(workload: str, seed: int, seconds: float, modes: Sequence[str],
             min_rounds: int, window: Optional[float]) -> Tuple[List[dict], str]:
    """Rounds of repetitions, one per mode, until ``seconds`` is spent.

    Another round starts only if it is expected to finish within
    ``seconds`` (or ``min_rounds`` is not yet reached) and within the
    run's deadline.  Returns the repetitions and, if one was lost, why.
    """
    reps: List[dict] = []
    started = time.perf_counter()
    tmp_root = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        rounds = 0
        while True:
            for mode in modes:
                left = DEADLINE_S - (time.perf_counter() - started)
                result, error = spawn(workload, seed, mode, tmp, left, window)
                if result is None:
                    return reps, error
                reps.append(result)
            rounds += 1
            elapsed = time.perf_counter() - started
            next_end = elapsed + elapsed / rounds
            if next_end > DEADLINE_S or (rounds >= min_rounds and next_end > seconds):
                return reps, ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_reps(reps: List[dict]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, error lines) over all repetitions.

    Points whose digest differs from the first repetition's count as
    failed, as do the failures each repetition found itself.
    """
    reps = [r for r in reps if r["mode"] != "setup"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    reference = reps[0]["digests"] if reps else {}
    for index, rep in enumerate(reps[1:], start=1):
        differ = sorted(k for k in reference.keys() | rep["digests"].keys()
                        if reference.get(k) != rep["digests"].get(k))
        failed += len(differ)
        errors += [f"repetition {index}: {k} differs from repetition 0" for k in differ]
    return attempted, min(failed, attempted), errors


def replays(reps: List[dict]) -> List[float]:
    """Every warm-cache replay of every repetition, pooled."""
    return [t for r in reps for t in r["replays"]]


def end_to_end(reps: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Medians over repetitions, and their spreads.

    ``setup_s`` includes the setup-only repetitions; ``replay_s`` pools
    every replay of every repetition.
    """
    measured = [r for r in reps if r["mode"] == "measure"]
    series = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in measured],
        "events_per_s": [r["events"] / r["events_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
        "replay_s": replays(measured),
    }
    return ({k: statistics.median(v) for k, v in series.items()},
            {k: spread(v) for k, v in series.items()})


def per_layer(reps: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    traced = [r for r in reps if r["mode"] == "trace"]
    untraced = [r for r in reps if r["mode"] == "baseline"]
    names = list(load_per_layer_units())
    values: Dict[str, float] = {}
    spreads: Dict[str, float] = {}
    for name in names:
        if name == "trace.overhead":
            series = [t["wall_s"] / u["wall_s"] for t, u in zip(traced, untraced)]
        elif name == "exec.replay_s":
            series = replays(untraced)
        else:
            series = [r["layers"][name] for r in traced]
        values[name] = statistics.median(series)
        spreads[name] = spread(series)
    return values, spreads


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  window: Optional[float] = None) -> Tuple[dict, dict, List[str]]:
    """(result object, metadata, error lines) of one benchmark run."""
    if trace:
        reps, lost = run_reps(workload, seed, seconds, ("baseline", "trace"), 1, window)
    else:
        reps, lost = run_reps(workload, seed, seconds, MEASURE_ROUND, MIN_MEASURE_REPS, window)
    attempted, failed, errors = check_reps(reps)
    complete = bool(reps) and not lost
    if lost:
        # A lost repetition fails every point it would have run.
        per_rep = next((r["attempted"] for r in reps if r["attempted"]), 1)
        attempted += per_rep
        failed += per_rep
        errors.append(lost)
    if trace:
        units = load_per_layer_units()
        values, spreads = per_layer(reps) if complete else ({}, {})
    else:
        units = END_TO_END
        values, spreads = end_to_end(reps) if complete else ({}, {})
    child: Dict[str, object] = {}
    for rep in reps:
        child.update(rep["meta"])
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": sum(r["mode"] != "setup" for r in reps),
        "nproc": os.cpu_count(),
        "auto_workers": child.get("auto_workers"),
        "workers": child.get("workers", 1),
        "pool_mode": child.get("pool_mode", "inproc"),
        "pool_fallback": any(r["meta"].get("pool_fallback") for r in reps),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit_of(ROOT),
        "error_rate": failed / attempted,
        "spread": spreads,
    }
    if "replay_s" in values:
        meta["replay_s"] = values.pop("replay_s")
    result = {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return result, meta, errors


def report(result: dict, meta: dict, errors: List[str]) -> None:
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}: "
          f"{meta['repetitions']} repetitions, each in a fresh process")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"(spread {meta['spread'][name]:.1%})")
    if "replay_s" in meta:
        print(f"  {'replay_s':34s} {meta['replay_s']:>16.6g} s      "
              f"(spread {meta['spread']['replay_s']:.1%}; no bound)")
    print(f"  {'error_rate':34s} {meta['error_rate']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} points)")
    if meta["pool_fallback"]:
        print("WARNING: the sweep fell back from the warm pool "
              f"(pool_mode={meta['pool_mode']}, workers={meta['workers']})")
    for line in errors:
        print(f"ERROR: {line}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    result, meta, errors = run_benchmark(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    report(result, meta, errors)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
