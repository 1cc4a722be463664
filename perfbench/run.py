"""ionjc benchmark: one workload, closed loop with one client.

    python3 perfbench/run.py --workload sweep-576 --seed 0 --seconds 20 --trace 0

Each CLI run is a subprocess; the next starts only after the previous one
exits, until --seconds have passed.  Every output is checked by gate.py.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one extra, traced run.  The line
before it is a report with the raw samples and the machine facts.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here (the gate runs in this process) and passed to
# every child, so no run uses more threads than the 2 cores it is sized for.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: BLAS_THREADS for name in BLAS_ENV})

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import gate
import spans
from workloads import DEFAULT_SEED, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# every child is killed once the invocation has run this long, so the
# benchmark always exits within its 180 s limit
DEADLINE_S = 170.0
SETUP_CODE = "import sys; from ionjc.config import parse_config; parse_config(sys.argv[1])"

END_TO_END = (("run_s", "s"), ("points_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class Runner:
    """Spawns children one at a time and reaps each with its own rusage."""

    def __init__(self, work: Path, started: float):
        # children inherit the pinned BLAS threads; --threads alone sets the sweep's workers
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.env.pop("IONJC_THREADS", None)
        self.work = work
        self.started = started

    def spawn(self, argv: list[str]) -> tuple[float, int, float]:
        """Run argv to exit; return (wall seconds, exit code, max RSS in MiB)."""
        limit = max(5.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"child {argv[1:3]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def checked(check: gate.Gate, out: Path, code: int) -> bool:
    if code != 0:
        return False
    try:
        check.check(out.read_text(encoding="utf-8"))
    except (gate.GateError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"output rejected: {exc}", file=sys.stderr)
        return False
    return True


def machine_facts(workload, seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {name: BLAS_THREADS for name in BLAS_ENV},
        "cli_threads": workload.threads,
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, started: float) -> dict:
    runner = Runner(work, started)
    cfg = make_config(workload, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    out = work / "out.csv"
    cli_args = [workload.command, "--config", str(cfg_path), "--out", str(out),
                "--threads", str(workload.threads)]

    setup = []

    def set_up():
        # a few set-up children before the loop and after every CLI run, so
        # their median samples the same stretch of time as run_s
        for _ in range(0 if trace else SETUP_REPEATS):
            wall, code, _ = runner.spawn([sys.executable, "-c", SETUP_CODE, str(cfg_path)])
            if code != 0:
                raise SystemExit(f"set-up child failed with exit code {code}")
            setup.append(wall)

    set_up()
    check = gate.Gate(workload, cfg, seed == DEFAULT_SEED)

    walls, rss, failed = [], [], 0
    loop_start = time.perf_counter()
    while True:
        out.unlink(missing_ok=True)
        wall, code, peak = runner.spawn([sys.executable, "-m", "ionjc.cli", *cli_args])
        walls.append(wall)
        rss.append(peak)
        failed += not checked(check, out, code)
        done = time.perf_counter() - loop_start >= seconds
        set_up()
        if done:
            break

    report = {"run_s": walls, "peak_rss_mb": rss, "setup_s": setup}
    if trace:
        spans_path = work / "spans.json"
        out.unlink(missing_ok=True)
        wall, code, _ = runner.spawn([sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                                      str(workload.dim), *cli_args])
        ok = checked(check, out, code)
        failed += not ok
        report["traced_run_s"] = wall
        metrics = {}
        if ok:
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            metrics = spans.layer_metrics(doc, statistics.median(walls), wall)
        units = {f"{layer}.{metric}": unit for layer, metric, unit in spans.LAYER_METRICS}
    else:
        setup_s = statistics.median(setup)
        metrics = {
            "run_s": statistics.median(walls),
            "points_per_s": statistics.median(workload.points / (w - setup_s) for w in walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
        }
        units = dict(END_TO_END)
    attempted = len(walls) + trace
    report.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "ionjc" / "__init__.py").is_file():
        print(f"no ionjc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gate imports ionjc from this checkout

    workload = WORKLOADS[args.workload]
    facts = machine_facts(workload, args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_after"] = os.getloadavg()
    report = {"workload": workload.name, "trace": args.trace, "facts": facts, **measured["report"]}
    print(json.dumps({"report": report}))
    print(json.dumps(measured["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
