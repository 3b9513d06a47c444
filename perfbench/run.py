#!/usr/bin/env python3
"""TPA benchmark: one run of one workload.

    python3 perfbench/run.py --workload online-sparse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (see build.py), runs the
workload in one JVM, prints a human report and, as the last line, one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exits non-zero, without a result line, if the build fails or
the run does not finish, and with code 1 if any correctness check failed.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
WORKLOADS = ("online-sparse", "index-truth", "spark-tpa")
JVM_OPTS = ["-Xms1g", "-Xmx3g", "-XX:-UsePerfData"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar")]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown(not-a-git-checkout)"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    spec = build.ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run_jvm(main_args, digest):
    work = build.OUT / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # The benchmark fixes its own Spark settings; these would override them.
    for k in ("SPARK_LOCAL_DIRS", "SPARK_MASTER", "SPARK_CONF_DIR"):
        env.pop(k, None)
    cmd = ["java", *JVM_OPTS,
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dperfbench.work={work}",
           f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceSha={digest[:16]}",
           "-cp", build.classpath(), "perfbench.Main", *main_args]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            lines.append(line)
            print(line, flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if timed_out.is_set():
        print(f"[perfbench] run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 2, lines
    return code, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        digest = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 1
    if a.self_test:
        code, _ = run_jvm(["--self-test"], digest)
        return code
    code, lines = run_jvm(["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace)], digest)
    if code == 2 or not lines:
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("[perfbench] the run printed no result line", file=sys.stderr)
        return 2
    want = declared_metrics(a.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        print(f"[perfbench] metrics differ from BENCHMARK.json: "
              f"{sorted(set(want) ^ set(result['metrics']))}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
