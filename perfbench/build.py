#!/usr/bin/env python3
"""Build file of the TPA benchmark.

Compiles the program under test (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) into `.bench_build/classes`,
using the Scala compiler that ships in the Spark distribution at
$SPARK_HOME, so the build needs no sbt, no dependency resolution and no
network.

`Oracle.scala` is left out: it needs DuckDB, which is not part of the
Spark distribution, and the benchmark never calls it.

A stamp holding the SHA-256 of every input source skips the compile when
nothing changed. Run it directly to build: `python3 perfbench/build.py`.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.sha256"
SPARK_JARS = Path(os.environ.get("SPARK_HOME", "SPARK_HOME-is-not-set")) / "jars"
EXCLUDED = {"Oracle.scala"}
COMPILE_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def sources():
    """Scala sources of the program and the benchmark, sorted."""
    program = ROOT / "src" / "main" / "scala"
    bench = BENCH_DIR / "src"
    if not program.is_dir():
        raise BuildError(f"program sources not found: {program}")
    files = [p for p in program.rglob("*.scala") if p.name not in EXCLUDED]
    files += list(bench.rglob("*.scala"))
    return sorted(files)


def source_digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def classpath():
    """Runtime classpath: compiled classes, the benchmark's resources
    (log4j2 settings) and the Spark distribution's jars."""
    return os.pathsep.join([str(CLASSES), str(BENCH_DIR / "resources"),
                            str(SPARK_JARS / "*")])


def build(log=sys.stderr):
    """Compile if the sources changed; return the source digest."""
    files = sources()
    if not any(SPARK_JARS.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler in {SPARK_JARS}")
    digest = source_digest(files)
    if STAMP.exists() and STAMP.read_text().strip() == digest and CLASSES.is_dir():
        return digest
    if CLASSES.exists():
        shutil.rmtree(CLASSES)
    CLASSES.mkdir(parents=True)
    print(f"[build] compiling {len(files)} sources into {CLASSES.relative_to(ROOT)}",
          file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", str(SPARK_JARS / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(CLASSES)] + [str(p) for p in files]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compile exceeded {COMPILE_TIMEOUT_S} s")
    if proc.returncode != 0:
        print(proc.stdout, file=log)
        raise BuildError(f"scalac exited with {proc.returncode}")
    STAMP.write_text(digest + "\n")
    return digest


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[build] {e}", file=sys.stderr)
        sys.exit(1)
