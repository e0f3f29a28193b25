#!/usr/bin/env python3
"""Builds cegraph and the benchmark driver from source, then measures one
workload and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 \
        --trace 0 [--smoke]

Run it from the root of a cegraph checkout. Workloads: serve_mixed,
serve_churn, plan_job (see perfbench/README.md). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced replay.
Build outputs and run inputs go under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve_mixed", "serve_churn", "plan_job")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own session and kills the whole group on timeout.
    Output goes to stderr unless captured."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{' '.join(cmd)} timed out after {timeout} s")
    return proc.returncode, out


def source_identity(root):
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        rc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True)
        if rc.returncode == 0:
            return rc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"no cegraph sources under {root}; run from a checkout root")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, _ = run(["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                    + generator, BUILD_TIMEOUT_S)
        if rc != 0:
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    rc, _ = run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up launch")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build_dir = os.path.join(root, build_dir)
    build(root, build_dir)

    work = os.path.join(build_dir, "work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    driver = os.path.join(build_dir, "perfbench_driver")
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--dir", work] + (["--smoke"] if args.smoke else [])
    rc, _ = run([driver, "prepare"] + common, PREPARE_TIMEOUT_S)
    if rc != 0:
        fail("prepare failed")
    rc, out = run(
        [driver, "run", "--workload", args.workload,
         "--trace", str(args.trace),
         "--serve-bin", os.path.join(build_dir, "cegraph", "cegraph_serve"),
         "--commit", source_identity(root)] + common,
        timeout=2 * args.seconds + 90, capture=True)
    # Keep the workload files and the span dump; drop the bulky inputs.
    for name in os.listdir(work):
        if name.startswith("deltas_") or name.endswith(".arena"):
            os.remove(os.path.join(work, name))
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.stdout.write(out)
        fail(f"driver exited with {rc}")
    result = json.loads(lines[-1])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
