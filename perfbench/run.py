#!/usr/bin/env python3
"""Build and run the benchmark of record, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs N]
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune (inside the
checkout: _build/, plus .perfbench/ for scratch files) and runs it with
the same arguments. Its last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; see perfbench/perfbench.ml.

--self-test is the short-run harness check: every workload at seed 1
with --seconds 1, untraced and traced, must pass its row gate and emit
every metric BENCHMARK.json names, with that unit and a finite value;
every per-layer metric must be mapped in perfbench/layer_map.json; a
run with one row perturbed on purpose, and runs with one row dropped
(against the golden snapshot, and against the cold fill at a seed the
snapshot does not cover), must count it in "failed"; and a --jobs
above the core count must be refused.
"""

import json
import math
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    # keep every build product inside the checkout
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(".perfbench", "cache"))
    return e


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a checkout of the repository: %s is missing" % need)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env(), timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not on PATH")
    except subprocess.TimeoutExpired:
        die("build did not finish in %d s" % BUILD_TIMEOUT_S, 3)
    if done.returncode != 0:
        die("build failed (dune exit %d)" % done.returncode, 3)


def run(args):
    """Run the built benchmark; returns (exit code, stdout)."""
    # its own process group, so that a stop reaches any child it started
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, env=env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the run remove its scratch stores; then make sure
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        die("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)), 3)
    return proc.returncode, out


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "layer_map.json")) as f:
        layer_map = json.load(f)
    problems = []
    mapped = {m for layer in layer_map["layers"] for m in layer["metrics"]}
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            problems.append("per-layer metric %s has no entry in layer_map.json" % m["name"])
    for name in mapped - {m["name"] for m in bench["per_layer"]}:
        problems.append("layer_map.json maps %s, which BENCHMARK.json does not name" % name)

    def check(workload, trace, extra=(), perturbed=False, seed=1):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace)] + list(extra)
        code, out = run(args)
        what = " ".join(args)
        res = result_of(out)
        if code != 0 or res is None:
            problems.append("%s: exit %d, no result" % (what, code))
            return
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: result keys %s" % (what, sorted(res)))
            return
        if perturbed:
            if res["failed"] < 1 or res["correct"]:
                problems.append("%s: perturbed row not counted (failed=%s)"
                                % (what, res["failed"]))
            return
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append("%s: correct=%s attempted=%s failed=%s"
                            % (what, res["correct"], res["attempted"], res["failed"]))
        want = bench["per_layer" if trace else "end_to_end"]
        got = res["metrics"]
        if set(got) != {m["name"] for m in want}:
            problems.append("%s: metric names differ from BENCHMARK.json: %s"
                            % (what, sorted(set(got) ^ {m["name"] for m in want})))
        for m in want:
            v = got.get(m["name"])
            if v is None:
                continue
            if v.get("unit") != m["unit"]:
                problems.append("%s: %s has unit %r, want %r"
                                % (what, m["name"], v.get("unit"), m["unit"]))
            val = v.get("value")
            if not isinstance(val, (int, float)) or isinstance(val, bool) \
                    or not math.isfinite(val):
                problems.append("%s: %s = %r is not a finite number" % (what, m["name"], val))
        print("self-test: %s ok" % what, file=sys.stderr)

    for w in bench["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace)
    check(bench["workloads"][0]["name"], 0, extra=["--perturb-row"], perturbed=True)
    check(bench["workloads"][0]["name"], 0, extra=["--drop-row"], perturbed=True)
    check("store-warm", 0, extra=["--drop-row"], perturbed=True, seed=2)
    # more domains than cores is refused before any work, with no result
    code, out = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", "--jobs", str(os.cpu_count() + 1)])
    if code == 0 or out.strip():
        problems.append("--jobs above the core count was not refused")
    for p in problems:
        print("self-test: FAIL " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "passed"), file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        self_test()
    code, out = run(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
