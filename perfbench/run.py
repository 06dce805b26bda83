#!/usr/bin/env python3
"""EagerDB's benchmark: build the engine from source, run one workload,
check its results, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source tree.  The workloads and metrics are
declared in BENCHMARK.json; perfbench/eagerbench.ml runs them.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The exit status is 0
only when every result was checked correct and every declared metric was
printed with its declared unit.

Every run is stamped (git rev or source digest, nproc, OCaml version,
seed) and appended with its result to perfbench/_out/trajectory.jsonl, so
successive runs form a trajectory.  --self-check runs every workload at a
tiny scale, traced and untraced, and fails unless every metric is emitted
and every result is correct.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "_out")
EXE = os.path.join("_build", "default", "perfbench", "eagerbench.exe")
EAGERDB = os.path.join("_build", "default", "bin", "eagerdb.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of an EagerDB source tree" % needed)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE, "./" + EAGERDB],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed with status %d" % r.returncode)


def source_digest():
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def stamp(seed):
    return {
        "git_rev": command_output(["git", "rev-parse", "--short=12", "HEAD"]),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]),
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload, seed, seconds, trace, scale="full"):
    """Run the benchmark executable; return (comment lines, result or None, error)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--scale", scale,
           "--eagerdb", EAGERDB, "--out", OUT]
    # its own process group, so a timeout also stops the server it started
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return [], None, "timed out after %d s" % RUN_TIMEOUT_S
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        return [], None, "no output (status %d)" % p.returncode
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return lines, None, "last line is not JSON (status %d)" % p.returncode
    return lines[:-1], result, None


def validate(spec, result, trace):
    """Problems with a result against BENCHMARK.json; [] when it conforms."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("a result was wrong")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, declared %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % m["name"])
    names = {m["name"] for m in declared}
    for extra in sorted(set(metrics) - names):
        problems.append("metric %s is not declared" % extra)
    return problems


def self_check(spec):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result, err = run_once(w["name"], 1, 1, trace, scale="tiny")
            problems = [err] if err else validate(spec, result, trace)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("self-check %s --trace %d: %s" % (w["name"], trace, status))
            ok = ok and not problems
    return ok


def main():
    os.chdir(ROOT)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.self_check:
        sys.exit(0 if self_check(spec) else 1)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    lines, result, err = run_once(args.workload, args.seed, args.seconds,
                                  args.trace)
    for line in lines:
        print(line)
    if err:
        fail(err, code=1)
    st = stamp(args.seed)
    print("# stamp " + json.dumps(st, sort_keys=True))
    with open(os.path.join(OUT, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps({"stamp": st, "workload": args.workload,
                            "trace": args.trace, "result": result},
                           sort_keys=True) + "\n")
    problems = validate(spec, result, args.trace)
    for problem in problems:
        print("run.py: " + problem, file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
