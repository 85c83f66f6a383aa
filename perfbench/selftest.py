#!/usr/bin/env python3
"""Self-test of OWN-Sim's benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at a toy length, untraced and traced, and checks that:
  - every end_to_end / per_layer metric of BENCHMARK.json is emitted with
    its unit;
  - the traced run's RunResult equals the untraced one (deterministic_eq);
  - own1024-sat-par reproduces own1024-sat's result digest;
  - a recorded reference digest is honoured, and a corrupted one is counted
    as a failure with a nonzero exit (the result gate is live).
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: the build step)

SEED = 7
# Every workload ownbench defines, including own1024-sat-par, which
# BENCHMARK.json leaves out (its wall time is too noisy on a shared host)
# but whose digest must still equal own1024-sat's.
WORKLOADS = ("own1024-sat", "own256-sparse", "own1024-sat-par")
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def ownbench(binary, workload, trace, references=None):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    if references:
        cmd += ["--references", references]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"] if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, record, result


def main():
    os.chdir(run.ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = run.build()
    if binary is None:
        return 1
    scratch = os.path.join(run.BUILD, "selftest")
    os.makedirs(scratch, exist_ok=True)

    digests = {}
    for workload in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, record, result = ownbench(binary, workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(code == 0 and result.get("correct") is True
                  and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1, tag + ": passes the gate")
            metrics = result.get("metrics", {})
            missing = [m["name"] for m in wanted
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, tag + ": every metric with its unit %s" % missing)
            check(set(metrics) == {m["name"] for m in wanted},
                  tag + ": no unlisted metric")
            if trace:
                check(record.get("traced_matches_untraced") is True,
                      tag + ": traced RunResult == untraced")
            digests[workload] = record.get("result_digest")

    check(digests.get("own1024-sat-par") == digests.get("own1024-sat"),
          "own1024-sat-par digest == own1024-sat digest")

    good = os.path.join(scratch, "good.txt")
    with open(good, "w") as f:
        f.write("own256-sparse toy %d %s\n" % (SEED, digests["own256-sparse"]))
    code, record, result = ownbench(binary, "own256-sparse", 0, good)
    check(code == 0 and result["failed"] == 0
          and record.get("reference_source") == "recorded",
          "recorded reference digest is used and matched")

    bad = os.path.join(scratch, "corrupt.txt")
    with open(bad, "w") as f:
        for workload in ("own256-sparse", "own1024-sat"):
            f.write("%s toy %d %s\n" % (workload, SEED, "0" * 64))
    for workload in ("own256-sparse", "own1024-sat-par"):
        code, _, result = ownbench(binary, workload, 0, bad)
        check(code != 0 and result.get("correct") is False
              and result.get("failed", 0) >= 1,
              workload + ": corrupted reference counts as a failure")

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
