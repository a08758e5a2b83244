#!/usr/bin/env python3
"""The repository benchmark: end-to-end scenario runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py pin --seeds 1-20       # record stdout digests
    python3 perfbench/run.py compare A.json B.json  # same-build-type check

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the repository's src/ plus the two benchmark
binaries) under .bench_build/perfbench; later runs rebuild incrementally.
Every child process runs with a scrubbed TIMING_* environment, an explicit
TIMING_THREADS = min(4, nproc), and its working directory and TMPDIR under
.bench_build, so nothing lands in the checkout root or outside it.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the provenance. The same record is written to
.bench_build/perfbench/results/. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "work"
TMP_DIR = BUILD_DIR / "tmp"  # TMPDIR of the compiler and every child
RESULTS_DIR = BUILD_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"
BUILD_TYPE = "RelWithDebInfo"
THREADS = min(4, len(os.sched_getaffinity(0)))
CHILD_TIMEOUT_S = 60  # one invocation takes well under a second

# Each workload is one registered scenario with fixed overrides; the
# benchmark seed is appended as seed=N. `probe` is the reduced shape the
# traced run of the OTHER workloads drives through the same layers, so
# every per-layer metric is measured on every workload.
WORKLOADS = {
    "mc_wan": {
        "scenario": "fig1g",
        "overrides": ["runs=44"],
        "probe": ["runs=6"],
    },
    "mc_iid_granular": {
        "scenario": "granular/ablation",
        "overrides": ["n=32", "runs=2"],
        "probe": ["n=32", "runs=1"],
    },
    "chaos_hunt": {
        "scenario": "adversary/search",
        "overrides": [],
        "probe": ["budget=128", "baseline=64"],
    },
    "smr_lin": {
        "scenario": "smr/linearizable",
        "overrides": ["runs=1000"],
        "probe": ["runs=100"],
    },
}

E2E = {
    "units_per_s": "1/s",
    "cpu_us_per_unit": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "common.rng.bernoulli_ns": "ns",
    "common.rng.lognormal_ns": "ns",
    "common.parallel.util": "ratio",
    "sim.wan.round_ns": "ns",
    "sim.iid.round_ns": "ns",
    "sim.schedule.round_ns": "ns",
    "models.packed.eval_ns": "ns",
    "models.granular.eval_ns": "ns",
    "harness.run_ms": "ms",
    "harness.granular_run_ms": "ms",
    "harness.self_frac": "ratio",
    "analysis.granular_point_ms": "ms",
    "giraf.step_ns": "ns",
    "fault.exec_us": "us",
    "fault.rounds_per_exec": "count",
    "fault.messages_per_exec": "count",
    "adversary.eval_ms": "ms",
    "adversary.generation_ms": "ms",
    "adversary.gen_util": "ratio",
    "adversary.baseline_s": "s",
    "adversary.search_s": "s",
    "adversary.shrink_s": "s",
    "smr.trial_ms": "ms",
    "smr.sampler_frac": "ratio",
    "smr.instances_per_trial": "count",
    "smr.ok_frac": "ratio",
    "history.check_us": "us",
    "history.ops_per_check": "count",
    "bench.trace_overhead_frac": "ratio",
    "error_rate": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build ---------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("error: no src/CMakeLists.txt next to perfbench/; "
                         "run from the root of a full checkout")
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP_DIR))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS),
                    "--target", "pb_lab", "pb_trace"],
                   check=True, stdout=sys.stderr, env=env)


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIMING_")}
    env["TIMING_THREADS"] = str(threads)
    env["TMPDIR"] = str(TMP_DIR)
    return env


# -- one end-to-end invocation -------------------------------------------


def parse_counters(workload, out, spec):
    """Work counters from a scenario's stdout; units is the workload's unit."""
    rows = [r.split() for r in table_rows(out)]
    if workload == "mc_wan":
        # measured: the ES, cens, AFM, LM and WLM cells of every row.
        return {"rows": len(rows),
                "units": spec["runs"] * spec["rounds_per_run"] * len(rows),
                "measured": " ".join(" ".join(r[1:6]) for r in rows)}
    if workload == "mc_iid_granular":
        m = re.search(r"(\d+) runs x (\d+) rounds per point", out)
        runs, rounds = int(m.group(1)), int(m.group(2))
        # measured: P_ES, P_LM, P_WLM, P_AFM and C_sync of every row.
        return {"rows": len(rows), "units": runs * rounds * len(rows),
                "measured": " ".join(" ".join(r[3:12:2]) for r in rows)}
    if workload == "chaos_hunt":
        m = re.search(r"(\d+) evaluations \((\d+) generations, (\d+) distinct",
                      out)
        b = re.search(r"best of (\d+) uniform random plans scored ([-\d.]+)",
                      out)
        spent = re.search(r"the hunt scored ([-\d.]+) with (\d+) evaluations",
                          out)
        shrink = sum(int(x) for x in re.findall(r"(\d+) evals", out))
        return {"search_evals": int(m.group(1)),
                "generations": int(m.group(2)),
                "signatures": int(m.group(3)),
                "baseline_evals": int(b.group(1)),
                "baseline_best": b.group(2),
                "hunt_best": spent.group(1),
                "shrink_evals": shrink,
                "units": int(spent.group(2)) + int(b.group(1))}
    if workload == "smr_lin":
        cells = [int(x) for x in rows[0]]
        keys = ["trials", "instances", "decided", "ops_ok", "ops_fail",
                "ops_info", "non_linearizable"]
        c = dict(zip(keys, cells))
        c["units"] = c["trials"]
        return c
    raise ValueError(workload)


def table_rows(out):
    """Body rows of the first aligned table in `out`."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("---"):
            body = []
            for row in lines[i + 1:]:
                if not row.strip():
                    break
                body.append(row)
            return body
    return []


def invoke(workload, seed, threads):
    """Run pb_lab once; returns a record with digest, counters and timings."""
    w = WORKLOADS[workload]
    args = [str(BUILD_DIR / "pb_lab"), w["scenario"]]
    args += w["overrides"] + ["seed=%d" % seed]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        p = subprocess.run(args, cwd=WORK_DIR, env=child_env(threads),
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("invocation timed out after %d s: %s" % (CHILD_TIMEOUT_S,
                                                     " ".join(args)))
        return {"rc": -1, "digest": None, "counters": None, "stats": None}
    rec = {"rc": p.returncode, "digest": hashlib.sha256(p.stdout).hexdigest(),
           "counters": None, "stats": None}
    for line in p.stderr.decode(errors="replace").splitlines():
        if line.startswith("perfbench-stats "):
            rec["stats"] = json.loads(line[len("perfbench-stats "):])
    if p.returncode != 0 or rec["stats"] is None:
        log("invocation failed (rc %d): %s\n%s" % (
            p.returncode, " ".join(args), p.stderr.decode(errors="replace")))
        rec["rc"] = rec["rc"] or 1
        return rec
    try:
        rec["counters"] = parse_counters(workload, p.stdout.decode(),
                                         rec["stats"]["spec"])
    except (AttributeError, IndexError, ValueError) as e:
        log("cannot parse the work counters of %s: %s" % (workload, e))
        rec["rc"] = 1
    return rec


class Checker:
    """Correctness of every invocation: exit 0, the digest pinned for
    (workload, seed) - or, for an unpinned seed, the digest of the
    TIMING_THREADS=1 reference run - and work counters that repeat."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.pinned = pins.get(workload, {}).get(str(seed))
        self.digest = self.pinned
        self.counters = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, rec):
        self.attempted += 1
        problem = None
        if rec["rc"] != 0:
            problem = "exit code %d" % rec["rc"]
        elif self.digest is not None and rec["digest"] != self.digest:
            problem = "stdout digest %s, expected %s" % (rec["digest"],
                                                         self.digest)
        elif self.counters is not None and rec["counters"] != self.counters:
            problem = "work counters %s, expected %s" % (rec["counters"],
                                                         self.counters)
        if problem:
            self.failed += 1
            self.problems.append(problem)
            log("%s seed %d: %s" % (self.workload, self.seed, problem))
            return False
        self.digest = rec["digest"]
        self.counters = rec["counters"]
        return True


def reference(workload, seed, checker):
    """The TIMING_THREADS=1 run: the determinism check and the digest pin
    for seeds without one in digests.json."""
    rec = invoke(workload, seed, 1)
    checker.check(rec)
    return rec


def timed_invocations(workload, seed, seconds, checker, min_count=3):
    """Invocations at the benchmark's thread count for `seconds` (at least
    `min_count` attempts); returns the ones that passed the checker."""
    recs = []
    attempts = 0
    deadline = time.monotonic() + seconds
    while attempts < min_count or time.monotonic() < deadline:
        rec = invoke(workload, seed, THREADS)
        attempts += 1
        if checker.check(rec):
            recs.append(rec)
    return recs


def e2e_metrics(recs):
    st = [r["stats"] for r in recs]
    units = [r["counters"]["units"] for r in recs]
    return {
        "units_per_s": statistics.median(
            u / (s["run_ns"] * 1e-9) for u, s in zip(units, st)),
        "cpu_us_per_unit": statistics.median(
            s["cpu_ns"] * 1e-3 / u for u, s in zip(units, st)),
        "setup_s": statistics.median(s["setup_ns"] * 1e-9 for s in st),
        "peak_rss_mb": statistics.median(s["max_rss_kb"] for s in st) / 1024,
    }


# -- the traced run ------------------------------------------------------


def traced(workload, seed, seconds, checker, recs):
    """Drive the workload's inputs (and the other workloads' probe shapes)
    through each layer's public functions with spans; returns pb_trace's
    record with the per-layer metrics completed, or None when its counts
    differ from the untraced run's."""
    args = [str(BUILD_DIR / "pb_trace"), "--seconds", "%.3f" % seconds,
            "--spans", str(RESULTS_DIR / ("%s-seed%d.spans.jsonl" %
                                          (workload, seed)))]
    for name, w in WORKLOADS.items():
        role = "--full" if name == workload else "--probe"
        shape = w["overrides"] if name == workload else w["probe"]
        args += [role, name, w["scenario"]] + shape + ["seed=%d" % seed, ";"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    try:
        p = subprocess.run(args, cwd=WORK_DIR, env=child_env(THREADS),
                           capture_output=True,
                           timeout=seconds + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("pb_trace timed out")
        return None
    sys.stderr.write(p.stderr.decode(errors="replace"))
    if p.returncode != 0:
        log("pb_trace failed with exit code %d" % p.returncode)
        return None
    out = json.loads(p.stdout.decode().splitlines()[-1])
    if out["counts"] != {k: str(v) for k, v in checker.counters.items()}:
        log("traced counts %s differ from the untraced run's %s" %
            (out["counts"], checker.counters))
        return None
    m = out["metrics"]
    untraced = statistics.median(out["untraced_wall_s"])
    m["bench.trace_overhead_frac"] = (
        statistics.median(out["full_wall_s"]) - untraced) / untraced
    m["common.parallel.util"] = statistics.median(
        r["stats"]["cpu_ns"] / (THREADS * r["stats"]["run_ns"]) for r in recs)
    m["error_rate"] = checker.failed / checker.attempted
    return out


# -- provenance ------------------------------------------------------------


def provenance(workload, seed, stats):
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = p.stdout.strip() if p.returncode == 0 else None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"workload": workload, "seed": seed,
            "scenario": WORKLOADS[workload]["scenario"],
            "build_type": stats.get("build_type") if stats else None,
            "compiler": stats.get("compiler") if stats else None,
            "nproc": os.cpu_count(), "threads": THREADS,
            "git_sha": sha, "src_sha256": h.hexdigest()}


def measure(a):
    checker = Checker(a.workload, a.seed)
    ref = reference(a.workload, a.seed, checker)
    share = a.seconds / 2.0 if a.trace else a.seconds
    recs = timed_invocations(a.workload, a.seed, share, checker)
    correct = checker.failed == 0 and len(recs) > 0
    metrics = {}
    trace_out = None
    if correct and a.trace:
        trace_out = traced(a.workload, a.seed, share, checker, recs)
        checker.attempted += 1
        if trace_out is None:
            checker.failed += 1
            correct = False
        else:
            metrics = trace_out["metrics"]
    elif correct:
        metrics = e2e_metrics(recs)
    units = PER_LAYER_UNITS if a.trace else E2E
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()} if correct else {},
    }
    prov = provenance(a.workload, a.seed, (recs or [ref])[0]["stats"])
    prov["digest"] = checker.digest
    prov["digest_pinned"] = checker.pinned is not None
    prov["counters"] = checker.counters
    prov["problems"] = checker.problems
    prov["invocations"] = [dict(r["stats"], units=r["counters"]["units"])
                           for r in recs]
    if trace_out:
        prov["layer_self_ms"] = trace_out["self_ms"]
        prov["traced_wall_s"] = trace_out["full_wall_s"]
        prov["untraced_wall_s"] = trace_out["untraced_wall_s"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / ("%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace))
     ).write_text(json.dumps({"provenance": prov, "result": result},
                             indent=1) + "\n")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result), flush=True)
    return 0


def pin(seeds):
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in WORKLOADS:
        for seed in seeds:
            rec = invoke(name, seed, 1)
            if rec["rc"] == 0:
                pins.setdefault(name, {})[str(seed)] = rec["digest"]
            else:
                log("%s seed %d exits %d; not pinned" % (name, seed,
                                                         rec["rc"]))
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    pa, pb = a["provenance"], b["provenance"]
    if pa["build_type"] != pb["build_type"]:
        log("refusing to compare a %s build with a %s build" %
            (pa["build_type"], pb["build_type"]))
        return 2
    for k, m in a["result"]["metrics"].items():
        if k in b["result"]["metrics"]:
            va, vb = m["value"], b["result"]["metrics"][k]["value"]
            ratio = vb / va if va else float("nan")
            print("%-28s %14.6g %14.6g  x%.3f %s" % (k, va, vb, ratio,
                                                     m["unit"]))
    return 0


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["pin"]:
        p = argparse.ArgumentParser(prog="run.py pin")
        p.add_argument("--seeds", type=seed_list, required=True)
        a = p.parse_args(argv[1:])
        build()
        return pin(a.seeds)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    build()
    return measure(a)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
