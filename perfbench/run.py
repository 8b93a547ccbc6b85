"""sdet benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a source tree (the package is imported from ./src):

    python3 perfbench/run.py --workload verify_hp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see workloads.py): verify_hp, study_jump, verify_exact, or all.

--trace 0 measures end to end, each number from fresh interpreters:
  wall_s           median of the warm passes (at least one; more while they
                   fit in --seconds)
  first_pass_s     the first pass in a fresh interpreter
  setup_s          median over seven fresh interpreters of importing sdet and
                   building the inputs
  peak_rss_mb      peak resident memory of the measuring interpreter
  accuracy_digits  resid_digits on verify_hp and verify_exact (the minimum of
                   -log10(rel_resid) over records, capped at 77, the digits
                   256 bits carry; exact zero residuals read as 77) and
                   limit_digits on study_jump (-log10 of the relative gap
                   between the extrapolated limit and G(1/2)G(3/2))
The three times are corrected for the host's speed while they ran (see
SpeedProbe in worker.py); the times as measured are printed beside them.
failed_frac (failed checks over attempted checks) is printed with them and
carried by the result's "attempted" and "failed" fields.

--trace 1 runs one interpreter that wraps every public sdet function from
outside the package (tracer.py) and reports per-layer self times (as
measured) and work counts from a warm traced pass, the tracing overhead
(corrected traced minus untraced pass time), and whether counts and report
bytes repeat between a cold and a warm traced pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results, the environment and the spans of
the traced pass are also written under .bench_out/ in the source tree.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_SELF

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("verify_hp", "study_jump", "verify_exact")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

UNITS = {
    "wall_s": "s",
    "first_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}

# what accuracy_digits is called on each workload
DIGITS_NAME = {
    "verify_hp": "resid_digits",
    "study_jump": "limit_digits",
    "verify_exact": "resid_digits",
}

# what the baseline trace should show if each workload does its job
PURPOSE = {
    "verify_hp": "table_quad_ratio == 1 and quadrature holds the most self time",
    "study_jump": "no quadrature and det_lu holds the most self time",
    "verify_exact": "no det_lu and no quadrature",
}


class BenchError(Exception):
    pass


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(role, workload, seed, seconds, workdir, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the %s run" % role)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, workload, str(seed), str(seconds), workdir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s run of %s timed out" % (role, workload))
    if done.returncode != 0:
        raise BenchError("%s run of %s exited with %d" % (role, workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s run of %s printed nothing" % (role, workload))
    return json.loads(lines[-1])


def _end_to_end(workload, seed, seconds, workdir, deadline):
    res = _child("measure", workload, seed, seconds, workdir, deadline)
    setups = [res]
    setups += [
        _child("setup", workload, seed, seconds, workdir, deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    res["setups_s"] = [r["setup_s"] for r in setups]
    res["setups_raw_s"] = [r["setup_raw_s"] for r in setups]
    values = {
        "wall_s": statistics.median(res["warm_s"]) if res["warm_s"] else None,
        "first_pass_s": res["first_pass_s"],
        "setup_s": statistics.median(res["setups_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "accuracy_digits": res["digits"],
    }
    raw = {
        "wall_s": statistics.median(res["warm_raw_s"]) if res["warm_raw_s"] else None,
        "first_pass_s": res["first_pass_raw_s"],
        "setup_s": statistics.median(res["setups_raw_s"]),
    }
    correct = res["failed"] == 0 and res["digests_agree"] and None not in values.values()
    lines = [
        "%s: first pass, %d warm passes %s s (as measured %s s)"
        % (workload, len(res["warm_s"]), _fmt_list(res["warm_s"]), _fmt_list(res["warm_raw_s"])),
    ]
    if not res["digests_agree"]:
        lines.append("%s: report bytes differ between passes" % workload)
    if res["kinds"]:
        lines.append("  identities passed: %s" % ", ".join(res["kinds"]))
    for name, value in values.items():
        label = DIGITS_NAME[workload] if name == "accuracy_digits" else name
        measured = " (as measured %s s)" % _fmt(raw[name]) if name in raw else ""
        lines.append("  %-16s %s %s%s" % (label, _fmt(value), UNITS[name], measured))
    lines.append("  %-16s %s (%d of %d checks)" % ("failed_frac", _fmt(res["failed"] / res["attempted"]), res["failed"], res["attempted"]))
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return correct, res, metrics, lines


def _per_layer(workload, seed, seconds, workdir, deadline):
    res = _child("trace", workload, seed, seconds, workdir, deadline)
    m = res["metrics"]
    correct = (
        res["failed"] == 0
        and res["digests_agree"]
        and m["trace.count_mismatches"] == 0
        and m["trace.output_mismatches"] == 0
        and m["trace.leftover_wrappers"] == 0
    )
    lines = [
        "%s: traced pass %s s, untraced pass %s s (corrected), overhead %s s, unaccounted %s"
        % (
            workload,
            _fmt(res["traced_wall_s"]),
            _fmt(res["untraced_wall_s"]),
            _fmt(m["trace.overhead_s"]),
            _fmt(m["trace.unaccounted_frac"]),
        )
    ]
    if res["mismatched_counts"]:
        lines.append("  counts differ between traced passes: %s" % ", ".join(res["mismatched_counts"]))
    lines.append("  purpose (%s): %s" % (PURPOSE[workload], "seen" if _purpose_holds(workload, m) else "NOT seen"))
    for name in sorted(m):
        lines.append("  %-40s %s" % (name, _fmt(m[name])))
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in m.items()}
    return correct, res, metrics, lines


def _layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("digits_min"):
        return "digits"
    return "count"


def _purpose_holds(workload, m):
    self_s = {k: m[k] for k in LAYER_SELF}
    if workload == "verify_hp":
        top = max(self_s, key=self_s.get)
        return m["symbols.table_quad_ratio"] == 1.0 and top == "quadrature.s"
    if workload == "study_jump":
        others = max(v for k, v in self_s.items() if k != "determinants.s")
        return m["quadrature.calls"] == 0 and m["determinants.det_lu.s"] > others
    return m["determinants.det_lu.calls"] == 0 and m["quadrature.calls"] == 0


def _fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def _fmt_list(vs):
    return "[" + ", ".join("%.3f" % v for v in vs) + "]"


def run_one(workload, seed, seconds, traced, deadline):
    workdir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    measure = _per_layer if traced else _end_to_end
    correct, raw, metrics, lines = measure(workload, seed, seconds, workdir, deadline)
    result = {"correct": bool(correct), "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced), "raw": raw, "result": result}
    record["env"] = dict(raw["env"], commit=_git_commit())
    with open(os.path.join(workdir, "result-trace%d.json" % traced), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    env = record["env"]
    print(
        "env: python %s, mpmath %s (backend %s), numpy %s, nproc %d, commit %s, seed %d"
        % (env["python"], env["mpmath"], env["mpmath_backend"], env["numpy"], env["nproc"], env["commit"], seed)
    )
    if env["mpmath_backend"] != "python":
        print("WARNING: mpmath backend is %r; the reference machine uses the pure-Python backend" % env["mpmath_backend"])
    for line in lines:
        print(line)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = [run_one(w, args.seed, args.seconds, bool(args.trace), deadline) for w in names]
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                "%s.%s" % (w, k): v for w, r in zip(names, results) for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
