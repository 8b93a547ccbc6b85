"""One fresh interpreter of the sdet benchmark; run.py starts it.

    python3 perfbench/worker.py {setup,measure,trace} WORKLOAD SEED SECONDS WORKDIR

setup    import sdet and build the inputs, and report how long that took.
measure  set up, time the first pass, then time warm passes (at least one)
         while the time spent on them, plus the last one's, stays within
         SECONDS; every pass is checked.
trace    set up, then run a traced pass, an untraced pass and a second
         traced pass; report per-layer metrics from the second traced pass,
         the tracing overhead, and whether counts and report bytes repeat.

Each role prints one JSON object as its last line of standard output.

Every timed region runs under a SpeedProbe, and each time is reported twice:
as measured (``*_raw_s``) and corrected for the host's speed at the moment.
The host's speed drifts by up to a factor of two within seconds, because
other guests share its cores; that is far more than the changes this
benchmark must resolve.  A timer interrupts the region every few hundredths
of a second to time a tiny fixed kernel of rational arithmetic that touches
no sdet code.
The region's time, less the probes' own, is scaled by the mean of
PROBE_REF_S / probe time: the time the region would take at the speed where
the probe takes PROBE_REF_S.  Over repeated passes this cut the spread of
pass times from 6-12% to under 2% on a shared two-vCPU Xeon VM.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_REF_S = 0.0001


def _probe_kernel():
    # rational arithmetic and a dict, the interpreter work sdet does most;
    # of the kernels tried it tracked pass times best
    total = Fraction(0)
    seen = {}
    for i in range(1, 25):
        total += Fraction(i, i + 3) * Fraction(3, i + 7)
        seen[i] = total.numerator & 0xFF
    return total


class SpeedProbe:
    """Times a region and samples the host's speed while it runs."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.elapsed = 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self):
        """Seconds at the reference speed (raw seconds if never sampled)."""
        if not self.samples:
            return self.elapsed
        work = self.elapsed - sum(self.samples)
        return work * statistics.fmean(PROBE_REF_S / d for d in self.samples)


PASS_PROBE_S = 0.05
SETUP_PROBE_S = 0.01

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _setup(workload_name, seed, workdir):
    """Import sdet and build the inputs: (sdet, workload, inputs)."""
    import sdet

    src = os.path.join(ROOT, "src", "sdet")
    if os.path.dirname(os.path.abspath(sdet.__file__)) != src:
        raise SystemExit("perfbench: sdet imported from %s, not %s" % (sdet.__file__, src))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    return sdet, workload, workload.build(seed, workdir)


def _environment():
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _timed_pass(workload, inputs):
    """(PassResult, SpeedProbe) for one pass."""
    with SpeedProbe(PASS_PROBE_S) as probe:
        result = workload.run_pass(inputs)
    return result, probe


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally(results):
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "digits": min(r.digits for r in results),
        "digest": results[0].digest,
        "digests_agree": len({r.digest for r in results}) == 1,
        "kinds": sorted(set().union(*(r.kinds for r in results))),
    }


def measure(workload, inputs, seconds):
    first, first_probe = _timed_pass(workload, inputs)
    results, warm, warm_raw = [first], [], []
    spent = last = 0.0
    while len(results) < 2 or spent + last <= seconds:
        result, probe = _timed_pass(workload, inputs)
        results.append(result)
        last = probe.elapsed
        spent += last
        # a pass that failed a check is never timed as a success
        if result.ok:
            warm.append(probe.corrected())
            warm_raw.append(probe.elapsed)
    out = _tally(results)
    out.update(
        {
            "first_pass_s": first_probe.corrected() if first.ok else None,
            "first_pass_raw_s": first_probe.elapsed,
            "warm_s": warm,
            "warm_raw_s": warm_raw,
            "peak_rss_mb": _peak_rss_mb(),
        }
    )
    return out


def trace(sdet, workload, inputs, spans_path):
    sys.path.insert(0, HERE)
    from tracer import COUNT_METRICS, Tracer

    tracer = Tracer(sdet)

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return _timed_pass(workload, inputs)
        finally:
            tracer.remove()

    cold, _ = traced_pass()
    cold_metrics = tracer.per_layer_metrics()
    plain, plain_probe = _timed_pass(workload, inputs)
    warm, warm_probe = traced_pass()
    metrics = tracer.per_layer_metrics()
    plain_s, warm_s = plain_probe.corrected(), warm_probe.corrected()

    mismatched = [k for k in COUNT_METRICS if cold_metrics[k] != metrics[k]]
    changed = sum(r.digest != plain.digest for r in (cold, warm))
    metrics.update(
        {
            "trace.overhead_s": warm_s - plain_s,
            "trace.unaccounted_frac": 1 - tracer.root_seconds() / warm_probe.elapsed,
            "trace.count_mismatches": len(mismatched),
            "trace.output_mismatches": changed,
            "trace.leftover_wrappers": tracer.leftover_wrappers(),
        }
    )
    with open(spans_path, "w", encoding="utf-8") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    out = _tally([cold, plain, warm])
    out.update(
        {
            "metrics": metrics,
            "mismatched_counts": mismatched,
            "traced_wall_s": warm_s,
            "untraced_wall_s": plain_s,
        }
    )
    return out


def main(argv):
    role, workload_name, seed, seconds, workdir = argv
    with SpeedProbe(SETUP_PROBE_S) as probe:
        sdet, workload, inputs = _setup(workload_name, int(seed), workdir)
    out = {"role": role, "setup_s": probe.corrected(), "setup_raw_s": probe.elapsed, "env": _environment()}
    if role == "measure":
        out.update(measure(workload, inputs, float(seconds)))
    elif role == "trace":
        out.update(trace(sdet, workload, inputs, os.path.join(workdir, "spans.jsonl")))
    elif role != "setup":
        raise SystemExit("perfbench: unknown role %r" % (role,))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
