"""Benchmark of seeded `brpic-kit verify` suites, end to end and per layer.

    python3 perfbench/run.py --workload axioms-z2z2 --seed 1 --seconds 38 --trace 0

Runs from the root of a source checkout and imports brpickit from its
``src``.  One caller in one process runs instances back to back (a closed
loop).  Every instance's verdict is checked against its known answer and
against `brpic-kit verify --json` for the same spec, seed and count.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same instances
untraced and then traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_DIR = ROOT / ".bench_build" / "perfbench"
SETUPS = 3
CALIBRATION_LOOPS = 10000
# host_probe()'s time on a 2-vCPU KVM guest of an Intel Xeon (family 6,
# model 207) at its usual speed.  Reported times are scaled to a host that
# runs the probe this fast.
PROBE_REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.1


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile of ``samples``.

    A mean of all order statistics weighted by Beta(p(n+1), (1-p)(n+1)),
    which is much steadier than one order statistic when each instance's
    time carries noise from the host.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_rank(n):
    """(percentile, samples beyond it) of the highest percentile of ``n``
    samples with at least ten beyond it.  Ten samples or fewer have no such
    percentile; they get the highest with one beyond."""
    if n == 0:
        return 0.0, 0
    beyond = 10 if n > 10 else min(1, n - 1)
    return 100.0 * (n - beyond) / n, beyond


def tail(samples):
    """Returns (value, percentile, samples beyond) of the tail_rank
    percentile of ``samples``."""
    pct, beyond = tail_rank(len(samples))
    return quantile(samples, pct / 100), pct, beyond


def mul_rates(cyclo):
    """Scalar multiplications per second at conductors 1, 4 and 8."""
    C = cyclo.CycloScalar
    rates = {}
    for N in (1, 4, 8):
        a = C.from_rational(Fraction(3, 7), N) + C.root_of_unity(N)
        b = C.from_rational(Fraction(-2, 5), N) + C.root_of_unity(N, N - 1)
        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            a * b
        rates[f"cyclo.mul_rate.N{N}"] = \
            CALIBRATION_LOOPS / (time.perf_counter() - start)
    return rates


def host_probe():
    """Seconds one fixed loop of Fraction, dict and sort work takes.

    It uses only the standard library, so no change to brpickit moves it;
    it tracks how fast the shared host runs pure Python at the moment.
    """
    start = time.perf_counter()
    acc, x = Fraction(0), Fraction(1, 3)
    for i in range(200):
        acc = (acc + x * Fraction(i % 7 + 1, 5)) % 11
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted((i * 7919) % 1009 for i in range(1500))
    return time.perf_counter() - start


class HostSampler:
    """Runs host_probe() every SAMPLE_EVERY_S of wall time, from a SIGALRM
    handler, while the ``with`` block runs.

    The shared host's speed drifts by up to 1.8x over seconds to tens of
    seconds.  ``correct`` takes out of a step's measured time the probes
    that ran inside it, and scales the rest by PROBE_REFERENCE_S over the
    mean of those probes: the time the step would take on a host that runs
    the probe in PROBE_REFERENCE_S."""

    def __init__(self):
        self.samples = []  # (perf_counter at its start, seconds, probe)
        self._old = None

    def _probe(self, signum=None, frame=None):
        start = time.perf_counter()
        probe = host_probe()
        self.samples.append((start, time.perf_counter() - start, probe))

    def __enter__(self):
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def correct(self, start, seconds):
        """(seconds without the probes, that time scaled) for a step that
        started at perf_counter() ``start`` and took ``seconds``.  A step
        too short to hold a probe takes the nearest one."""
        inside = [x for x in self.samples
                  if start <= x[0] <= start + seconds]
        probes = ([p for _, _, p in inside] or
                  [min(self.samples, key=lambda x: abs(x[0] - start))[2]])
        own = seconds - sum(spent for _, spent, _ in inside)
        return own, own * PROBE_REFERENCE_S / statistics.mean(probes)


@dataclass
class Result:
    seed: int
    seconds: float
    checks: list = None
    records: list = None
    known_ok: bool = False
    error: str = None
    start: float = 0.0  # perf_counter() when the instance started

    @property
    def ok(self):
        return self.error is None and self.known_ok


def run_instance(workload, lib, module, alphas, seed, tracer=None):
    rng = random.Random(seed)
    span = tracer.span("instance") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            checks, records, known_ok = workload.instance(lib, module,
                                                          alphas, rng)
    except Exception:  # a raising instance is a failed one
        return Result(seed, time.perf_counter() - start,
                      error=traceback.format_exc(), start=start)
    return Result(seed, time.perf_counter() - start, checks, records,
                  known_ok, start=start)


def rounds(workload, seconds):
    """The most rounds of instances that fit in ``seconds`` after SETUPS
    set-ups, at least one."""
    instances_s = seconds - SETUPS * workload.setup_cost_s
    return max(1, math.floor(instances_s / workload.round_s))


def cli_mismatches(workload, lib, module, results):
    """Compares the quickest instance of each round with what
    `brpic-kit verify <suite> --seed s --count 1 --json` prints.

    Returns (seeds compared, seeds whose reports differ).
    """
    SPEC_DIR.mkdir(parents=True, exist_ok=True)
    spec_path = SPEC_DIR / f"{workload.name}.json"
    spec_path.write_text(json.dumps(workload.spec))
    size = sum(workload.quotas.values())
    compared = [min(ok, key=lambda r: r.seconds)
                for ok in ([r for r in results[i:i + size] if r.error is None]
                           for i in range(0, len(results), size)) if ok]
    bad = []
    for r in compared:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                lib.cli.main(["verify", workload.suite, "--spec",
                              str(spec_path), "--seed", str(r.seed),
                              "--count", "1", "--json"])
        except Exception:  # a raising CLI is a mismatch
            print(f"perfbench: CLI raised on seed {r.seed}\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
        if out.getvalue() != wl.report_json(workload, module, r.seed,
                                            r.checks, r.records):
            bad.append(r.seed)
    return [r.seed for r in compared], bad


def untraced_run(workload, seed, seconds):
    """SETUPS set-ups, each on a fresh import of brpickit as a new
    `brpic-kit` process would make it, then every planned instance once on
    the last of them.  Everything runs under a HostSampler, and every
    reported time is scaled to the reference host.

    The instances are planned on the first set-up, so that the caches
    planning fills are gone by the time they run."""
    setups = []
    with HostSampler() as host:
        for k in range(SETUPS):
            gc.collect()
            start = time.perf_counter()
            lib, module, alphas = wl.setup(workload)
            setups.append((start, time.perf_counter() - start))
            if k == 0:
                rates = mul_rates(lib.cyclo)
                seeds = [s for s, _ in wl.plan(
                    workload, seed, rounds(workload, seconds), lib, module,
                    alphas)]
        results = [run_instance(workload, lib, module, alphas, s)
                   for s in seeds]
    compared, bad = cli_mismatches(workload, lib, module, results)
    failed = [r for r in results if not r.ok or r.seed in bad]
    setup_s = [host.correct(*st) for st in setups]
    times = [host.correct(r.start, r.seconds) for r in results
             if r.ok and r.seed not in bad]
    metrics = end_to_end([t for _, t in times], [t for _, t in setup_s]) | {
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pct, beyond = tail_rank(len(times))
    info = {"verdict_tail_percentile": pct, "verdict_tail_beyond": beyond,
            "samples": len(times),
            "host_probe_s": statistics.median(p for _, _, p in host.samples),
            "unscaled": end_to_end([t for t, _ in times],
                                   [t for t, _ in setup_s]),
            "setup_samples_s": [t for _, t in setup_s],
            "cli_compared": compared, "cli_mismatches": bad} | rates
    return results, failed, metrics, info


def end_to_end(times, setup_times):
    """The timed end-to-end metrics from instance and set-up times."""
    return {
        "instances_per_s": len(times) / sum(times) if times else 0.0,
        "verdict_p50_s": quantile(times, 0.5) if times else 0.0,
        "verdict_tail_s": tail(times)[0] if times else 0.0,
        "setup_s": statistics.median(setup_times),
    }


def traced_run(workload, seed, seconds):
    """One untraced and one traced pass over the instances of an untraced
    run, each on a fresh set-up."""
    lib, module, alphas = wl.setup(workload)
    rates = mul_rates(lib.cyclo)
    seeds = wl.plan(workload, seed, rounds(workload, seconds), lib, module,
                    alphas)
    lib, module, alphas = wl.setup(workload)
    plain = [run_instance(workload, lib, module, alphas, s)
             for s, _ in seeds]

    tracer = tr.Tracer()
    lib = wl.fresh_import()
    saved = tr.install(tracer, lib)
    try:
        with tracer.span("setup"):
            lib, module, alphas = wl.setup(workload, lib)
        traced = [run_instance(workload, lib, module, alphas, s, tracer)
                  for s, _ in seeds]
    finally:
        not_restored = tr.uninstall(saved)

    compared, bad = cli_mismatches(workload, lib, module, plain)
    failed = [p for p, t in zip(plain, traced)
              if not (p.ok and t.ok) or p.seed in bad
              or (p.checks, p.records) != (t.checks, t.records)]
    rate_plain = len(plain) / sum(r.seconds for r in plain)
    rate_traced = len(traced) / sum(r.seconds for r in traced)
    metrics = tr.layer_metrics(tracer, len(traced)) | rates | {
        "trace.instances_per_s.untraced": rate_plain,
        "trace.instances_per_s.traced": rate_traced,
        "trace.overhead": rate_plain / rate_traced,
    }
    info = {"instances": len(seeds), "kept_spans": len(tracer.spans),
            "not_restored": not_restored, "cli_compared": compared,
            "cli_mismatches": bad}
    if not_restored:
        failed = plain
    return plain, failed, metrics, info


def metric_units(trace):
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "brpickit" / "__init__.py").is_file():
        print(f"perfbench: no brpickit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = metric_units(args.trace)
    workload = wl.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    results, failed, metrics, info = run(workload, args.seed, args.seconds)
    for r in failed:
        print(f"failed instance seed {r.seed}: {r.error or 'wrong verdict'}",
              file=sys.stderr)
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2
    info = {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, "failed_share": len(failed) / len(results)
            } | info
    print(json.dumps(info, sort_keys=True))
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed, "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
