"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import signal
import sys
import time
from pathlib import Path

import run
import tracer as tr
import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        clock.now += 3.0
        leaf_w()

    leaf_w = t.wrap("cyclo.leaf", leaf)
    middle_w = t.wrap("layer.middle", middle)
    with t.span("instance"):
        clock.now += 0.5
        middle_w()

    assert t.calls == {"cyclo.leaf": 2, "layer.middle": 1, "instance": 1}
    assert t.self_s["cyclo.leaf"] == 4.0
    assert t.self_s["layer.middle"] == 4.0
    assert t.self_s["instance"] == 0.5
    # Scalar-layer spans are counted, not kept; the others keep their parent.
    assert t.spans == [(1, "layer.middle", 0.5, 8.5, 0),
                       (0, "instance", 0.0, 8.5, None)]
    assert not t.open


def test_self_time_survives_a_raising_call():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("no")

    boom_w = t.wrap("layer.boom", boom)
    with t.span("instance"):
        try:
            boom_w()
        except ValueError:
            pass
        clock.now += 2.0
    assert t.self_s == {"layer.boom": 1.0, "instance": 2.0}
    assert not t.open


def test_quantile_weights_order_statistics_around_p():
    assert abs(run.quantile([2.5] * 7, 0.3) - 2.5) < 1e-9
    ramp = [float(i) for i in range(1, 41)]
    for p in (0.5, 0.75, 0.9):
        # For 1..n the Harrell-Davis estimate is n*p + 1/2.
        assert abs(run.quantile(ramp[::-1], p) - (40 * p + 0.5)) < 0.01


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (pct, beyond) == (75.0, 10)
    assert abs(value - 30.5) < 0.01
    assert run.tail([float(i) for i in range(20)])[1:] == (50.0, 10)


def test_tail_of_ten_or_fewer_has_one_beyond():
    assert run.tail([3.0, 1.0, 2.0, 4.0])[1:] == (75.0, 1)
    assert run.tail([float(i) for i in range(10)])[1:] == (90.0, 1)
    assert run.tail([5.0]) == (5.0, 100.0, 0)


def test_wrappers_are_removed_after_a_traced_run():
    lib = wl.fresh_import()
    before = {}
    for module, cls, attr, _ in tr.LAYER_FUNCTIONS:
        owner = getattr(lib, module)
        owner = getattr(owner, cls) if cls else owner
        before[(module, cls, attr)] = (owner, vars(owner)[attr])

    t = tr.Tracer()
    saved = tr.install(t, lib)
    try:
        module = lib.cli.parse_module({"group": [4], "u": [2], "V": [[1]]})
        z = lib.cyclo.CycloScalar.root_of_unity(4)
        z * z + 1
        lib.abelian.add(module.u, module.u)
    finally:
        not_restored = tr.uninstall(saved)

    assert not_restored == []
    for (module, cls, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is original, (module, cls, attr)
    assert t.calls["cli.parse_module"] == 1
    assert t.calls["cyclo.mul"] >= 1 and t.calls["cyclo.add"] >= 1
    assert t.calls["abelian.add"] >= 1


def test_plan_fills_each_quota_once_per_round():
    lib = wl.fresh_import()
    w = wl.WORKLOADS["cotensor-z2z4"]
    _, module, alphas = wl.setup(w, lib)
    planned = wl.plan(w, 7, 2, lib, module, alphas)
    counts = {}
    for _, cls in planned:
        counts[cls] = counts.get(cls, 0) + 1
    assert counts == {cls: 2 * q for cls, q in w.quotas.items()}
    assert len({s for s, _ in planned}) == len(planned)
    assert planned == wl.plan(w, 7, 2, lib, module, alphas)


def test_host_sampler_takes_out_probes_and_scales_by_their_mean():
    ref = run.PROBE_REFERENCE_S
    host = run.HostSampler()
    host.samples = [(0.0, 0.01, ref), (1.0, 0.1, 2 * ref),
                    (2.0, 0.1, 4 * ref), (5.0, 0.01, ref)]
    # a step from 0.5 s to 3.5 s holds the probes at 1 s and 2 s, which ran
    # three times as slow as the reference
    own, scaled = host.correct(0.5, 3.0)
    assert abs(own - 2.8) < 1e-12 and abs(scaled - 2.8 / 3) < 1e-12
    # a step holding no probe takes the nearest one
    assert host.correct(4.8, 0.1) == (0.1, 0.1)


def test_host_sampler_probes_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.HostSampler() as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
    assert len(host.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
