"""Fast self-test of the benchmark harness on qubits3 and a few seeded small
problems.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def nc():
    return run.import_nullcone()


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


@pytest.fixture(scope="module")
def small_keys(expected):
    cheapest = sorted(expected["random"], key=lambda e: e["verify_s"])[:4]
    return ["file:qubits3.json", "spec:g2-adjoint"] + [
        f"random:{e['seed']}" for e in cheapest]


def _items(nc, keys):
    return [(key, run.load(nc, key)) for key in keys]


def test_recorded_outputs_pass_their_checks(nc, expected, small_keys):
    op, check = run.make_op(nc, "small-batch", expected)
    result = run.run_pass(_items(nc, small_keys), op, check)
    assert result.failures == []
    assert len(result.times) == len(small_keys)


def test_checks_catch_changed_bytes_and_counts(nc, expected):
    op, check = run.make_op(nc, "small-batch", expected)
    summary, text, json_text = op(run.load(nc, "file:qubits3.json"))
    assert check("file:qubits3.json", (summary, text + " ", json_text)) == [
        "file:qubits3.json: text report bytes differ from the record"]
    # qubits3's output checked against qubits4's record and pinned answer
    wrong = check("file:qubits4.json", (summary, text, json_text))
    assert len(wrong) == 3
    assert "8 candidates / 5 strata, expected 34 / 30" in wrong[-1]


def test_verify_op_agrees_with_the_oracle(nc, expected, small_keys):
    op, check = run.make_op(nc, "verify", expected)
    result = run.run_pass(_items(nc, small_keys[2:]), op, check)
    assert result.failed == 0


def test_traced_counters_repeat_and_wrappers_come_off(nc, expected):
    def wrapped_objects():
        out = []
        for name, _, namespaces in tracing.WRAPPED:
            for namespace in namespaces:
                module_name, _, class_name = namespace.partition(".")
                owner = getattr(nc, module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                out.append(owner.__dict__[name])
        return out

    before = wrapped_objects()
    items = _items(nc, ["file:qubits3.json"])
    op, check = run.make_op(nc, "small-batch", expected)
    tracer = tracing.Tracer()
    tracer.install()
    counters = []
    try:
        for _ in range(2):
            tracer.reset()
            assert run.run_pass(items, op, check, tracer).failed == 0
            counters.append(tracer.counters())
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(wrapped_objects(), before))
    first = counters[0]
    assert counters[1] == first
    assert first["candidates.kept"] == 8
    assert first["candidates.subsets.tried"] >= first["candidates.distinct_l"] >= 8
    assert first["ratgeom.perp.calls"] > 0 and first["ratgeom.inner.calls"] > 0
    assert first["engine.tree.nodes"] >= 8
    assert first["oracle.naive.subsets"] == 0
    timings = tracer.timings()
    assert timings["engine.tree_s"] > 0
    assert sum(timings[f"{layer}.self_s"] for layer in tracing.LAYERS) > 0
    assert run.counter_drift(counters) == ["", ""]
    moved = dict(first, **{"ratgeom.perp.calls": first["ratgeom.perp.calls"] + 1})
    assert run.counter_drift([first, first, moved]) == [
        "", "", "traced pass 2: counts differ from the first traced pass: ratgeom.perp.calls"]


def test_latency_takes_each_problems_mean_op():
    times = [[3.0, 1.0, 9.0, 2.0], [5.0, 4.0, 7.0, 2.0]]
    means = run.mean_times(["a", "b", "a", "c"], times)
    assert means == {"a": 6.0, "b": 2.5, "c": 2.0}
    assert run.latency(list(means.values())) == {
        "p50": 2.5, "tail": 6.0, "tail_percentile": 100.0, "samples": 3}
    lat = run.latency([float(i) for i in range(30)])
    assert lat["samples"] == 30
    assert lat["tail"] == 19.0  # ten samples, 20..29, lie beyond it
    assert lat["tail_percentile"] == pytest.approx(66.67)


def test_selection_is_one_problem_per_cost_bin_ordered_by_seed(expected):
    first = run.select("small-batch", 1, expected)
    assert first == run.select("small-batch", 1, expected)
    # the problems are drawn once; the seed only orders them
    second = run.select("small-batch", 2, expected)
    assert first != second and sorted(first) == sorted(second)
    assert len(set(first)) == len(first) == run.BINS + len(run.CATALOG_SPECS) + 1
    verify = run.select("verify", 3, expected)
    assert all(key.startswith("random:") for key in verify)
    assert len(set(verify)) == len(verify) == run.BINS
    other = run.select("verify", 4, expected)
    assert other != verify and sorted(other) == sorted(verify)
    # one problem from the costliest bin of those under the cap
    pool = sorted((e for e in expected["random"] if e["verify_s"] <= run.VERIFY_MAX_S),
                  key=lambda e: (e["verify_s"], e["seed"]))
    top = {f"random:{e['seed']}" for e in pool[-len(pool) // run.BINS:]}
    assert len(top & set(verify)) == 1


def test_untraced_pass_repeats_each_problem_by_its_recorded_cost(expected):
    keys = run.select("small-batch", 1, expected)
    ops = run.repeated("small-batch", 1, keys, expected)
    assert ops == run.repeated("small-batch", 1, keys, expected)
    assert ops != run.repeated("small-batch", 2, keys, expected)
    counts = {key: ops.count(key) for key in keys}
    assert sum(counts.values()) == len(ops)
    assert counts["spec:sl3-forms:6"] == 1
    assert counts["spec:adjoint:a1"] == run.MAX_REPEATS
    for key in keys:
        cost = run.recorded_op_s("small-batch", key, expected)
        assert counts[key] == min(run.MAX_REPEATS, run.math.ceil(run.REPEAT_S / cost))
    verify = run.select("verify", 1, expected)
    assert (run.recorded_op_s("verify", verify[0], expected)
            != run.recorded_op_s("small-batch", verify[0], expected))


def test_setup_timer_spreads_its_runs_and_reserves_their_time(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "time_setup", lambda workload, seed: calls.append(seed) or 0.5)
    # chunks at twice the reference speed: a fast host, so set-up scales up
    monkeypatch.setattr(run.hostclock, "timed_chunks",
                        lambda count: [hostclock.REF_CHUNK_S / 2] * count)
    timer = run.SetupTimer("qubits4", 7, started=run.time.perf_counter(), seconds=3600)
    timer.due()
    assert calls == [7]  # one at the start, the others as the run goes on
    assert timer.reserve() == pytest.approx((run.SETUP_RUNS - 1) * timer.walls[0])
    assert timer.finish() == [1.0] * run.SETUP_RUNS and timer.reserve() == 0
    assert timer.wall_runs == [0.5] * run.SETUP_RUNS


def test_setup_is_timed_in_a_fresh_process():
    assert 0 < run.time_setup("qubits4", 0) < 30


def test_host_clock_takes_out_its_chunks_and_scales_by_their_speed():
    clock = hostclock.HostClock()
    ref = hostclock.REF_CHUNK_S
    # chunks at half the reference speed, two of them inside the op
    clock.chunks = [(t, t + 2 * ref) for t in (0.5, 1.2, 1.5, 9.0)]
    assert clock.mean_chunk(1.0, 2.0) == pytest.approx(2 * ref)
    assert clock.scaled(1.0, 2.0) == pytest.approx((1.0 - 4 * ref) / 2)
    # no chunk within the window: the mean of all of them
    assert clock.mean_chunk(20.0, 21.0) == pytest.approx(2 * ref)


def test_host_clock_runs_chunks_between_bytecodes_and_stops():
    import signal

    clock = hostclock.HostClock()
    clock.start()
    try:
        t0 = run.time.perf_counter()
        while run.time.perf_counter() - t0 < 4 * hostclock.PERIOD_S:
            sum(range(1000))
        with clock.paused():
            held = len(clock.chunks)
            run.time.sleep(2 * hostclock.PERIOD_S)
            assert len(clock.chunks) == held
        assert clock.running
    finally:
        clock.stop()
    assert held >= 2
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
