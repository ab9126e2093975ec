"""The percentile helper, the pinned-digest check and the speed factor."""

import pytest

import benchstats
import pins


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile(list(range(99)), 90)   # rank 90: 9 beyond
    assert benchstats.percentile(list(range(100)), 90) == 89   # 10 beyond
    with pytest.raises(benchstats.TooFewSamples):
        benchstats.percentile([1.0] * 5, 50)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 201)]
    assert benchstats.percentile(values, 50) == 100.0
    assert benchstats.percentile(values, 90) == 180.0


def test_spread_reports_quartiles_and_share():
    s = benchstats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["min"] == 1.0 and s["max"] == 5.0
    assert s["iqr_share"] == pytest.approx((s["q3"] - s["q1"]) / 3.0)


def test_digest_check_fails_on_one_tampered_byte():
    from repro.runtime import JobSpec, execute_job

    job = execute_job(JobSpec(scenario="quickstart", seeds=(0,), use_cache=False))
    data = job.canonical_bytes()
    assert pins.verify("service", 0, pins.digest(data))
    tampered = bytearray(data)
    tampered[len(tampered) // 2] ^= 0x01
    assert not pins.verify("service", 0, pins.digest(bytes(tampered)))
    assert not pins.verify("service", 99999, pins.digest(data))


def test_every_workload_pins_the_default_and_held_out_seed():
    table = pins.load()
    for name in pins.SCENARIO_WORKLOADS:
        assert set(table[name]) == {str(s) for s in pins.SCENARIO_SEEDS}
    assert set(table["service"]) == {str(s) for s in pins.SERVICE_SEEDS}


def test_benchmark_json_names_every_reported_metric():
    import json
    import os

    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_speed_factor_uses_the_samples_within_the_phase():
    import speed

    nominal = speed.NOMINAL_KERNEL_S
    # Kernel twice as slow during [1, 2] as elsewhere.
    samples = [(t / 10, nominal * (2.0 if 10 <= t <= 20 else 1.0)) for t in range(31)]
    slow = 0.5 ** speed.ELASTICITY
    assert speed.factor_between(samples, 1.0, 2.0) == pytest.approx(slow)
    assert speed.factor_between(samples, 2.05, 3.0) == pytest.approx(1.0)
    # A phase shorter than a probe period widens to the nearest samples.
    assert speed.factor_between(samples, 1.52, 1.53) == pytest.approx(slow)
