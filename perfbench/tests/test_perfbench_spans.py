"""Span arithmetic and the layer wrappers."""

from spans import Tracer, install_layers, self_times


def snapshot(owners):
    """The own attributes of each owner, keyed by identity."""
    return {id(owner): dict(vars(owner)) for owner in owners}


def patched_owners(tracer):
    return list({id(owner): owner for owner, _, _ in tracer._patches}.values())


def test_self_time_subtracts_nested_children():
    # root [0, 100) > child [10, 60) > grandchild [20, 30)
    spans = [(0, 100, -1), (10, 60, 0), (20, 30, 1)]
    assert self_times(spans) == [50, 40, 10]


def test_self_time_subtracts_siblings_once_each():
    # root [0, 100) with siblings [10, 20) and [30, 60); a third child
    # overlapping the second is only subtracted where it adds cover.
    spans = [(0, 100, -1), (10, 20, 0), (30, 60, 0), (50, 70, 0)]
    assert self_times(spans)[0] == 100 - 10 - 40


def test_self_time_clips_children_to_the_parent():
    spans = [(10, 20, -1), (5, 15, 0)]
    assert self_times(spans)[0] == 5


def test_self_times_sum_to_the_root_duration():
    spans = [(0, 1000, -1), (100, 400, 0), (150, 200, 1), (500, 900, 0), (600, 650, 3)]
    assert sum(self_times(spans)) == 1000


def test_wrapper_records_parentage_counts_and_errors():
    tracer = Tracer("t")

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = tracer.wrap(leaf, "crypto.leaf", on_error="crypto.errors",
                        count=lambda counts, args, result: counts.update({"crypto.calls": 1}))
    outer = tracer.wrap(lambda: [inner(1), inner(2)], "net.outer")
    outer()
    try:
        inner(-1)
    except ValueError:
        pass
    names = [(name, parent) for name, _, _, parent in tracer.spans()]
    assert names == [("net.outer", -1), ("crypto.leaf", 0), ("crypto.leaf", 0),
                     ("crypto.leaf", -1)]
    assert tracer.counts["crypto.calls"] == 2
    assert tracer.counts["crypto.errors"] == 1
    assert tracer._stack == [-1] and tracer._layers == [""]


def test_nested_same_layer_calls_can_skip_or_only_count():
    tracer = Tracer("t")
    bump = lambda key: lambda counts, args, result: counts.update({key: 1})  # noqa: E731
    skipped = tracer.wrap(lambda: None, "crypto.inner", count=bump("inner"), nested="skip")
    counted = tracer.wrap(lambda: None, "crypto.counted", count=bump("counted"),
                          nested="count")
    outer = tracer.wrap(lambda: (skipped(), counted()), "crypto.outer")
    outer()
    assert [name for name, *_ in tracer.spans()] == ["crypto.outer"]
    assert tracer.counts["inner"] == 0 and tracer.counts["counted"] == 1


def test_install_and_uninstall_leave_wrapped_owners_identical():
    probe = Tracer("probe")
    install_layers(probe)
    owners = patched_owners(probe)
    probe.uninstall()
    assert owners, "nothing was wrapped"

    before = snapshot(owners)
    tracer = install_layers(Tracer("t"))
    assert snapshot(owners) != before
    tracer.uninstall()
    after = snapshot(owners)
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys()
        for attr, value in before[key].items():
            assert after[key][attr] is value, attr


def test_traced_run_keeps_the_output_and_counts_repeat():
    from repro.runtime import run_scenario
    import repro.runtime as runtime

    overrides = {"connections": 6}
    plain = run_scenario("quickstart", seed=3, overrides=overrides, use_cache=False)
    summaries = []
    for _ in range(2):
        tracer = install_layers(Tracer("t"))
        try:
            traced = runtime.run_scenario("quickstart", seed=3, overrides=overrides,
                                          use_cache=False)
        finally:
            tracer.uninstall()
        assert traced.canonical_bytes() == plain.canonical_bytes()
        summaries.append(tracer.summary())
    assert summaries[0]["counts"] == summaries[1]["counts"]
    counts = summaries[0]["counts"]
    assert counts["crypto.seal_calls"] > 0 and counts["net.events"] > 0
    root = summaries[0]["root_s"]
    assert abs(sum(summaries[0]["self_s"].values()) - root) < 1e-6
