"""wl01: latency-throughput curves of a served query mix, native vs SGX.

Regenerates the serving extension's load sweep; the rendered table lands
in ``benchmarks/results/wl01.txt``.
"""

LOADS = (0.4, 0.7, 0.9, 1.1, 1.3)


def test_wl01(run_figure):
    report = run_figure("wl01")
    for load in LOADS:
        # The enclave's longer service times cost tail latency and capacity.
        assert report.value("SGX p99", load) > report.value("native p99", load)
        assert report.value("SGX achieved QPS", load) <= report.value(
            "native achieved QPS", load
        )
    # Past its capacity the SGX setting plateaus while native keeps up.
    assert report.value("SGX achieved QPS", 1.3) < 0.6 * report.value(
        "native achieved QPS", 1.3
    )
