"""wl02: admission-policy ablation under a constrained EPC budget.

Regenerates the admission extension of Fig. 11; the rendered table lands
in ``benchmarks/results/wl02.txt``.
"""


def test_wl02(run_figure):
    report = run_figure("wl02")
    fifo = report.value("fifo p99", "latency")
    aware = report.value("epc-aware p99", "latency")
    assert aware < fifo  # holding joins back avoids the EDMM penalty
    assert report.value("fifo EDMM admissions", "latency") > 0
    assert report.value("epc-aware EDMM admissions", "latency") == 0
    # The bypass lane frees the interactive scans from blocked joins.
    assert report.value("epc-aware+bypass scan p99", "latency") < report.value(
        "epc-aware scan p99", "latency"
    )
