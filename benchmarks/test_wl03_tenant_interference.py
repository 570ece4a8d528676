"""wl03: tenant interference, an analytics tenant vs an interactive one.

Regenerates the multi-tenant serving extension; the rendered table lands
in ``benchmarks/results/wl03.txt``.
"""


def test_wl03(run_figure):
    report = run_figure("wl03")
    native = report.value("native tenant-A p99 inflation", "shared")
    sgx = report.value("SGX tenant-A p99 inflation", "shared")
    assert native >= 1.0
    assert sgx > native  # enclave joins hold the cores longer
