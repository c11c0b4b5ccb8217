import numpy as np
import pytest

import renewalops as ro
from renewalops.dual_ergodic import (
    dual_ergodic_report,
    norming_from_tail,
    return_distribution_from_operator,
    tail_model_from_operator,
)
from renewalops.errors import DomainError


class TestTailModelExtraction:
    def test_power_family_constant(self, lsv2_mid):
        tm = tail_model_from_operator(lsv2_mid)
        assert tm.beta == pytest.approx(0.5)
        # c = beta^beta h(1/2) / 4 with h(1/2) ~ 2.9 at alpha = 2
        assert 0.4 < tm.c < 0.6
        # tabulated correction is small relative to the leading power
        assert np.max(np.abs(tm.H(np.arange(10, 1000)))) < 0.5

    def test_log_family_model(self, lsv0_small):
        tm = tail_model_from_operator(lsv0_small)
        assert tm.ell is not None and tm.c > 0

    def test_norming_roundtrip(self, lsv2_mid):
        tm = tail_model_from_operator(lsv2_mid)
        nm = norming_from_tail(tm)
        assert nm.return_sequence(10**4) == pytest.approx(
            100.0 / (tm.c * np.pi / 2), rel=1e-12)


class TestReturnDistribution:
    def test_total_mass(self, lsv2_mid):
        dist = return_distribution_from_operator(lsv2_mid)
        assert dist.f.sum() + dist.tail_mass() == pytest.approx(1.0, abs=1e-12)

    def test_log_family_rejected(self, lsv0_small):
        with pytest.raises(DomainError):
            return_distribution_from_operator(lsv0_small)


class TestReport:
    def test_zero_observable(self, lsv2_small):
        rep = dual_ergodic_report(lsv2_small, np.zeros(lsv2_small.grid.m),
                                  [10, 30, 100])
        assert np.all(rep.sup_error == 0.0)

    def test_sup_error_decreases(self, lsv2_mid):
        rep = dual_ergodic_report(lsv2_mid, np.ones(lsv2_mid.grid.m),
                                  [100, 300, 1000])
        assert rep.sup_error[0] > rep.sup_error[1] > rep.sup_error[2]

    @pytest.mark.parametrize("ns", [[], [0]], ids=["empty", "zero"])
    def test_report_times_rejected(self, lsv2_small, ns):
        with pytest.raises(DomainError, match="at least one"):
            dual_ergodic_report(lsv2_small, np.ones(lsv2_small.grid.m), ns)

    def test_rows_schema(self, lsv2_small):
        rep = dual_ergodic_report(lsv2_small, np.ones(lsv2_small.grid.m), [10, 100])
        rows = rep.rows()
        assert {"n", "a_n", "sup_error", "error_bar"} <= set(rows[0])

    @pytest.mark.slow
    def test_higher_order_residual_slope(self):
        # after removing the full expansion, what is left grows slower than
        # n^0.25 across two decades
        spec = ro.MapSpec("lsv", alpha=4.0 / 3.0)
        op = ro.assemble_operator(spec, ro.Grid(512), n_trunc=10**4, j_direct=512)
        ns = np.unique(np.round(np.logspace(2, 4, 13)).astype(int)).tolist()
        rep = dual_ergodic_report(op, np.ones(512), ns)
        assert rep.residual_fit is not None
        assert rep.residual_fit.slope < 0.25
