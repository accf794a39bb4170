import pytest

from pi1lab.report import FAIL, PASS, ProbeReport, report_digits
from pi1lab.spaces import compact_y, verify_disjointness

GOLDEN = """\
== probe: circle-pairwise-disjointness ==
claim: distinct circles of the bouquet meet exactly at the base point
param: space = Y
param: width_profile = pow10
param: up_to = 3
param: pairs_checked = 1
verdict: PASS
"""


class TestRender:
    def test_golden_disjointness(self):
        rep = verify_disjointness(compact_y(hint=4), 3)
        assert rep.render() == GOLDEN

    def test_fail_requires_witness(self):
        """Witnesses make a FAIL and none a PASS; the verdict line says so."""
        rep = ProbeReport(probe="x", claim="c")
        assert rep.verdict == PASS and rep.render().endswith("verdict: PASS\n")
        rep = ProbeReport(probe="x", claim="c", witnesses=((("n", "3"),),))
        assert rep.verdict == FAIL and rep.render().endswith("verdict: FAIL\n")

    def test_witness_block_lines(self):
        rep = ProbeReport(
            probe="x",
            claim="c",
            witnesses=((("n", "3"), ("reason", "gap")),),
        )
        text = rep.render()
        assert "witness[0]:" in text and "  n: 3" in text and "  reason: gap" in text
        assert text.endswith("verdict: FAIL\n")


class TestDigitsEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("PI1LAB_DIGITS", raising=False)
        assert report_digits() == 40

    def test_override(self, monkeypatch):
        monkeypatch.setenv("PI1LAB_DIGITS", "12")
        assert report_digits() == 12

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("PI1LAB_DIGITS", "zero")
        with pytest.raises(ValueError):
            report_digits()
        monkeypatch.setenv("PI1LAB_DIGITS", "0")
        with pytest.raises(ValueError):
            report_digits()

    def test_digits_flow_into_tables(self, monkeypatch):
        from pi1lab.spaces import hausdorff_convergence

        monkeypatch.setenv("PI1LAB_DIGITS", "8")
        rep = hausdorff_convergence(compact_y(hint=4), 3)
        assert "d_dec(8)" in rep.render()
        row = rep.table_rows[0]
        assert len(row[2].split(".")[1]) == 8
