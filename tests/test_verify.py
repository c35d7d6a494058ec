"""The exhaustive per-class agreement harness."""

import pytest

from clutterkit.verify import verify_theorem


class TestVerifyTheorem:
    def test_three_vertices(self):
        report = verify_theorem(3)
        assert report.consistent
        assert len(report.rows) == 3
        assert report.satisfying == 3
        assert {row.label for row in report.rows} == {"K2", "P3", "K3"}

    def test_four_vertices(self):
        report = verify_theorem(4)
        assert report.consistent
        assert len(report.rows) == 10
        assert (report.satisfying, report.failing) == (6, 4)
        good = {row.label for row in report.rows if row.classified}
        assert good == {"K2", "K3", "P3", "2K2", "P4", "C4"}

    def test_simis_degrees_agree_per_row(self):
        report = verify_theorem(4, k_list=(2, 3))
        for row in report.rows:
            assert row.simis[2] == row.simis[3]

    def test_six_vertex_degree_sweep(self):
        # any single degree >= 2 is decisive for this family: every class
        # gives its k = 2 answer at each k = 2..10
        report = verify_theorem(6, k_list=tuple(range(2, 11)), box=0)
        assert report.consistent
        assert (len(report.rows), report.satisfying) == (155, 6)
        for row in report.rows:
            assert set(row.simis.values()) == {row.simis[2]}, row.graph

    def test_scan_disabled(self):
        report = verify_theorem(3, box=0)
        assert report.consistent
        assert all(row.gap_free is None for row in report.rows)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_theorem(2)
        with pytest.raises(ValueError):
            verify_theorem(8)

    def test_empty_k_list_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem(3, k_list=())

    def test_degree_below_one_rejected_before_enumeration(self, monkeypatch):
        def enumerate_graphs(*args, **kwargs):
            raise AssertionError("enumerated before checking k_list")

        monkeypatch.setattr("clutterkit.verify.enumerate_graphs_upto_iso", enumerate_graphs)
        for k_list in ((0,), (2, 0), (3, -1)):
            with pytest.raises(ValueError, match="k_list entries must be >= 1"):
                verify_theorem(7, k_list=k_list)

    def test_csv_shape(self):
        report = verify_theorem(3)
        rows = report.csv_rows()
        assert rows[0][:3] == ["label", "isolated", "edges"]
        assert len(rows) == 1 + len(report.rows)

    def test_json_deterministic(self):
        a = verify_theorem(3).to_json_dict()
        b = verify_theorem(3).to_json_dict()
        assert a == b
