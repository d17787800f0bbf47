import numpy as np
import pytest

from lyapstein import catalog, operators
from lyapstein.catalog import run_entry

EXPECTED_IDS = [
    "ex31", "remstein", "illus_st(a)", "illus_st(b)", "illus_lyst", "invlyo",
    "tilde-extension", "skewssteinorder2", "skewsstein1", "skewsstein2",
    "skewsstein3_n5", "skewsstein3_n6", "symstein",
]


class TestRegistry:
    def test_ids_complete(self):
        assert catalog.entry_ids() == EXPECTED_IDS

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_entry("no_such_entry")

    def test_entries_store_inputs_not_outputs(self):
        # every stored claim is re-derivable: spot-check that matrices are
        # square and checks carry only inputs/expected values
        doc = catalog.load_catalog()
        for entry in doc["entries"]:
            m = np.asarray(entry["matrix"])
            assert m.shape[0] == m.shape[1]
            for check in entry["checks"]:
                assert "type" in check


class TestEntries:
    @pytest.mark.parametrize("entry_id", ["remstein", "illus_st(a)", "symstein"])
    def test_selected_entries_pass(self, entry_id):
        report = run_entry(entry_id)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_check_failure_detected(self):
        # a deliberately wrong claim must fail, proving checks recompute
        op = operators.stein(np.array([[1.0, 0.0], [0.0, 2.0]]))
        bad = catalog._run_check(op, {"type": "in_kernel", "x": [[0.0, 1.0], [1.0, 0.0]]},
                                 catalog.DEFAULT_TOL, catalog.conefeas.DEFAULT_BUDGET, {})
        assert not bad.passed

    def test_tilde_extension_has_refuter_witness(self):
        report = run_entry("tilde-extension")
        assert report.passed
        kinds = {c.kind for c in report.checks}
        assert "range_verdict" in kinds


class TestTable:
    def test_reproduces(self):
        table = catalog.reproduce_table()
        answers = {row["matrix_class"]: (row["lyapunov"].answer, row["stein"].answer)
                   for row in table.rows}
        assert answers == {
            "square_is_minus_identity": ("yes", "yes"),
            "square_is_identity": ("no", "yes"),
            "skew_symmetric": ("yes", "yes_order2_no_higher"),
            "symmetric": ("no", "no"),
        }

    def test_no_cells_backed_by_entries(self):
        table = catalog.reproduce_table()
        for row in table.rows:
            for kind in ("lyapunov", "stein"):
                cell = row[kind]
                if cell.answer == "no":
                    assert cell.witness_entries

    def test_each_witness_entry_runs_once(self, monkeypatch):
        calls = []
        original = catalog.run_entry

        def counting(entry_id, *args, **kwargs):
            calls.append(entry_id)
            return original(entry_id, *args, **kwargs)

        monkeypatch.setattr(catalog, "run_entry", counting)
        catalog.reproduce_table()
        assert len(calls) == len(set(calls)) == 8
