"""Tests for the markdown report builder."""

from pathlib import Path

import pytest

from repro.experiments.report import NOTES_HEADING, SECTIONS, build_markdown_report, with_notes


@pytest.fixture(scope="module")
def report_text():
    # fast numeric settings; ablations skipped to keep the module quick
    return build_markdown_report(
        include_ablations=False,
        fig7_kwargs={"max_nnz": 8_000, "epochs": 8, "k": 8},
    )


class TestReport:
    def test_every_section_present(self, report_text):
        for heading in (
            "Figure 3(a)", "Figure 3(b)", "Table 2", "Figure 5", "Figure 6",
            "Figure 7", "Table 4", "Figure 8", "Table 5", "Figure 9", "Table 6",
        ):
            assert heading in report_text, heading

    def test_paper_anchor_values_present(self, report_text):
        # spot-check that paper-reported numbers appear alongside measured
        assert "2.30x" in report_text or "2.3" in report_text  # fig7 speedup
        assert "86%" in report_text                             # table4 util
        assert "0.559" in report_text                           # table6

    def test_shape_verdicts_rendered(self, report_text):
        assert report_text.count("**Holds") >= 8

    def test_markdown_tables_well_formed(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|") and not line.startswith("|--"):
                assert line.rstrip().endswith("|"), line

    def test_ablations_toggle(self, report_text):
        assert "Ablations and extensions" not in report_text

    def test_section_registry(self):
        assert list(SECTIONS) == [
            "fig3", "table2", "fig5-6", "fig7", "table4",
            "fig8", "table5", "fig9", "table6",
        ]


class TestNotesSplice:
    GENERATED = "# EXPERIMENTS\n\n## Table 2\n\nnew numbers\n\n"

    def test_report_ends_before_the_notes(self, report_text):
        assert NOTES_HEADING not in report_text

    def test_notes_are_kept_byte_for_byte(self):
        notes = f"{NOTES_HEADING} (host)\r\n\n### A\n\n| x |  \n\ttrailing  \n"
        current = "# EXPERIMENTS\n\n## Table 2\n\nold numbers\n\n" + notes
        assert with_notes(self.GENERATED, current) == self.GENERATED + notes

    def test_a_heading_not_at_a_line_start_is_text(self):
        current = f"see `{NOTES_HEADING}` below\n"
        assert with_notes(self.GENERATED, current) == self.GENERATED

    def test_no_current_file_keeps_nothing(self):
        assert with_notes(self.GENERATED, "") == self.GENERATED

    def test_the_repository_file_splits_at_its_notes(self):
        text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
        kept = with_notes("", text)
        assert kept.startswith(NOTES_HEADING)
        assert text.endswith(kept)
        assert kept.count("\n### ") >= 7
