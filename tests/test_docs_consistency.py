"""Guard rails keeping the documentation in sync with the code."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (REPO / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def readme_text():
    return (REPO / "README.md").read_text()


class TestDesignInventory:
    def test_every_module_listed(self, design_text):
        """DESIGN.md's system inventory must name every source module."""
        missing = []
        for path in (REPO / "src" / "repro").rglob("*.py"):
            name = path.name
            if name in ("__init__.py", "__main__.py"):
                continue
            if name not in design_text:
                missing.append(str(path.relative_to(REPO)))
        assert not missing, f"modules absent from DESIGN.md: {missing}"

    def test_every_experiment_indexed(self, design_text):
        from repro.experiments.figures import ALL_EXPERIMENTS

        for exp_id in ALL_EXPERIMENTS:
            if exp_id in ("fig5", "fig6"):  # indexed jointly as Fig. 5/6
                continue
            token = exp_id.replace("fig", "Fig. ").replace("table", "Table ")
            assert token in design_text, f"{exp_id} missing from DESIGN.md"

    def test_every_ablation_indexed(self, design_text):
        from repro.experiments.ablations import ALL_ABLATIONS

        for ab_id in ALL_ABLATIONS:
            assert ab_id in design_text, f"ablation {ab_id} missing from DESIGN.md"

    def test_paper_check_recorded(self, design_text):
        assert "Paper-text check" in design_text


class TestReadme:
    def test_every_example_listed(self, readme_text):
        for path in (REPO / "examples").glob("*.py"):
            assert path.name in readme_text, f"{path.name} missing from README"

    def test_cli_commands_listed(self, readme_text):
        import repro.cli

        skill = (REPO / ".claude" / "skills" / "verify" / "SKILL.md").read_text()
        for cmd in repro.cli._COMMANDS:
            assert f"``{cmd}``\n" in repro.cli.__doc__, cmd
            assert f"python -m repro {cmd}" in readme_text, cmd
            assert f"`{cmd}`" in skill, cmd
        # the repo benchmark is python3 -m perf, not a sub-command; the
        # parity, fault and race checks are tier-1 tests, not commands
        for gone in ("bench", "serve-bench", "engine-parity", "fault-smoke",
                     "chaos-parity", "race-check"):
            with pytest.raises(SystemExit) as exc:
                repro.cli.build_parser().parse_args([gone])
            assert exc.value.code == 2

    def test_quickstart_names_exist(self):
        import repro

        for name in ("HCCMF", "HCCConfig", "NETFLIX", "paper_workstation"):
            assert hasattr(repro, name)


class TestExperimentsMd:
    @pytest.fixture(scope="class")
    def text(self):
        return (REPO / "EXPERIMENTS.md").read_text()

    def test_every_paper_artifact_present(self, text):
        for heading in (
            "Figure 3(a)", "Figure 3(b)", "Table 2", "Figure 5", "Figure 6",
            "Figure 7", "Table 4", "Figure 8", "Table 5", "Figure 9", "Table 6",
        ):
            assert heading in text, heading

    def test_ablations_section_present(self, text):
        assert "Ablations and extensions" in text

    def test_regenerable(self, text):
        assert "generate_experiments_md.py" in text


class TestDocsDirectory:
    def test_cost_model_doc_names_real_constants(self):
        doc = (REPO / "docs" / "cost_model.md").read_text()
        import repro.hardware.processor as proc

        assert "CPU_CORUN_FACTOR" in doc
        assert f"= {proc.CPU_CORUN_FACTOR}" in doc or str(proc.CPU_CORUN_FACTOR) in doc

    def test_architecture_doc_mentions_planes(self):
        doc = (REPO / "docs" / "architecture.md").read_text()
        assert "numeric plane" in doc
        assert "timing plane" in doc


class TestRepoPaths:
    DOCS = ("README.md", "DESIGN.md", "CONTRIBUTING.md",
            ".claude/skills/verify/SKILL.md", "docs/*.md")

    def test_every_backticked_repo_path_exists(self):
        """A backticked word rooted at a top-level entry of the repo
        (``tests/test_cli.py::TestCommands``, ``benchmarks/bench_*.py``)
        must name something that exists; run outputs the .gitignore
        lists (``perf/out/``) and ``<placeholder>`` paths are exempt."""
        tops = {p.name for p in REPO.iterdir()}
        ignored = tuple(
            line for line in (REPO / ".gitignore").read_text().splitlines()
            if "/" in line.rstrip("/") and not line.startswith("#")
        )
        missing = []
        for doc in (d for pattern in self.DOCS for d in sorted(REPO.glob(pattern))):
            text = re.sub(r"^[ \t]*```.*$", "", doc.read_text(), flags=re.M)
            for span in re.findall(r"`([^`\n]+)`", text):
                for word in span.split():
                    if "/" not in word or word.split("/")[0] not in tops:
                        continue
                    path = re.split(r"::|:\d|'s\b", word)[0].rstrip(".,;)")
                    if "<" in path or path.startswith(ignored):
                        continue
                    if not any(REPO.glob(path)):
                        missing.append(f"{doc.relative_to(REPO)}: {path}")
        assert not missing, missing
