"""CLI tests for ``python -m repro``."""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.apps import benchmark_mapping, fft2d_model
from repro.core.model import cspi_hardware, save_design
from repro.experiments.generate_report import STUDIES

REPORTS = Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture
def design_path(tmp_path):
    app = fft2d_model(32, 2)
    path = str(tmp_path / "design.json")
    save_design(path, app, hardware=cspi_hardware(2),
                mapping=benchmark_mapping(app, 2))
    return path


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SAGE reproduction" in out


def test_platforms(capsys):
    assert main(["platforms"]) == 0
    out = capsys.readouterr().out
    for vendor in ("CSPI", "Mercury", "SKY", "SIGI"):
        assert vendor in out
    assert "pairwise" in out


def test_kernels(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "fft_rows" in out
    assert "[radar]" in out


def test_generate_to_stdout(design_path, capsys):
    assert main(["generate", design_path]) == 0
    out = capsys.readouterr().out
    assert "SAGE auto-generated glue code" in out
    assert "FUNCTION_TABLE" in out


def test_generate_to_file(design_path, tmp_path, capsys):
    out_path = str(tmp_path / "glue.py")
    assert main(["generate", design_path, "-o", out_path, "--optimized"]) == 0
    text = open(out_path).read()
    assert "OPTIMIZE_BUFFERS = True" in text


def test_run_design(design_path, capsys):
    assert main(["run", design_path, "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "Visualizer run report" in out
    assert "mean latency" in out


def test_run_with_platform_override(design_path, capsys):
    assert main(["run", design_path, "--platform", "mercury",
                 "--nodes", "2", "--iterations", "1"]) == 0
    assert "timeline" in capsys.readouterr().out


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture
def sage_text_path(tmp_path):
    path = tmp_path / "design.sage"
    path.write_text(
        """
application text_ct
datatype cm complex64 32x32
block src kernel=matrix_source threads=2
  out out cm striped(0)
block turn kernel=block_transpose threads=2
  in in cm striped(1)
  out out cm striped(0)
block sink kernel=matrix_sink threads=2
  in in cm striped(0)
connect src.out -> turn.in
connect turn.out -> sink.in
"""
    )
    return str(path)


def test_generate_from_text_format(sage_text_path, capsys):
    assert main(["generate", sage_text_path, "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "MODEL_NAME = 'text_ct'" in out


def test_run_from_text_format(sage_text_path, capsys):
    assert main(["run", sage_text_path, "--nodes", "2", "--iterations", "1"]) == 0
    assert "Visualizer run report" in capsys.readouterr().out


def test_generate_text_format_requires_nodes(sage_text_path, capsys):
    assert main(["generate", sage_text_path]) == 2
    assert "pass --nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--iterations", "0"),
    ("run", "--nodes", "-1"),
    ("run", "--nodes", "0"),
    ("generate", "--nodes", "-1"),
    ("generate", "--nodes", "0"),
    ("analyze", "--nodes", "0"),
    ("analyze", "--iterations", "-2"),
    ("run", "--nodes", "two"),
])
def test_counts_must_be_positive(sage_text_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exit_:
        main([command, sage_text_path, flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"{flag}: expected a positive integer, got {value!r}" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_serve_nodes_must_be_positive(tmp_path, capsys, value):
    batch = tmp_path / "b.json"
    batch.write_text('{"jobs": []}')
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "--batch", str(batch), "--nodes", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"--nodes: expected a positive integer, got {value!r}" in err


@pytest.mark.parametrize("value", ["0", "48", "-4"])
def test_analyze_size_must_be_a_power_of_two(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "fft2d", "--n", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"--n: expected a positive power of two, got {value!r}" in err


def test_run_nodes_must_match_the_hardware_model(design_path, capsys):
    # The design carries a 2-processor model; --nodes 4 would be ignored.
    assert main(["run", design_path, "--nodes", "4"]) == 2
    err = capsys.readouterr().err
    assert "hardware model has 2 processors" in err
    assert "--platform" in err
    assert main(["run", design_path, "--nodes", "2", "--iterations", "1"]) == 0


def test_too_few_nodes_for_the_stored_mapping_is_a_usage_error(tmp_path, capsys):
    # A 4-processor mapping on a 4-processor model, run or generated on 2.
    app = fft2d_model(32, 4)
    path = str(tmp_path / "design4.json")
    save_design(path, app, hardware=cspi_hardware(4),
                mapping=benchmark_mapping(app, 4))
    for argv in (["run", path, "--platform", "cspi", "--nodes", "2"],
                 ["generate", path, "--nodes", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "stored mapping uses 4 processors" in err
        assert "Traceback" not in err
    assert main(["generate", path, "--nodes", "4"]) == 0


#: Studies whose quick protocol runs in about 2 s or less.  gray-failure's
#: quick protocol takes about 9 s, so only CI's report regeneration (every
#: study at the full protocol) runs it.
FAST_STUDIES = [
    "table1", "two-node", "optimized-glue", "knobs", "crossvendor", "atot",
    "period-latency", "code-size", "fault-tolerance", "reconfiguration",
    "elasticity", "chaos", "service-soak",
]


@pytest.mark.parametrize("name", FAST_STUDIES)
def test_study_quick(name, tmp_path, capsys):
    """Each study runs through the CLI, prints its report and writes the
    same text with -o; the title matches the committed report's."""
    study = next(s for s in STUDIES if s.name == name)
    out = tmp_path / study.report
    assert main([name, "--quick", "-o", str(out)]) == 0   # gates held
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    committed = (REPORTS / study.report).read_text()
    assert printed.splitlines()[0] == committed.splitlines()[0]


def test_every_report_is_owned_by_one_study_subcommand(capsys):
    """The study table owns every committed reports/*.txt exactly once, and
    every row is a subcommand taking exactly --quick and -o/--output."""
    owned = [s.report for s in STUDIES]
    assert sorted(owned) == sorted(p.name for p in REPORTS.glob("*.txt"))
    for study in STUDIES:
        with pytest.raises(SystemExit) as exit_:
            main([study.name, "--help"])
        assert exit_.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == (f"usage: python -m repro {study.name} "
                         "[-h] [--quick] [-o OUTPUT]")


@pytest.mark.parametrize("name, verdict", [
    ("service-soak", "repro.service.soak.SoakReport.ok"),
    ("chaos", "repro.chaos.soak.ScheduleOutcome.ok"),
], ids=["service-soak", "chaos"])
def test_soak_invariant_violation_exits_1(name, verdict, monkeypatch, tmp_path,
                                          capsys):
    """Both soaks are gates: a violated invariant still prints and writes
    the report, then exits 1."""
    monkeypatch.setattr(verdict, property(lambda self: False))
    out = tmp_path / "report.txt"
    assert main([name, "--quick", "-o", str(out)]) == 1
    assert out.read_text() == capsys.readouterr().out


def test_chaos_survives_a_closed_stdout(monkeypatch):
    """`python -m repro chaos | head` ends quietly, like every subcommand."""
    class ClosedPipe:
        def write(self, _text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["chaos"]) == 0
