"""The CLI's front-door contract.

A flag is accepted only by commands whose handler honours it, so a
flag a command would silently ignore is a usage error (exit 2). Bad
input of any kind leaves through one path: exit 1 and a single
``repro-sim <command> [<subcommand>]: <message>`` line on stderr, never
a traceback.
"""

import pytest

import repro.service
from repro.cli import main as cli_main


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.mark.parametrize("argv", [
    ["run", "--benchmark", "li", "--json", "x"],
    ["table2", "--json", "x"],
    ["parity", "--jobs", "2"],
    ["disasm", "--benchmark", "li", "--names", "li"],
    ["report", "--json", "x"],
    ["table1", "--scale", "0.1"],
])
def test_flag_a_command_does_not_honour_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(prefix), lines[0]
    return lines[0]


@pytest.mark.parametrize("argv, prefix", [
    (["run", "--benchmark", "li", "--ras-entries", "0"], "repro-sim run: "),
    (["smt", "--threads", "0"], "repro-sim smt: "),
    (["disasm", "--benchmark", "li", "--scale", "-1"], "repro-sim disasm: "),
])
def test_bad_input_exits_1_with_one_line(argv, prefix, capsys):
    assert cli_main(argv) == 1
    _one_error_line(capsys, prefix)


def test_unwritable_diffcheck_report_exits_1_with_one_line(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    assert cli_main(["corpus", "build", corpus, "--names", "li",
                     "--scale", "0.02"]) == 0
    capsys.readouterr()
    report = tmp_path / "missing-dir" / "r.json"
    assert cli_main(["corpus", "diffcheck", corpus, "--no-telemetry",
                     "--report", str(report)]) == 1
    line = _one_error_line(capsys, "repro-sim corpus diffcheck: ")
    assert "cannot write" in line and str(report) in line
    assert not report.exists()


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_serve_rejects_non_positive_lease_timeout(timeout, monkeypatch,
                                                  capsys):
    served = []
    monkeypatch.setattr(repro.service, "serve", served.append)
    assert cli_main(["serve", "--bind", "127.0.0.1:0",
                     "--lease-timeout", timeout]) == 1
    assert served == []
    line = _one_error_line(capsys, "repro-sim serve: ")
    assert "lease timeout" in line


def test_json_writer_reports_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "t.json"
    assert cli_main(["table1", "--json", str(out)]) == 1
    line = _one_error_line(capsys, "repro-sim table1: ")
    assert f"cannot write {out}" in line
