"""tools/cli_startup.py times a CLI subcommand as a fresh process."""

import importlib.util
from pathlib import Path

CLI_STARTUP_PY = Path(__file__).resolve().parent.parent / "tools" / "cli_startup.py"


def test_one_command_one_repeat(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_startup", CLI_STARTUP_PY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    commands = dict(tool.cli_commands(tool._load_workloads(), 1, str(tmp_path)))
    assert sorted(commands) == ["autom-demo", "eval", "eval pullback", "fock-check", "mobius",
                                "pick", "realize", "schur-check", "transfer", "validate-graph"]
    assert commands["eval"][0] == "eval" and "--gamma" in commands["eval pullback"]
    wall, code, scipy = tool.run_once(commands["eval"], str(tmp_path))
    assert code == 0 and not scipy
    assert 0.0 < wall < 60.0
