"""Registry-driven doc-drift lint: code registries vs the prose.

DESIGN.md's fault matrix and README.md's command surface are generated
by hand but *derived* from code registries — so each registry entry must
appear in its document, and each documented matrix row must still be
registered.  A new fault kind or CLI subcommand that skips the docs (or
a renamed one that orphans a row) fails here, not in review.
"""

import re
import shlex
from pathlib import Path

from repro.cli import _COMMANDS, build_parser
from repro.train.injection import FAULT_KINDS

REPO = Path(__file__).resolve().parents[2]


def fault_matrix_rows(text: str) -> list[str]:
    """Kind names of DESIGN.md's fault-matrix rows: ``| `kind` | ...``."""
    return re.findall(r"^\|\s*`([a-z-]+)`\s*\|", text, re.M)


def test_design_fault_matrix_covers_registry_exactly():
    design = (REPO / "DESIGN.md").read_text()
    rows = fault_matrix_rows(design)
    registered = set(FAULT_KINDS)
    missing = registered - set(rows)
    assert not missing, (
        f"fault kinds registered in repro.train.injection.FAULT_KINDS but "
        f"absent from DESIGN.md's fault matrix: {sorted(missing)}"
    )
    orphaned = set(rows) - registered
    assert not orphaned, (
        f"DESIGN.md fault-matrix rows no longer registered: "
        f"{sorted(orphaned)}"
    )


def test_readme_mentions_every_cli_subcommand():
    readme = (REPO / "README.md").read_text()
    missing = [
        command
        for command in _COMMANDS
        if not re.search(rf"repro {re.escape(command)}\b", readme)
    ]
    assert not missing, (
        f"CLI subcommands with no README mention "
        f"(`python -m repro <cmd>`): {missing}"
    )


def test_readme_documents_fleet_verify_mode():
    # The checker is reached through a flag, not a subcommand, so the
    # registry walk above cannot see it; pin the quickstart explicitly.
    readme = (REPO / "README.md").read_text()
    assert re.search(r"repro verify --fleet\b", readme), (
        "README.md lost the `repro verify --fleet` quickstart"
    )


def readme_cli_commands(text: str) -> list[str]:
    """Arguments of every ``python -m repro ...`` line in a fenced block,
    with ``\\`` continuations joined and trailing comments dropped."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            match = re.match(r"\s*python -m repro\s+(.*)", line)
            if match:
                commands.append(shlex.split(match.group(1), comments=True))
    return commands


def test_readme_cli_commands_parse():
    # A removed option or renamed flag that the README still shows fails
    # here instead of in a reader's shell.
    commands = readme_cli_commands((REPO / "README.md").read_text())
    assert len(commands) >= 20, f"only {len(commands)} commands found"
    parser = build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert not rejected, f"README commands the CLI rejects: {rejected}"
