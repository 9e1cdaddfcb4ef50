"""tools/mutate.py's mutant list and workflow reader, checked without
running a mutant: a full run takes minutes (see the script)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_tree():
    # a mutant whose old text moved or doubled no longer tests what it says:
    # a change to the code it mutates updates the list too
    mutants = _mutate().MUTANTS
    assert len({m.id for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.id
        assert m.new != m.old and m.breaks, m.id


def test_ci_cli_steps_are_read_from_the_workflow():
    mutate = _mutate()
    steps = mutate.ci_cli_steps(mutate.WORKFLOW.read_text())
    assert [name.split()[:2] for name, _ in steps] == [["CLI", "at"], ["Formal", "CLI"], ["No", "logging"]]
    for _, script in steps:
        assert script.startswith("python ") and "python -m fqft.cli" in script
    # the formal step's inline check comes through whole, heredoc included
    assert "assert all(record.sides is None" in steps[1][1]
    assert steps[1][1].count("\nEOF\n") == 1
