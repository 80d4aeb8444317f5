"""The mutation runner's table against the source it mutates."""

from mutants import MUTANTS, _check


def test_every_mutant_text_occurs_once_in_its_module():
    # a change that moves mutated text fails here, not in the weekly sweep
    assert _check(MUTANTS) == []
