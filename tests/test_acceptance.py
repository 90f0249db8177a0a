"""Acceptance suite: one test per entry of `ququart_hubbard.acceptance.CHECKS`,
each printing its PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The checks themselves live in the registry, which `ququart-hubbard validate`
runs too. Entries that share a name become one test parametrized by case.
"""

from itertools import groupby

import pytest

from ququart_hubbard.acceptance import CHECKS


def _run(check):
    result = check.run()
    print(result.line())
    assert result.passed, result.line()


def _make_test(entries):
    if len(entries) == 1:
        return lambda: _run(entries[0])

    @pytest.mark.parametrize("check", entries, ids=[c.case for c in entries])
    def test(check):
        _run(check)

    return test


for _name, _entries in groupby(CHECKS, key=lambda c: c.name):
    globals()[f"test_{_name}"] = _make_test(list(_entries))
