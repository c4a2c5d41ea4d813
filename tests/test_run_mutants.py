"""Every source mutant of ``run_mutants.py`` still applies to the tree."""

from __future__ import annotations

import pytest

from run_mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name,file,old,new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_applies(name: str, file: str, old: str, new: str) -> None:
    # run_mutants.py applies a mutant only where its old text occurs exactly
    # once; otherwise the mutant reports NOT APPLIED and tests nothing.
    assert (ROOT / file).read_text().count(old) == 1
