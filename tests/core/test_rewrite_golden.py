"""Byte-identical rewrites: every pinned statement still deparses, in both
dialects, to the text stored under ``tests/core/golden/`` (see
``golden/generate.py`` for the case list and for how to regenerate)."""

from __future__ import annotations

import json

import pytest

from tests.core.golden.generate import GOLDEN_DIR, GROUPS, rendered_group


@pytest.mark.parametrize("group", GROUPS)
def test_rewritten_sql_matches_golden(group):
    stored = json.loads((GOLDEN_DIR / f"{group}.json").read_text())
    rendered = dict(rendered_group(group))
    assert sorted(rendered) == sorted(stored)
    for name, entry in rendered.items():
        assert entry == stored[name], f"{group}.json: {name}"
