"""Writes the group files that `verify` and `embed` read."""

from __future__ import annotations

from typing import List

from permwit.group import PermGroup


def format_groups(groups: List[PermGroup]) -> str:
    """One section per group, generators in input order, joined by `---` lines."""
    sections = []
    for g in groups:
        lines = [f"degree: {g.degree}", *(h.cycle_string() for h in g.generators)]
        sections.append("\n".join(lines) + "\n")
    return "---\n".join(sections)
