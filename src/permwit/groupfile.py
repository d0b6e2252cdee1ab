"""The on-disk group format, read by `verify` and `embed`.

A file holds three sections, G, N1 and N2, separated by lines
containing only `---`.  Each section reads

    # optional comments
    degree: 6
    (1 2 3 4 5 6)
    (2 6)(3 5)

Its first line (after comments/blanks) declares the degree; each
following nonempty line is one generator in cycle notation.  `#` starts
a comment anywhere.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from permwit.errors import CycleParseError, GroupFileError
from permwit.group import PermGroup
from permwit.perm import MAX_DEGREE, parse_cycles

_DEGREE_RE = re.compile(r"^degree:\s*(\d+)$")
MULTI_GROUP_COUNT = 3  # a multi-group file holds G, N1 and N2


def _content_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_section(lines: List[Tuple[int, str]], rule: int) -> PermGroup:
    if not lines:
        raise GroupFileError("empty group section", rule)
    lineno, first = lines[0]
    m = _DEGREE_RE.match(first)
    if not m:
        raise GroupFileError(
            f"expected 'degree: <n>' but found {first!r}", lineno)
    degree = int(m.group(1))
    if degree < 1:
        raise GroupFileError(f"degree must be positive, got {degree}", lineno)
    if degree > MAX_DEGREE:
        raise GroupFileError(
            f"degree must be at most {MAX_DEGREE}, got {degree}", lineno)
    gens = []
    for lineno, line in lines[1:]:
        try:
            gens.append(parse_cycles(line, degree))
        except CycleParseError as exc:
            raise GroupFileError(
                f"bad generator {line!r}: {exc}", lineno) from exc
        except ValueError as exc:
            raise GroupFileError(str(exc), lineno) from exc
    return PermGroup(gens, degree=degree)


def parse_multi_group_text(text: str) -> List[PermGroup]:
    sections: List[List[Tuple[int, str]]] = [[]]
    rules: List[int] = []  # the lines of the `---` separators
    for lineno, line in _content_lines(text):
        if line == "---":
            rules.append(lineno)
            sections.append([])
        else:
            sections[-1].append((lineno, line))
    if len(sections) != MULTI_GROUP_COUNT:
        raise GroupFileError(
            f"expected {MULTI_GROUP_COUNT} groups separated by '---' lines, "
            f"found {len(sections)} sections")
    # an empty section is named by the `---` that closes it, the last by its opener
    return [_parse_section(s, rules[min(k, len(rules) - 1)])
            for k, s in enumerate(sections)]


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GroupFileError(
            f"file is not UTF-8 text (byte {exc.start}: {exc.reason})", line) from exc


def parse_multi_group_file(path: str) -> List[PermGroup]:
    return parse_multi_group_text(_read_text(path))

