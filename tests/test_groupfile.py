import pytest

from permwit.errors import GroupFileError
from permwit.group import PermGroup
from permwit.groupfile import parse_multi_group_file, parse_multi_group_text

from groupfiles import format_groups

# two trivial sections after the one under test make a three-group file
TRIVIAL_TAIL = "\n---\ndegree: 1\n---\ndegree: 1\n"


def parse_first(text):
    return parse_multi_group_text(text + TRIVIAL_TAIL)[0]


def test_round_trip_is_canonical():
    g = PermGroup.from_cycles(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")
    text = format_groups([g])
    assert text == "degree: 6\n(1 2 3 4 5 6)\n(2 6)(3 5)\n"
    again = parse_first(text)
    assert again.generators == g.generators
    assert format_groups([again]) == text


def test_comments_and_blank_lines_ignored():
    text = """
    # a witness group
    degree: 6   # six points

    (1 2 3 4 5 6)  # the full cycle
    (2 6)(3 5)
    """
    g = parse_first(text)
    assert g.degree == 6 and len(g.generators) == 2


def test_trivial_group_file():
    g = parse_first("degree: 4\n")
    assert g.order() == 1 and g.degree == 4


def test_missing_degree_line():
    with pytest.raises(GroupFileError, match="degree"):
        parse_first("(1 2)\n")


def test_degree_above_maximum_reports_line():
    with pytest.raises(GroupFileError, match="at most 256") as info:
        parse_first("# big\ndegree: 257\n")
    assert info.value.line == 2
    assert parse_first("degree: 256\n").degree == 256


def test_bad_generator_reports_line():
    with pytest.raises(GroupFileError, match="line 3"):
        parse_first("degree: 4\n(1 2)\n(3 9)\n")


def test_empty_file():
    with pytest.raises(GroupFileError, match="empty") as info:
        parse_first("# nothing here\n")
    assert info.value.line == 3  # the `---` that closes the section


@pytest.mark.parametrize("text, line", [
    # a middle section is named by the `---` that closes it
    ("degree: 2\n(1 2)\n---\n---\ndegree: 1\n", 4),
    # the last section by the `---` that opens it
    ("degree: 2\n---\ndegree: 1\n---\n# nothing\n", 4),
    ("degree: 2\n---\n\ndegree: 1\n\n---\n", 6),
])
def test_empty_section_names_its_separator(text, line):
    with pytest.raises(GroupFileError) as info:
        parse_multi_group_text(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: empty group section"


def test_multi_group_round_trip():
    groups = [
        PermGroup.from_cycles(6, "(1 2 3 4 5 6)", "(2 6)(3 5)"),
        PermGroup.from_cycles(6, "(1 2 3 4 5 6)"),
        PermGroup.from_cycles(6, "(2 6)(3 5)", "(1 3 5)(2 4 6)"),
    ]
    text = format_groups(groups)
    parsed = parse_multi_group_text(text)
    assert [g.generators for g in parsed] == [g.generators for g in groups]


def test_multi_group_wrong_count():
    with pytest.raises(GroupFileError, match="expected 3 groups"):
        parse_multi_group_text("degree: 2\n(1 2)\n")


def test_section_count_names_no_line():
    # the count is a fact of the whole file, not of one of its lines
    with pytest.raises(GroupFileError) as info:
        parse_multi_group_text("degree: 2\n---\ndegree: 2\n")
    assert info.value.line is None
    assert str(info.value) == ("expected 3 groups separated by '---' lines, "
                               "found 2 sections")


def test_non_utf8_file_reports_line(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_bytes(b"degree: 3\n(1 2 \xff3)\n")
    with pytest.raises(GroupFileError) as info:
        parse_multi_group_file(str(path))
    assert info.value.line == 2
