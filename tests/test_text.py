"""The one text format of configs and environment files (``core.read_text``
and ``core.write_text``), and the four readers built on it."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimix.cli import parse_config
from unimix.core import (
    ACTION_CAP,
    Alphabet,
    CapacityError,
    PERCEPT_CAP,
    ValidationError,
    read_text,
    write_text,
)
from unimix.domains import FunctionClassSpec, GameSpec
from unimix.models import TabularModel, random_tabular

FIELDS = {"a": int, "b": F}


def violations(text, **kwargs):
    with pytest.raises(ValidationError) as e:
        read_text(text, **kwargs)
    return e.value.violations


class TestReadText:
    def test_comments_blanks_and_spaces_are_skipped(self):
        text = "# head\n\n  a = 3   # three\nb=1/2#\nx y | 1/2 # a | in a comment\n"
        header, rows = read_text(text, FIELDS, (lambda k: tuple(k.split()), F))
        assert header == {"a": 3, "b": F(1, 2)}
        assert rows == {("x", "y"): F(1, 2)}

    def test_rows_keep_their_order_under_their_converted_keys(self):
        _, rows = read_text("a=1\nb=0\n2 | 1\n1 | 2\n", FIELDS, (int, int))
        assert list(rows.items()) == [(2, 1), (1, 2)]

    def test_every_violation_is_listed_with_its_line(self):
        text = (
            "a=1\n"  # 1
            "junk\n"  # 2
            "a=2\n"  # 3
            "c=5\n"  # 4
            "0 | 1/2\n"  # 5
            "0 | 1/3\n"  # 6
            "x | 1\n"  # 7
            "1 | 1/0\n"  # 8
        )
        found = violations(text, fields={"a": int, "b": F, "d": int}, row=(int, F))
        assert found == [
            "line 2: expected key=value or <key> | <values>, got 'junk'",
            "line 3: duplicate key 'a'",
            "line 4: unknown key 'c'",
            "line 6: duplicate row '0'",
            "line 7: bad row 'x': invalid literal for int() with base 10: 'x'",
            "line 8: bad row '1': Fraction(1, 0)",
            "missing required key 'b'",
            "missing required key 'd'",
        ]

    def test_a_value_that_does_not_convert_names_its_key_and_line(self):
        assert violations("b=2\na=x\n", fields=FIELDS) == [
            "line 2: bad value of 'a': invalid literal for int() with base 10: 'x'"
        ]

    def test_a_key_that_failed_to_convert_is_still_seen(self):
        found = violations("a=x\na=1\nb=1\n", fields=FIELDS)
        assert found[1:] == ["line 2: duplicate key 'a'"]

    def test_an_optional_key_may_be_missing(self):
        header, _ = read_text("a=1\n", FIELDS, optional=("b",))
        assert header == {"a": 1}

    def test_without_a_row_converter_a_row_is_a_violation(self):
        assert violations("a=1\n0 | 1\n") == ["line 2: expected key=value, got '0 | 1'"]

    def test_without_fields_every_key_is_kept_as_text(self):
        header, rows = read_text("z = a b \n y=\n")
        assert (header, rows) == ({"z": "a b", "y": ""}, {})

    def test_a_given_list_collects_the_violations_instead(self):
        found = ["earlier"]
        header, _ = read_text("a=1\nnope\n", violations=found)
        assert header == {"a": "1"}
        assert found == ["earlier", "line 2: expected key=value, got 'nope'"]

    def test_the_writer_writes_what_the_reader_reads(self):
        text = write_text([("a", 7), ("b", F(2, 3))], [("0 1", "1/2 1/2"), ("1", "1")])
        assert text == "a=7\nb=2/3\n0 1 | 1/2 1/2\n1 | 1\n"
        header, rows = read_text(text, FIELDS, (str, str))
        assert header == {"a": 7, "b": F(2, 3)}
        assert rows == {"0 1": "1/2 1/2", "1": "1"}


# --- Round trips of the three environment-file kinds ------------------------

_fractions = st.fractions(min_value=0, max_value=4, max_denominator=6)
_alphabets = st.builds(
    Alphabet,
    st.integers(1, 3),
    st.integers(1, 2),
    st.lists(_fractions, min_size=1, max_size=3, unique=True).map(sorted).map(tuple),
)


def same_tabular(m, m2):
    return (m2.alphabet, m2.depth, m2.rows) == (m.alphabet, m.depth, m.rows)


@settings(max_examples=60, deadline=None)
@given(_alphabets, st.integers(0, 2), st.integers(0, 2**32), st.data())
def test_a_tabular_model_round_trips(alphabet, depth, seed, data):
    m = random_tabular(alphabet, depth, random.Random(seed))
    keep = data.draw(st.lists(st.sampled_from(sorted(m.rows)), unique=True)) if m.rows else []
    part = TabularModel(alphabet, depth, {k: m.rows[k] for k in keep})
    for model in (m, part):
        assert same_tabular(model, TabularModel.loads(model.dumps()))


@st.composite
def games(draw):
    rounds, moves, replies = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    seqs = itertools.product(*[range(moves), range(replies)] * rounds)
    return GameSpec(rounds, moves, replies, {seq: draw(_fractions) for seq in seqs})


@settings(max_examples=60, deadline=None)
@given(games())
def test_a_game_round_trips(g):
    assert GameSpec.loads(g.dumps()) == g


@st.composite
def function_classes(draw):
    num_actions = draw(st.integers(1, 3))
    zs = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=3, unique=True))
    tables = st.tuples(*[st.integers(0, len(zs) - 1)] * num_actions)
    fs = draw(st.lists(tables, min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(fs), max_size=len(fs)))
    prior = tuple((f, F(w, sum(weights))) for f, w in zip(fs, weights))
    return FunctionClassSpec(num_actions, tuple(sorted(zs)), prior, draw(_fractions))


@settings(max_examples=60, deadline=None)
@given(function_classes())
def test_a_function_class_round_trips(c):
    assert FunctionClassSpec.loads(c.dumps()) == c


# --- Any text: parsed, or every violation listed -----------------------------

_KEYS = (
    "actions", "observations", "rewards", "depth", "rounds", "moves", "replies",
    "z", "rmax", "scenario", "agent", "lifetime", "horizon", "l", "t", "seed", "i", "bogus", "",
)
_words = st.one_of(
    st.integers(-2, 2**70).map(str),
    st.sampled_from(
        ["0", "1", "1/2", "1/0", "x", "y:0", "y:1", "r:1/1", "r:0/1", "o:0", "o:1",
         "fixed:2", "moving:1", "heavenhell", "fm", "informed", "-"]
    ),
    st.text(alphabet="0123456789/:,-yro ", max_size=5),
)
_values = st.lists(_words, max_size=4).flatmap(
    lambda ws: st.sampled_from([" ".join(ws), ",".join(ws)])
)
_lines = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _values).map("=".join),
    st.tuples(_values, _values).map(" | ".join),
    st.text(max_size=12),
    st.tuples(_values, st.text(max_size=6)).map("#".join),
)
_configs = st.sampled_from([
    "scenario=heavenhell\nagent=mixture\nlifetime=3\ni=1\nl=6\n",
    "scenario=fm\nagent=greedy\nlifetime=10\nhorizon=fixed:10\nclass=uniform16\n",
    "scenario=tabular\nlifetime=2\nenv_file=t.txt\nhorizon=geometric:1/2:3\n",
])
_valid = st.one_of(
    _configs,
    st.builds(lambda a, d, s: random_tabular(a, d, random.Random(s)).dumps(),
              _alphabets, st.integers(0, 2), st.integers(0, 9)),
    games().map(GameSpec.dumps),
    function_classes().map(FunctionClassSpec.dumps),
)


@st.composite
def _edited(draw):
    """A valid text with up to three lines replaced, inserted or dropped."""
    lines = draw(_valid).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "repeat"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(_lines))
        elif edit == "replace":
            lines[i] = draw(_lines)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines)


_texts = st.one_of(st.lists(_lines, max_size=10).map("\n".join), _edited())


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_any_text_parses_or_lists_its_violations(text):
    """Each reader returns or raises one ``ValidationError`` that lists what
    is wrong; a tabular model's alphabet may also pass the percept cap.
    What parses writes out to text that reads back the same."""
    for read in (parse_config, TabularModel.loads, GameSpec.loads, FunctionClassSpec.loads):
        try:
            x = read(text)
        except ValidationError as e:
            assert e.violations and all(isinstance(v, str) for v in e.violations)
            continue
        except CapacityError:
            assert read == TabularModel.loads
            continue
        if read is parse_config:
            assert parse_config(x.canonical()).canonical() == x.canonical()
        elif read == TabularModel.loads:
            assert same_tabular(x, TabularModel.loads(x.dumps()))
        else:
            assert read(x.dumps()) == x


def test_a_tabular_file_lists_its_line_and_row_violations_together():
    text = "actions=2\nobservations=1\nrewards=0,1\ndepth=1\njunk\ny:7 | 1 0\n"
    with pytest.raises(ValidationError) as e:
        TabularModel.loads(text)
    assert e.value.violations == [
        "line 5: expected key=value or <key> | <values>, got 'junk'",
        "row for 'y:7' is never looked up: an action outside range(2)",
    ]


def test_a_tabular_file_names_each_zero_count_with_its_line_violations():
    text = "actions=0\nobservations=0\nrewards=0,1\ndepth=0\njunk\n"
    with pytest.raises(ValidationError) as e:
        TabularModel.loads(text)
    assert e.value.violations == [
        "line 5: expected key=value or <key> | <values>, got 'junk'",
        "actions 0 is below 1",
        "observations 0 is below 1",
    ]
    with pytest.raises(ValidationError) as e:
        TabularModel.loads("actions=2\nobservations=-1\nrewards=0,1\ndepth=0\n")
    assert e.value.violations == ["observations -1 is below 1"]


@pytest.mark.parametrize(
    "header, expected",
    [
        ("rounds=0\nmoves=0\nreplies=0\n", ["rounds 0 is below 1", "moves 0 is below 1",
                                              "replies 0 is below 1"]),
        ("rounds=1\nmoves=0\nreplies=2\n", ["moves 0 is below 1"]),
        ("rounds=-1\nmoves=2\nreplies=0\n", ["rounds -1 is below 1", "replies 0 is below 1"]),
    ],
    ids=["all-zero", "no-moves", "negative-rounds-no-replies"],
)
def test_a_game_file_names_each_count_below_1_with_its_line_violations(header, expected):
    junk = "line 4: expected key=value or <key> | <values>, got 'junk'"
    with pytest.raises(ValidationError) as e:
        GameSpec.loads(header + "junk\n0 0 | 1\n")
    assert e.value.violations == [junk] + expected


@pytest.mark.parametrize(
    "leaves, expected",
    [
        (
            "junk\n0 0 | -1\n",
            [
                "line 4: expected key=value or <key> | <values>, got 'junk'",
                "leaf '0 0' has value -1, not one shifted into [0, r_max]",
            ],
        ),
        (
            "0 0 | -1\n1 0 | -1/2\n",
            [
                "leaf '0 0' has value -1, not one shifted into [0, r_max]",
                "leaf '1 0' has value -1/2, not one shifted into [0, r_max]",
            ],
        ),
        (
            "0 1 | 0\n0 0 | -1\n",
            [
                "leaf '0 1' is not 1 (move, reply) pairs in range",
                "leaf '0 0' has value -1, not one shifted into [0, r_max]",
            ],
        ),
    ],
    ids=["junk-line-and-negative-leaf", "two-negative-leaves", "out-of-range-and-negative"],
)
def test_a_game_file_lists_each_bad_leaf_with_its_line_violations(leaves, expected):
    with pytest.raises(ValidationError) as e:
        GameSpec.loads("rounds=1\nmoves=2\nreplies=1\n" + leaves)
    assert e.value.violations == expected


def test_a_game_file_counts_its_leaves_only_when_every_line_reads():
    header = "rounds=1\nmoves=2\nreplies=1\n0 0 | 1\n"
    with pytest.raises(ValidationError) as e:
        GameSpec.loads(header)
    assert e.value.violations == ["1 leaves, not 2^1: leaf '1 0' is missing"]
    with pytest.raises(ValidationError) as e:
        GameSpec.loads(header + "1 0 | x\n")
    (violation,) = e.value.violations
    assert violation.startswith("line 5: bad row '1 0': ")


@pytest.mark.parametrize(
    "header, leaves, expected",
    [
        ("rounds=1\nmoves=2\nreplies=2\n", ["0 0", "0 1", "1 0"], "3 leaves, not 4^1: leaf '1 1'"),
        ("rounds=1\nmoves=2\nreplies=2\n", ["1 1"], "1 leaves, not 4^1: leaf '0 0'"),
        ("rounds=2\nmoves=1\nreplies=2\n", ["0 0 0 0", "0 1 0 1"], "2 leaves, not 2^2: leaf '0 0 0 1'"),
        (f"rounds=1\nmoves={2**60}\nreplies={2**60}\n", ["0 0", "0 1"],
         f"2 leaves, not {2**120}^1: leaf '0 2'"),
    ],
    ids=["last", "first", "two-rounds", "huge-game"],
)
def test_a_game_with_too_few_leaves_names_the_first_missing_one(header, leaves, expected):
    with pytest.raises(ValidationError) as e:
        GameSpec.loads(header + "".join(f"{seq} | 1\n" for seq in leaves))
    assert e.value.violations == [f"{expected} is missing"]


@pytest.mark.parametrize(
    "rows, expected",
    [
        (
            "junk\n0 5 | 1/2\n0 0 0 | 1/4\n",
            [
                "line 3: expected key=value or <key> | <values>, got 'junk'",
                "function '0 5' has a z index outside range(2)",
                "function '0 0 0' has 3 entries, not 2 (one per action)",
                "function prior must sum to 1",
            ],
        ),
        (
            "0 5 | 1/2\n0 0 0 | 1/4\n",
            [
                "function '0 5' has a z index outside range(2)",
                "function '0 0 0' has 3 entries, not 2 (one per action)",
                "function prior must sum to 1",
            ],
        ),
        ("0 0 | 2\n1 1 | -1\n", ["function '1 1' has prior -1, below 0"]),
        ("junk\n0 0 | 1\n", ["line 3: expected key=value or <key> | <values>, got 'junk'"]),
    ],
    ids=["junk-line-and-bad-rows", "bad-rows", "negative-prior", "junk-line-only"],
)
def test_a_function_class_file_lists_its_row_violations_with_its_line_violations(rows, expected):
    with pytest.raises(ValidationError) as e:
        FunctionClassSpec.loads("actions=2\nz=0,1\n" + rows)
    assert e.value.violations == expected


def test_a_function_class_refuses_a_negative_rmax_with_its_other_violations():
    with pytest.raises(ValidationError) as e:
        FunctionClassSpec.loads("actions=2\nz=0,1\nrmax=-1/2\njunk\n0 5 | 1\n")
    assert e.value.violations == [
        "line 4: expected key=value or <key> | <values>, got 'junk'",
        "function '0 5' has a z index outside range(2)",
        "rmax -1/2 is below 0",
    ]
    assert FunctionClassSpec.loads("actions=2\nz=0,1\nrmax=0\n0 1 | 1\n").r_max == 0


def test_an_alphabet_past_the_percept_cap_is_a_capacity_error():
    text = f"actions=2\nobservations={PERCEPT_CAP}\nrewards=0,1\ndepth=0\n"
    with pytest.raises(CapacityError):
        TabularModel.loads(text)


def test_an_alphabet_past_the_action_cap_is_a_capacity_error():
    assert Alphabet(num_actions=ACTION_CAP).num_actions == ACTION_CAP
    with pytest.raises(CapacityError):
        Alphabet(num_actions=ACTION_CAP + 1)


def test_a_game_with_unbounded_rounds_and_no_leaf_is_refused_at_once():
    with pytest.raises(ValidationError):
        GameSpec.loads(f"rounds={2**60}\nmoves=2\nreplies=2\n")
