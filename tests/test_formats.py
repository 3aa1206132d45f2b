"""Instance/solution text formats: round trips and error reporting."""

import random
import tracemalloc
from bisect import bisect
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecse.formats import (
    _CHUNK,
    ParseError,
    _Memo,
    _row,
    _to_int,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from ecse.generators import random_instance
from ecse.model import EGALITARIAN, CommitteeSequence, Instance, PeInstance

from conftest import make_instance, TRIP_ROWS

TRIP_DOC = """\
ecse v1            # weekend-trip election
mode gcse
n 6
m 6
tau 2
k 2
x 4
y 1
levels
1 5 1 5 3 4
4 3 2 6 2 3        # day two
end
"""


def test_parse_trip_document(trip_egalitarian):
    inst = parse_instance(TRIP_DOC)
    assert inst == trip_egalitarian
    assert inst.mode == EGALITARIAN
    assert (inst.n, inst.m, inst.tau, inst.k, inst.x, inst.y) == (6, 6, 2, 2, 4, 1)


def test_keys_in_any_order():
    doc = "ecse v1\nkvec 1 1\ntau 2\nmode qcse\nn 1\nm 2\nk 1\nx 0\ny 1\nlevels\n1\n2\nend\n"
    inst = parse_instance(doc)
    assert isinstance(inst, PeInstance)
    assert inst.kvec == (1, 1)
    assert inst.xvec == (0, 0)  # scalar default
    assert inst.yvec == (1,)


def test_pre_elected_file_accepts_negative_defaults():
    # a plain file refuses `k -1` at its line; with a vector present it is a default
    doc = TRIP_DOC.replace("k 2", "k -1").replace("levels", "yvec 1 1 1 1 1 1\nlevels")
    inst = parse_instance(doc)
    assert isinstance(inst, PeInstance)
    assert inst.kvec == (-1, -1)


def test_round_trip_is_fixed_point(trip_egalitarian):
    doc = serialize_instance(trip_egalitarian)
    assert parse_instance(doc) == trip_egalitarian
    assert serialize_instance(parse_instance(doc)) == doc
    # idempotence on the noisy source document too
    assert serialize_instance(parse_instance(TRIP_DOC)) == doc


def test_serialize_all_empty_profile():
    inst = make_instance([(0, 0), (0, 0)], mode=EGALITARIAN, k=1, x=0, y=0, m=3)
    doc = serialize_instance(inst)
    assert "0 0" in doc
    assert parse_instance(doc) == inst


def test_zero_agent_instance_round_trip():
    inst = Instance(EGALITARIAN, 0, 3, 2, 1, 0, 1, ((), ()))
    doc = serialize_instance(inst)
    assert parse_instance(doc) == inst


def test_pe_round_trip():
    pe = PeInstance("equitable", 2, 2, 2, (1, 0), (0, -1), (1, 0), ((1, 2), (2, 0)))
    assert parse_instance(serialize_instance(pe)) == pe


def test_dimension_mismatch_error():
    doc = TRIP_DOC.replace("1 5 1 5 3 4", "1 5 1 5 3")
    with pytest.raises(ParseError, match="expected n=6"):
        parse_instance(doc)


def test_out_of_range_error():
    doc = TRIP_DOC.replace("4 3 2 6 2 3", "4 3 2 7 2 3")
    with pytest.raises(ParseError, match="out of range"):
        parse_instance(doc)


PE_TRIP_DOC = TRIP_DOC.replace("levels", "kvec 2 2\nxvec 4 4\nyvec 1 1 1 1 1 1\nlevels")


def _bad_row(row, message, line=11, doc=TRIP_DOC, replaces="4 3 2 6 2 3"):
    return pytest.param(doc.replace(replaces, row), line, message, id=f"{row}-{message}")


@pytest.mark.parametrize(
    "doc, line, message",
    [
        _bad_row("4 3 two 6 x 3", "expected an integer, got 'two'"),
        _bad_row("4 3 2 9 -1 3", "nomination 9 out of range 0..6"),
        _bad_row("4 -2 2 6 7 3", "nomination -2 out of range 0..6"),
        # both rows out of range: the first one is named
        _bad_row("1 5 8 5 3 4", "nomination 8 out of range 0..6", line=10,
                 doc=TRIP_DOC.replace("4 3 2 6 2 3", "4 3 2 9 2 3"), replaces="1 5 1 5 3 4"),
        _bad_row("4 3 2 6 2 7", "nomination 7 out of range 0..6", line=14, doc=PE_TRIP_DOC),
    ],
)
def test_level_row_errors_name_the_row_and_first_bad_token(doc, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_lines_end_only_at_newlines():
    # form feed, \x1c, \x85 and U+2028 are whitespace inside a line, not its end
    doc = (TRIP_DOC.replace("mode gcse", "mode\x85gcse\f")
           .replace("tau 2", "tau\x1c2").replace("1 5 1 5 3 4", "1 5\u20281 5 3 4"))
    assert parse_instance(doc) == parse_instance(TRIP_DOC)
    with pytest.raises(ParseError) as err:
        parse_instance(doc.replace("4 3 2 6 2 3", "4 3\x852 x 2 3"))
    assert str(err.value) == "line 11: expected an integer, got 'x'"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_documents_parse_as_newline_ones(newline):
    assert parse_instance(TRIP_DOC.replace("\n", newline)) == parse_instance(TRIP_DOC)
    with pytest.raises(ParseError) as err:
        parse_instance(TRIP_DOC.replace("4 3 2 6 2 3", "4 3 2 x 2 3").replace("\n", newline))
    assert str(err.value) == "line 11: expected an integer, got 'x'"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.replace("ecse v1", "ecse v2"), "header"),
        (lambda d: d.replace("mode gcse\n", ""), "missing `mode`"),
        (lambda d: d.replace("k 2\n", ""), "missing `k`"),
        (lambda d: d + "extra\n", "trailing"),
        (lambda d: d.replace("end\n", ""), "missing `end`"),
        (lambda d: d.replace("n 6", "n six"), "integer"),
        (lambda d: d.replace("x 4", "x 4\nx 4"), "duplicate"),
    ],
)
def test_parse_errors_carry_line_numbers(mutate, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_instance(mutate(TRIP_DOC))
    assert err.value.line >= 1


def _error(doc, line, message, name):
    return pytest.param(doc, line, message, id=name)


# TRIP_DOC's lines: 1 header, 2 mode, 3-8 n m tau k x y, 9 levels, 10-11 rows, 12 end
@pytest.mark.parametrize(
    "doc, line, message",
    [
        _error("", 1, "empty document", "empty"),
        _error("# a comment\n\n", 1, "empty document", "comments-only"),
        _error(TRIP_DOC.replace("ecse v1", "ecse v2"), 1, "expected header `ecse v1`", "header"),
        _error("ecse v1\nmode gcse\nn 1\n", 3, "missing `levels` section", "no-levels"),
        _error(TRIP_DOC.replace("levels", "levels 2"), 9, "`levels` takes no arguments", "levels-args"),
        _error(TRIP_DOC.replace("mode gcse", "mode egal"), 2, "mode must be `gcse` or `qcse`",
               "bad-mode"),
        _error(TRIP_DOC.replace("mode gcse", "mode gcse\nmode qcse"), 3, "duplicate `mode`", "dup-mode"),
        # a duplicate of the wrong arity reports its arity
        _error(TRIP_DOC.replace("mode gcse", "mode gcse\nmode"), 3, "mode must be `gcse` or `qcse`",
               "dup-mode-arity"),
        _error(TRIP_DOC.replace("n 6", "n 6 7"), 3, "`n` takes one integer", "scalar-arity"),
        _error(TRIP_DOC.replace("x 4", "x 4\nx 4"), 8, "duplicate `x`", "dup-scalar"),
        _error(TRIP_DOC.replace("n 6", "n 6\nn"), 4, "`n` takes one integer", "dup-scalar-arity"),
        _error(TRIP_DOC.replace("n 6", "n six"), 3, "expected an integer, got 'six'", "scalar-token"),
        # `int` reads these, but the format's integers are ASCII without `_`
        _error(TRIP_DOC.replace("m 6", "m 1_2"), 4, "expected an integer, got '1_2'",
               "scalar-underscore"),
        _error(TRIP_DOC.replace("levels", "kvec 2 2\nkvec 2 2\nlevels"), 10, "duplicate `kvec`",
               "dup-vector"),
        _error(TRIP_DOC.replace("levels", "yvec 1 one\nlevels"), 9, "expected an integer, got 'one'",
               "vector-token"),
        _error(TRIP_DOC.replace("levels", "yvec 1 1 \uff11 1 1 1\nlevels"), 9,
               "expected an integer, got '\uff11'", "vector-fullwidth-digit"),
        _error(TRIP_DOC.replace("k 2", "seats 2"), 6, "unknown key 'seats'", "unknown-key"),
        _error(TRIP_DOC.replace("mode gcse\n", ""), 8, "missing `mode`", "no-mode"),
        _error(TRIP_DOC.replace("k 2\n", ""), 8, "missing `k`", "no-scalar"),
        # a size below its floor is refused at its own line
        _error(TRIP_DOC.replace("tau 2", "tau 0"), 5, "tau must be at least 1", "tau-0"),
        _error("ecse v1\nmode gcse\nn -1\nm 1\ntau 1\nk 0\nx 0\ny 0\nlevels\nend\n", 3,
               "n must be at least 0", "negative-n"),
        _error("ecse v1\nmode gcse\nn 2\nm -1\ntau 1\nk 0\nx 0\ny 0\nlevels\n0 0\nend\n", 4,
               "m must be at least 0", "negative-m"),
        _error(TRIP_DOC.replace("4 3 2 6 2 3        # day two\n", ""), 11,
               "expected 2 level rows, got 1", "early-end"),
        _error(TRIP_DOC.split("4 3 2 6 2 3")[0], 10, "expected 2 level rows, got 1", "eof-in-rows"),
        _error(TRIP_DOC.replace("1 5 1 5 3 4", "1 5 1 5 3"), 10, "level row has 5 entries, expected n=6",
               "row-length"),
        _error(TRIP_DOC.replace("4 3 2 6 2 3", "4 3 two 6 2 3"), 11, "expected an integer, got 'two'",
               "row-token"),
        _error(TRIP_DOC.replace("4 3 2 6 2 3", "1_1 \u0663 2 6 2 3"), 11, "expected an integer, got '1_1'",
               "row-underscore"),
        _error(TRIP_DOC.replace("4 3 2 6 2 3", "1 \u0663 2 6 2 3"), 11,
               "expected an integer, got '\u0663'", "row-arabic-indic-digit"),
        _error(TRIP_DOC.replace("end\n", ""), 11, "missing `end`", "no-end"),
        _error(TRIP_DOC.replace("end\n", "1 1 1 1 1 1\nend\n"), 12, "expected `end`", "extra-row"),
        # a line other than `end` is not `end`, even with an `end` after it
        _error(TRIP_DOC.replace("end\n", "end x\nend\n"), 12, "expected `end`", "end-args"),
        _error(TRIP_DOC + "extra\n", 13, "trailing content after `end`", "trailing"),
        # a nomination out of range names its row; a negative bound of a plain
        # file and a vector of the wrong length name their own key's line
        _error(TRIP_DOC.replace("4 3 2 6 2 3", "4 3 2 7 2 3"), 11, "nomination 7 out of range 0..6",
               "out-of-range"),
        _error(TRIP_DOC.replace("y 1", "y -1"), 8, "y must be at least 0", "negative-y"),
        _error(TRIP_DOC.replace("k 2", "k -1"), 6, "k must be at least 0", "negative-k"),
        _error(TRIP_DOC.replace("levels", "kvec\nlevels"), 9, "`kvec` has 0 entries, expected tau=2",
               "short-kvec"),
        _error(TRIP_DOC.replace("levels", "xvec 1 2 3\nlevels"), 9, "`xvec` has 3 entries, expected tau=2",
               "long-xvec"),
        _error(TRIP_DOC.replace("levels", "yvec 1\nlevels"), 9, "`yvec` has 1 entries, expected n=6",
               "short-yvec"),
    ],
)
def test_every_parse_error_names_its_line_and_message(doc, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "doc, line, message",
    [
        _error("", 1, "empty document", "empty"),
        _error("# a comment\n\n", 1, "empty document", "comments-only"),
        _error("ecse-sol v2\n1\n-\n", 1, "expected header `ecse-sol v1`", "header"),
        _error("# a comment\necse-sol v1\n", 2, "missing committee count", "no-count"),
        _error("ecse-sol v1\n1 2\n-\n", 2, "expected the number of committees", "count-arity"),
        _error("ecse-sol v1\none\n-\n", 2, "expected an integer, got 'one'", "count-token"),
        _error("ecse-sol v1\n0\n", 2, "need at least one committee", "count-0"),
        _error("ecse-sol v1\n2\n1\n", 3, "expected 2 committee lines, got 1", "too-few"),
        # too many lines: the last one is named
        _error("ecse-sol v1\n1\n-\n-\n", 4, "expected 1 committee lines, got 2", "too-many"),
        _error("ecse-sol v1\n1\n1 x\n", 3, "expected an integer, got 'x'", "id-token"),
        _error("ecse-sol v1\n1\n1_2\n", 3, "expected an integer, got '1_2'", "id-underscore"),
        _error("ecse-sol v1\n\u0661\n-\n", 2, "expected an integer, got '\u0661'", "count-non-ascii"),
        # `-` stands for an empty committee only on its own
        _error("ecse-sol v1\n1\n- 1\n", 3, "expected an integer, got '-'", "dash-and-id"),
        _error("ecse-sol v1\n1\n0 1\n", 3, "candidate ids must be positive", "id-0"),
        _error("ecse-sol v1\n1\n5 1\n", 3, "candidate ids must be strictly increasing", "unsorted"),
        _error("ecse-sol v1\n1\n2 2\n", 3, "candidate ids must be strictly increasing", "repeated"),
    ],
)
def test_every_solution_parse_error_names_its_line_and_message(doc, line, message):
    with pytest.raises(ParseError) as err:
        parse_solution(doc)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_solution_round_trip():
    seq = CommitteeSequence.of([(1, 5), (), (2,)])
    text = serialize_solution(seq)
    assert text == "ecse-sol v1\n3\n1 5\n-\n2\n"
    assert parse_solution(text) == seq


def test_solution_rejects_unsorted():
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_solution("ecse-sol v1\n1\n5 1\n")
    with pytest.raises(ParseError, match="committee lines"):
        parse_solution("ecse-sol v1\n2\n1\n")


@st.composite
def any_instance(draw):
    """Either instance type; candidate ids and vector entries reach past 256,
    pre-elected vectors hold negative entries, and nominations are often
    empty."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 6) | st.integers(250, 5000))
    tau = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["egalitarian", "equitable"]))
    entry = st.just(0) | st.integers(0, m)
    rows = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(tau))
    k, x, y = (draw(st.integers(0, 4) | st.integers(250, 400)) for _ in range(3))
    if draw(st.booleans()):
        bound = st.integers(-2, 4) | st.integers(-300, 300)
        kvec = tuple(draw(bound) for _ in range(tau))
        xvec = tuple(draw(bound) for _ in range(tau))
        yvec = tuple(draw(bound) for _ in range(n))
        return PeInstance(mode, n, m, tau, kvec, xvec, yvec, rows)
    return Instance(mode, n, m, tau, k, x, y, rows)


@given(any_instance())
@settings(max_examples=200)
def test_round_trip_property(inst):
    doc = serialize_instance(inst)
    again = parse_instance(doc)
    assert again == inst
    assert serialize_instance(again) == doc


def serialize_reference(inst):
    """The instance document written one ``str`` per entry."""
    mode = "gcse" if inst.mode == EGALITARIAN else "qcse"
    out = ["ecse v1", f"mode {mode}", f"n {inst.n}", f"m {inst.m}", f"tau {inst.tau}"]
    if isinstance(inst, PeInstance):
        out += ["k 0", "x 0", "y 0"]
        out.append("kvec " + " ".join(str(v) for v in inst.kvec))
        out.append("xvec " + " ".join(str(v) for v in inst.xvec))
        out.append("yvec " + " ".join(str(v) for v in inst.yvec))
    else:
        out += [f"k {inst.k}", f"x {inst.x}", f"y {inst.y}"]
    out.append("levels")
    if inst.n > 0:
        out += [" ".join(str(c) for c in row) for row in inst.profile]
    out.append("end")
    return "\n".join(out) + "\n"


@given(any_instance())
@settings(max_examples=300)
def test_serialize_matches_the_per_entry_reference(inst):
    assert serialize_instance(inst) == serialize_reference(inst)


def test_serializing_a_1e5_agent_instance_allocates_little_beyond_the_document():
    """No string per nomination: the traced peak stays below five document
    lengths (one ``str`` per entry reads 8-12 of them)."""
    inst = random_instance(11, 100_000, 40, 2, 40, 0, 1, "equitable", empty_prob=0.1)
    tracemalloc.start()
    try:
        doc = serialize_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == serialize_reference(inst)
    assert peak < 5 * len(doc)


def test_non_canonical_tokens_parse_as_int_does():
    # signs, leading zeros, negative zero, tabs and runs of spaces; "2" and
    # "02" recur across both rows and in yvec
    rows = ["+3\t02  -0 2\t\t1", "2 03 +2   02\t0"]
    yvec = "02 +1 2 -0 1"
    doc = (
        "ecse v1\nmode qcse\nn 5\nm 3\ntau 2\nk 1\nx 0\ny 1\n"
        f"kvec +1 01\nyvec {yvec}\nlevels\n" + "\n".join(rows) + "\nend\n"
    )
    inst = parse_instance(doc)
    assert inst.profile == tuple(tuple(int(tok) for tok in row.split()) for row in rows)
    assert inst.profile == ((3, 2, 0, 2, 1), (2, 3, 2, 2, 0))
    assert inst.yvec == tuple(int(tok) for tok in yvec.split()) == (2, 1, 2, 0, 1)
    assert inst.kvec == (1, 1)
    assert inst.xvec == (0, 0)


def _long_row_doc(rows, m):
    n = len(rows[0].split())
    return (f"ecse v1\nmode qcse\nn {n}\nm {m}\ntau {len(rows)}\nk 1\nx 0\ny 1\nlevels\n"
            + "\n".join(rows) + "\nend\n")


def test_long_rows_with_mixed_spellings_and_separators():
    """Rows many parser chunks long, spelled and separated at random, parse
    to what ``int`` gives token by token."""
    rng = random.Random(5)
    spellings = (str, lambda v: f"+{v}", lambda v: f"0{v}", lambda v: f"00{v}")
    rows = []
    for _ in range(3):
        tokens = ["-0" if v == 0 and rng.random() < 0.3 else rng.choice(spellings)(v)
                  for v in (rng.randint(0, 150) for _ in range(20_000))]
        rows.append("".join(tok + rng.choice((" ", "\t", "  ", " \t ")) for tok in tokens))
    rows.append("\t".join(["7"] * 20_000))  # tabs only: no space to cut at
    inst = parse_instance(_long_row_doc(rows, 150))
    assert inst.profile == tuple(tuple(int(tok) for tok in row.split()) for row in rows)


def test_malformed_token_in_the_last_long_row_names_its_line_and_token():
    row = " ".join(["1"] * 30_000)
    bad = " ".join(["1"] * 25_000 + ["1x"] + ["1"] * 4_999)
    doc = _long_row_doc([row, row, bad], 1)
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.line == 12
    assert str(err.value) == "line 12: expected an integer, got '1x'"


def _long_body(rng, count, separators):
    return "".join(str(rng.randint(-3, 300)) + rng.choice(separators) for _ in range(count))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([("\t",), ("  ", "   "), (" ", "\t", "  ", " \t\t ")]))
def test_row_parses_long_rows_as_int_splits_them(seed, separators):
    # tabs alone leave no space to cut a chunk at, so that row is split whole
    body = _long_body(random.Random(seed), 6000, separators)
    assert len(body) > 2 * _CHUNK
    assert _row(body, 7, _Memo(_to_int)) == tuple(map(int, body.split()))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["1x", "x", "--1", "1.0", "0x10", "1,2"]))
def test_row_names_a_bad_token_past_the_first_chunk(seed, bad):
    rng = random.Random(seed)
    tokens = _long_body(rng, 6000, (" ",)).split()
    # each token's offset in the body: the first bad token lies past the
    # first chunk, and a second one follows it
    starts = list(accumulate((len(tok) + 1 for tok in tokens), initial=0))
    at = rng.randrange(bisect(starts, _CHUNK), len(tokens) - 1)
    tokens[at], tokens[-1] = bad, "y"
    body = " ".join(tokens)
    with pytest.raises(ParseError) as err:
        _row(body, 12, _Memo(_to_int))
    assert err.value.line == 12
    assert str(err.value) == f"line 12: expected an integer, got {bad!r}"


def test_a_yvec_line_longer_than_a_chunk_parses_and_names_its_bad_token():
    rng = random.Random(3)
    n = 6000
    targets = [str(rng.randint(0, 300)) for _ in range(n)]
    assert len(" ".join(targets)) > 2 * _CHUNK
    head = f"ecse v1\nmode qcse\nn {n}\nm 1\ntau 1\nk 1\nx 0\ny 1\n"
    tail = "levels\n" + " ".join(["1"] * n) + "\nend\n"
    inst = parse_instance(head + "yvec " + " ".join(targets) + "\n" + tail)
    assert inst.yvec == tuple(map(int, targets))
    # a bad token well past the first chunk, on the yvec line (line 9)
    targets[5000] = "1_0"
    with pytest.raises(ParseError) as err:
        parse_instance(head + "yvec " + " ".join(targets) + "\n" + tail)
    assert str(err.value) == "line 9: expected an integer, got '1_0'"


def test_1e5_agent_two_level_round_trip():
    inst = random_instance(4, 100_000, 40, 2, 40, 0, 1, "equitable", empty_prob=0.1)
    doc = serialize_instance(inst)
    again = parse_instance(doc)
    assert again == inst
    assert serialize_instance(again) == doc
