"""Text formats for instances and solutions.

Instance format (UTF-8, ``#`` starts a comment, tokens whitespace-separated,
integers ASCII decimal with an optional sign)::

    ecse v1
    mode gcse            # or qcse
    n 6
    m 6
    tau 2
    k 2
    x 4
    y 1
    levels
    1 5 1 5 3 4          # one row per level, n entries, 0 = nominates nothing
    4 3 2 6 2 3
    end

The key-value lines may appear in any order.  Optional lines ``kvec``,
``xvec`` (tau integers each) and ``yvec`` (n integers) before ``levels``
switch the file to pre-elected semantics; ``k``/``x``/``y`` then act as
defaults for absent vectors.  For ``n = 0`` the (empty) level rows are
omitted.

Solution format::

    ecse-sol v1
    2
    1 5                  # strictly increasing ids, or `-` for an empty committee
    2 3
"""

from __future__ import annotations

from .model import (
    EGALITARIAN,
    EQUITABLE,
    CommitteeSequence,
    Instance,
    PeInstance,
)

#: mode token of the instance format -> mode, also the choices of ``generate --mode``
MODE_TOKENS = {"gcse": EGALITARIAN, "qcse": EQUITABLE}
_TOKEN_OF_MODE = {v: k for k, v in MODE_TOKENS.items()}

_SCALAR_KEYS = ("n", "m", "tau", "k", "x", "y")
# k, x and y have no floor: a pre-elected file may give negative defaults
_SCALAR_FLOORS = {"n": 0, "m": 0, "tau": 1}
_VECTOR_KEYS = ("kvec", "xvec", "yvec")


class ParseError(ValueError):
    """Malformed document; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    """Yield (line_number, body) for non-blank lines, comments stripped.

    Callers split a body into tokens only when they reach it."""
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body and not body.isspace():
            yield i, body


def _to_int(token: str) -> int:
    """What ``int`` reads from an ASCII token without ``_``; ValueError otherwise."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


def _int(token: str, line: int) -> int:
    try:
        return _to_int(token)
    except ValueError:
        raise ParseError(line, f"expected an integer, got {token!r}") from None


class _Memo(dict):
    """Key -> ``convert(key)``, converted the first time the key is seen.

    A level row repeats few distinct values (at most m + 1 canonical ones),
    so most entries cost one lookup and equal entries share one object:
    ``_Memo(_to_int)`` parses tokens, ``_Memo(str)`` writes them."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


# characters of a level row split into tokens at a time; on a 10^6-entry
# row, chunks of 1,024 to 8,192 parse equally fast and larger ones slower
_CHUNK = 8192


def _row(body: str, line: int, table: _Memo) -> tuple[int, ...]:
    """A level row's or vector's integers, split into tokens a chunk at a
    time, so only one chunk's token strings are alive at once, and each
    chunk's values extend one list.  A chunk ends at a space: a row without
    spaces (tab-separated, say) is split whole."""
    out: list[int] = []
    start, end = 0, len(body)
    while start < end:
        cut = body.find(" ", start + _CHUNK)
        if cut < 0:
            cut = end
        tokens = body[start:cut].split()
        try:
            out.extend(map(table.__getitem__, tokens))
        except ValueError:
            for tok in tokens:
                _int(tok, line)  # raises on the bad token, naming it
        start = cut
    return tuple(out)


def parse_instance(text: str) -> Instance | PeInstance:
    """Parse an instance document; returns a PeInstance iff any vector line
    is present.

    A level row is split into tokens only when the row loop reaches it, a
    few thousand characters at a time, so at most one chunk's token list is
    alive at once (chunks end at a space, so a row without spaces is split
    whole).  Every integer list (level rows, ``kvec``, ``xvec``, ``yvec``)
    goes through one per-document table from token text to int, so a
    repeated token costs one lookup."""
    lines = _content_lines(text)
    line, body = next(lines, (1, None))
    if body is None:
        raise ParseError(1, "empty document")
    if body.split() != ["ecse", "v1"]:
        raise ParseError(line, "expected header `ecse v1`")
    table = _Memo(_to_int)

    mode: str | None = None
    scalars: dict[str, int] = {}
    vectors: dict[str, tuple[int, ...]] = {}
    for line, body in lines:
        tokens = body.split()
        key = tokens[0]
        if key == "levels":
            if len(tokens) != 1:
                raise ParseError(line, "`levels` takes no arguments")
            break
        if key == "mode":
            if len(tokens) != 2 or tokens[1] not in MODE_TOKENS:
                raise ParseError(line, "mode must be `gcse` or `qcse`")
            if mode is not None:
                raise ParseError(line, "duplicate `mode`")
            mode = MODE_TOKENS[tokens[1]]
        elif key in _SCALAR_KEYS:
            if len(tokens) != 2:
                raise ParseError(line, f"`{key}` takes one integer")
            if key in scalars:
                raise ParseError(line, f"duplicate `{key}`")
            value = scalars[key] = _int(tokens[1], line)
            if key in _SCALAR_FLOORS and value < _SCALAR_FLOORS[key]:
                raise ParseError(line, f"{key} must be at least {_SCALAR_FLOORS[key]}")
        elif key in _VECTOR_KEYS:
            if key in vectors:
                raise ParseError(line, f"duplicate `{key}`")
            # the key is the body's first token, so what follows it is the vector
            vectors[key] = _row(body.partition(key)[2], line, table)
        else:
            raise ParseError(line, f"unknown key {key!r}")
    else:
        raise ParseError(line, "missing `levels` section")

    if mode is None:
        raise ParseError(line, "missing `mode`")
    for key in _SCALAR_KEYS:
        if key not in scalars:
            raise ParseError(line, f"missing `{key}`")
    n, m, tau = scalars["n"], scalars["m"], scalars["tau"]

    rows: dict[int, tuple[int, ...]] = {}  # line number -> level row
    expected_rows = tau if n > 0 else 0
    while len(rows) < expected_rows:
        # the end of the document counts as an early `end` on the last line
        line, body = next(lines, (line, "end"))
        if body.strip() == "end":
            raise ParseError(line, f"expected {expected_rows} level rows, got {len(rows)}")
        row = rows[line] = _row(body, line, table)
        if len(row) != n:
            raise ParseError(line, f"level row has {len(row)} entries, expected n={n}")

    line, body = next(lines, (line, None))
    if body is None:
        raise ParseError(line, "missing `end`")
    if body.strip() != "end":
        raise ParseError(line, "expected `end`")
    for trailing, _ in lines:
        raise ParseError(trailing, "trailing content after `end`")

    profile = tuple(rows.values()) if n > 0 else ((),) * tau
    try:
        if vectors:
            kvec = vectors.get("kvec", (scalars["k"],) * tau)
            xvec = vectors.get("xvec", (scalars["x"],) * tau)
            yvec = vectors.get("yvec", (scalars["y"],) * n)
            return PeInstance(mode, n, m, tau, kvec, xvec, yvec, profile)
        return Instance(mode, n, m, tau, scalars["k"], scalars["x"], scalars["y"], profile)
    except ValueError as exc:
        # the constructors range-check nominations but know no lines: name
        # the first level row out of range, else the `end` line
        bad = [ln for ln, row in rows.items() if not all(0 <= c <= m for c in row)]
        raise ParseError(bad[0] if bad else line, str(exc)) from None


def serialize_instance(inst: Instance | PeInstance) -> str:
    """Canonical byte-deterministic document; a fixed point of parse/serialize.

    PeInstance values serialize with ``k 0 / x 0 / y 0`` placeholders followed
    by all three vectors, so the scalar defaults are never consulted on the
    way back in.  Every integer list is joined through one per-document
    ``_Memo``.
    """
    token = _Memo(str)
    out = ["ecse v1", f"mode {_TOKEN_OF_MODE[inst.mode]}"]
    # a PeInstance has no k, x or y attribute: those lines read 0
    out += [f"{key} {getattr(inst, key, 0)}" for key in _SCALAR_KEYS]
    if isinstance(inst, PeInstance):
        for key in _VECTOR_KEYS:
            out.append(f"{key} " + " ".join(map(token.__getitem__, getattr(inst, key))))
    out.append("levels")
    if inst.n > 0:
        for row in inst.profile:
            out.append(" ".join(map(token.__getitem__, row)))
    out += ["end", ""]  # the final newline without a second copy of the document
    return "\n".join(out)


def parse_solution(text: str) -> CommitteeSequence:
    lines = [(i, body.split()) for i, body in _content_lines(text)]
    if not lines:
        raise ParseError(1, "empty document")
    line, tokens = lines[0]
    if tokens != ["ecse-sol", "v1"]:
        raise ParseError(line, "expected header `ecse-sol v1`")
    if len(lines) < 2:
        raise ParseError(line, "missing committee count")
    line, tokens = lines[1]
    if len(tokens) != 1:
        raise ParseError(line, "expected the number of committees")
    tau = _int(tokens[0], line)
    if tau < 1:
        raise ParseError(line, "need at least one committee")
    if len(lines) != 2 + tau:
        raise ParseError(lines[-1][0], f"expected {tau} committee lines, got {len(lines) - 2}")
    committees = []
    for line, tokens in lines[2:]:
        if tokens == ["-"]:
            committees.append(())
            continue
        ids = [_int(tok, line) for tok in tokens]
        if any(c < 1 for c in ids):
            raise ParseError(line, "candidate ids must be positive")
        if ids != sorted(set(ids)):
            raise ParseError(line, "candidate ids must be strictly increasing")
        committees.append(tuple(ids))
    return CommitteeSequence(tuple(committees))


def serialize_solution(seq: CommitteeSequence) -> str:
    out = ["ecse-sol v1", str(len(seq))]
    for committee in seq:
        out.append(" ".join(str(c) for c in committee) if committee else "-")
    return "\n".join(out) + "\n"
