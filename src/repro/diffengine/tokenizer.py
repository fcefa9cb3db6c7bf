"""A tolerant HTML/XML tokenizer.

Real-world feeds and web pages are rarely well formed, so the
difference engine cannot rely on a strict parser.  This tokenizer
never raises on malformed markup: anything that does not scan as a tag
is treated as text, unterminated constructs run to end of input, and
entities are left untouched (the differ compares text verbatim).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    """Lexical classes the extractor dispatches on."""

    OPEN = "open"  # <tag attr="...">
    CLOSE = "close"  # </tag>
    SELFCLOSE = "selfclose"  # <tag/>
    TEXT = "text"
    COMMENT = "comment"  # <!-- ... -->
    DECLARATION = "declaration"  # <!DOCTYPE ...>, <?xml ...?>


@dataclass(frozen=True)
class Token:
    """One lexical unit of the document."""

    kind: TokenKind
    text: str  # raw source slice
    name: str = ""  # lowercased tag name for tag tokens
    attrs: tuple[tuple[str, str], ...] = ()

    def attr(self, key: str, default: str = "") -> str:
        """Case-insensitive attribute lookup."""
        wanted = key.lower()
        for name, value in self.attrs:
            if name == wanted:
                return value
        return default


_TAG_NAME = re.compile(r"[A-Za-z][-A-Za-z0-9:_.]*")
_ATTR = re.compile(
    r"""([A-Za-z][-A-Za-z0-9:_.]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s>]+))?"""
)


def parse_attrs(source: str) -> tuple[tuple[str, str], ...]:
    """``(lowercased name, unquoted value)`` pairs, in source order."""
    attrs = []
    for match in _ATTR.finditer(source):
        name = match.group(1).lower()
        raw = match.group(2) or ""
        if raw[:1] in ("'", '"'):
            raw = raw[1:-1]
        attrs.append((name, raw))
    return tuple(attrs)


def parse_tag(raw: str) -> tuple[TokenKind, str, str] | None:
    """Classify one ``<...>`` slice as ``(kind, name, attribute source)``.

    The attribute source is the text after the tag name, left unparsed
    (empty for closing tags) so callers that drop the tag skip
    :func:`parse_attrs`.  Returns ``None`` when there is no tag name
    after the ``<`` (optionally ``/``): such a slice is text.
    """
    inner = raw[1:-1].strip()
    closing = inner.startswith("/")
    selfclosing = inner.endswith("/") and not closing
    body = inner.strip("/").strip()
    name_match = _TAG_NAME.match(body)
    if name_match is None:
        return None
    kind = (
        TokenKind.CLOSE
        if closing
        else TokenKind.SELFCLOSE
        if selfclosing
        else TokenKind.OPEN
    )
    source = "" if closing else body[name_match.end() :]
    return kind, name_match.group(0).lower(), source


def tokenize(document: str) -> list[Token]:
    """Scan ``document`` into a token stream, never raising.

    Malformed tags (no name after ``<``, stray ``<`` in text) degrade
    to TEXT tokens; comments and declarations without terminators run
    to end of input.
    """
    tokens: list[Token] = []
    position = 0
    length = len(document)
    while position < length:
        lt = document.find("<", position)
        if lt == -1:
            tokens.append(Token(TokenKind.TEXT, document[position:]))
            break
        if lt > position:
            tokens.append(Token(TokenKind.TEXT, document[position:lt]))
        if document.startswith("<!--", lt):
            end = document.find("-->", lt + 4)
            stop = length if end == -1 else end + 3
            tokens.append(Token(TokenKind.COMMENT, document[lt:stop]))
            position = stop
            continue
        if document.startswith("<!", lt) or document.startswith("<?", lt):
            end = document.find(">", lt + 2)
            stop = length if end == -1 else end + 1
            tokens.append(Token(TokenKind.DECLARATION, document[lt:stop]))
            position = stop
            continue
        end = document.find(">", lt + 1)
        if end == -1:
            # Unterminated tag: treat the rest as text.
            tokens.append(Token(TokenKind.TEXT, document[lt:]))
            break
        raw = document[lt : end + 1]
        tag = parse_tag(raw)
        if tag is None:
            tokens.append(Token(TokenKind.TEXT, raw))
        else:
            kind, name, source = tag
            attrs = parse_attrs(source)
            tokens.append(Token(kind, raw, name=name, attrs=attrs))
        position = end + 1
    return tokens


def render(tokens: list[Token]) -> str:
    """Reassemble a token stream into text (inverse of :func:`tokenize`)."""
    return "".join(token.text for token in tokens)
