"""Core-content isolation: drop volatile page elements before diffing.

The difference engine "parses the HTML or XML content to discover the
core content in the channel, ignoring frequently changing elements
such as timestamps, counters, and advertisements" (§3.4).  Without
this filter almost every poll would look like an update and Corona
would flood its clients with noise.

Three families of volatility are filtered:

* **structural** — elements whose tag or attributes mark them as ads,
  scripts or boilerplate (``<script>``, ``<iframe>``, ids/classes
  containing ``ad``/``banner``/``sponsor``…);
* **feed metadata** — RSS/Atom bookkeeping tags whose churn is not
  content (``lastBuildDate``, ``ttl``, ``updated`` outside entries…);
* **textual** — free-text fragments that scan as pure timestamps or
  counters.

Every poll runs this filter, so it is one pass over the document: a
single compiled alternation splits it into the slices the tolerant
tokenizer (:mod:`repro.diffengine.tokenizer`) would emit, skips
comments, declarations and whitespace-only text inside the regex
engine, and filters the rest inline without building token objects.
Tags repeat across items and polls, so each extractor memoizes what it
decided about every raw tag string it has seen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.diffengine.tokenizer import TokenKind, parse_attrs, parse_tag

#: Elements whose entire subtree is noise for update detection.
_NOISE_ELEMENTS = frozenset(
    {"script", "style", "iframe", "noscript", "object", "embed"}
)

#: Feed-level bookkeeping tags: churn here is not a content update.
_FEED_METADATA = frozenset(
    {"lastbuilddate", "ttl", "skiphours", "skipdays", "cloud", "generator",
     "docs"}
)

#: Volatile at channel/feed level, but real content inside an
#: item/entry.
_CHANNEL_METADATA = frozenset({"pubdate", "updated", "lastmodified"})

_ITEM_ELEMENTS = frozenset({"item", "entry"})

#: Attributes that carry session noise, not content.
_VOLATILE_ATTRS = frozenset({"onclick", "style", "nonce"})

#: Attribute substrings marking advertisement containers.
_AD_MARKERS = ("advert", "banner", "sponsor", "promo", "doubleclick", "adsense")
_AD_EXACT = re.compile(r"(^|[-_\s])ads?([-_\s]|$)")

#: Free text that is nothing but a clock or a counter.
_TIMESTAMP_TEXT = re.compile(
    r"""^\s*(
        \d{1,2}:\d{2}(:\d{2})?(\s*(am|pm|AM|PM))?      # 12:34:56 pm
      | \d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?)?
      | (Mon|Tue|Wed|Thu|Fri|Sat|Sun)[a-z]*,?\s+\d{1,2}\s+\w{3,9}\s+\d{2,4}.*
      | \d{1,3}(,\d{3})*\s*(hits?|views?|visitors?|readers?|comments?)
      | (page\s*)?(views?|hits?|visitors?)\s*:?\s*\d[\d,]*
    )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)

#: The tokenizer's slices, in its priority order.  Comments and
#: declarations match without a group (they yield ``""`` and are
#: dropped); group 1 is a tag — text to the end of the document when
#: no ``>`` follows — or a text run starting at its first non-space
#: character, so whitespace between tags never leaves the regex engine.
_SCAN = re.compile(
    r"""<!--.*?(?:-->|\Z)
      | <[!?][^>]*>?
      | (<[^>]*>?|[^<\s][^<]*)
    """,
    re.DOTALL | re.VERBOSE,
)

#: Verdicts on a tag, fixed per raw tag string for a given extractor.
_KEEP, _DROP, _DROP_AT_CHANNEL = 0, 1, 2

#: Entries an extractor memoizes before it starts over.  Generated
#: feeds yield a few dozen distinct raw tags; the cap only bounds
#: documents whose attributes never repeat.
TAG_MEMO_CAP = 1024

_OPEN, _CLOSE = TokenKind.OPEN, TokenKind.CLOSE


def _looks_like_ad(attrs: tuple[tuple[str, str], ...]) -> bool:
    haystack = " ".join(
        value for key, value in attrs if key in ("id", "class", "name")
    ).lower()
    if not haystack:
        return False
    if any(marker in haystack for marker in _AD_MARKERS):
        return True
    return bool(_AD_EXACT.search(haystack))


def _render_tag(
    kind: TokenKind, name: str, attrs: tuple[tuple[str, str], ...]
) -> str:
    """A tag with sorted attributes, dropping session noise."""
    rendered = " ".join(
        f'{key}="{value}"'
        for key, value in sorted(attrs)
        if key not in _VOLATILE_ATTRS
    )
    closing = "/" if kind is TokenKind.SELFCLOSE else ""
    if rendered:
        return f"<{name} {rendered}{closing}>"
    return f"<{name}{closing}>"


@dataclass(frozen=True)
class CoreContentExtractor:
    """Configurable volatile-element filter.

    The defaults implement the paper's examples (timestamps, counters,
    advertisements); deployments can extend the stop lists per feed.
    Comments and feed metadata are always dropped.
    """

    noise_elements: frozenset[str] = _NOISE_ELEMENTS
    extra_noise_elements: frozenset[str] = frozenset()
    strip_timestamp_text: bool = True
    #: raw tag -> (kind, name, line, verdict).  Verdicts depend on this
    #: extractor's settings, so extractors never share a memo.
    tag_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def core_lines(self, document: str) -> list[str]:
        """The document's core content as comparable lines.

        Each retained text fragment and structural tag becomes one
        line, so the differ's line numbers map to document elements and
        the "17 lines of XML per update" granularity of the survey.
        """
        lines: list[str] = []
        append = lines.append
        tags = self.tag_memo
        timestamp = (
            _TIMESTAMP_TEXT.match if self.strip_timestamp_text else None
        )
        until: str | None = None  # closing name of a skipped subtree
        item_depth = 0
        for piece in _SCAN.findall(document):
            if not piece:  # comment or declaration
                continue
            if piece[0] != "<" or piece[-1] != ">":
                # A text run, or an unterminated tag read as text.
                if until is None:
                    text = piece.rstrip()
                    if timestamp is None or not timestamp(text):
                        append(text)
                continue
            tag = tags.get(piece)
            if tag is None:
                if len(tags) >= TAG_MEMO_CAP:
                    tags.clear()
                tag = tags[piece] = self._classify(piece)
            kind, name, line, verdict = tag
            if until is not None:
                if kind is _CLOSE and name == until:
                    until = None
                continue
            if name in _ITEM_ELEMENTS:
                if kind is _OPEN:
                    item_depth += 1
                elif kind is _CLOSE and item_depth:
                    item_depth -= 1
            if verdict == _KEEP or (
                verdict == _DROP_AT_CHANNEL and item_depth
            ):
                append(line)
            elif kind is _OPEN:
                until = name
        return lines

    def _classify(self, raw: str) -> tuple[TokenKind, str, str, int]:
        """``(kind, name, line, verdict)`` for one raw ``<...>`` slice."""
        parsed = parse_tag(raw)
        if parsed is None:  # no tag name: the slice is text
            clock = self.strip_timestamp_text and _TIMESTAMP_TEXT.match(raw)
            return TokenKind.TEXT, "", raw, _DROP if clock else _KEEP
        kind, name, source = parsed
        if kind is _CLOSE:
            return kind, name, f"</{name}>", _KEEP
        if (
            name in self.noise_elements
            or name in self.extra_noise_elements
            or name in _FEED_METADATA
        ):
            return kind, name, "", _DROP
        attrs = parse_attrs(source)
        if _looks_like_ad(attrs):
            return kind, name, "", _DROP
        verdict = _DROP_AT_CHANNEL if name in _CHANNEL_METADATA else _KEEP
        return kind, name, _render_tag(kind, name, attrs), verdict


_DEFAULT_EXTRACTOR = CoreContentExtractor()


def extract_core_lines(document: str) -> list[str]:
    """Module-level convenience using the default extractor."""
    return _DEFAULT_EXTRACTOR.core_lines(document)
