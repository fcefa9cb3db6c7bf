"""The token-based core-content extractor, kept as a test oracle.

This is the extractor the difference engine shipped before the fused
single-pass scanner in :mod:`repro.diffengine.extractor`: it runs
:func:`repro.diffengine.tokenizer.tokenize`, builds one ``Token`` per
lexical unit, and filters the stream.  It is slow but easy to read,
which is what an oracle should be.  It keeps the ``strip_comments`` and
``strip_feed_metadata`` switches the product class no longer has.

The filtering constants are imported from the product module, so a
change to what counts as an ad, a noise element or a timestamp applies
to both sides of the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diffengine.extractor import (
    _AD_EXACT,
    _AD_MARKERS,
    _NOISE_ELEMENTS,
    _TIMESTAMP_TEXT,
)
from repro.diffengine.tokenizer import Token, TokenKind, tokenize


def _looks_like_ad(token: Token) -> bool:
    haystack = " ".join(
        value for key, value in token.attrs if key in ("id", "class", "name")
    ).lower()
    if not haystack:
        return False
    if any(marker in haystack for marker in _AD_MARKERS):
        return True
    return bool(_AD_EXACT.search(haystack))


@dataclass
class CoreContentExtractor:
    """Configurable volatile-element filter.

    The defaults implement the paper's examples (timestamps, counters,
    advertisements); deployments can extend the stop lists per feed.
    """

    noise_elements: frozenset[str] = _NOISE_ELEMENTS
    extra_noise_elements: frozenset[str] = frozenset()
    strip_comments: bool = True
    strip_feed_metadata: bool = True
    strip_timestamp_text: bool = True

    def _is_noise_element(self, name: str) -> bool:
        return name in self.noise_elements or name in self.extra_noise_elements

    def _is_feed_metadata(self, name: str, depth_in_item: int) -> bool:
        if not self.strip_feed_metadata:
            return False
        if name in ("lastbuilddate", "ttl", "skiphours", "skipdays", "cloud",
                    "generator", "docs"):
            return True
        # pubDate / updated are volatile at channel/feed level but are
        # real content inside an item/entry.
        if name in ("pubdate", "updated", "lastmodified") and depth_in_item == 0:
            return True
        return False

    # ------------------------------------------------------------------
    def core_lines(self, document: str) -> list[str]:
        """The document's core content as comparable lines.

        Each retained text fragment and structural tag becomes one
        line, so the differ's line numbers map to document elements and
        the "17 lines of XML per update" granularity of the survey.
        """
        lines: list[str] = []
        suppress_until: str | None = None  # inside a noise subtree
        metadata_until: str | None = None  # inside a metadata element
        item_depth = 0
        for token in tokenize(document):
            if suppress_until is not None:
                if token.kind is TokenKind.CLOSE and token.name == suppress_until:
                    suppress_until = None
                continue
            if metadata_until is not None:
                if token.kind is TokenKind.CLOSE and token.name == metadata_until:
                    metadata_until = None
                continue
            if token.kind is TokenKind.COMMENT:
                if not self.strip_comments:
                    lines.append(token.text.strip())
                continue
            if token.kind is TokenKind.DECLARATION:
                continue
            if token.kind is TokenKind.TEXT:
                text = token.text.strip()
                if not text:
                    continue
                if self.strip_timestamp_text and _TIMESTAMP_TEXT.match(text):
                    continue
                lines.append(text)
                continue
            # Tag tokens ------------------------------------------------
            if token.name in ("item", "entry"):
                if token.kind is TokenKind.OPEN:
                    item_depth += 1
                elif token.kind is TokenKind.CLOSE:
                    item_depth = max(0, item_depth - 1)
            if token.kind in (TokenKind.OPEN, TokenKind.SELFCLOSE):
                if self._is_noise_element(token.name) or _looks_like_ad(token):
                    if token.kind is TokenKind.OPEN:
                        suppress_until = token.name
                    continue
                if self._is_feed_metadata(token.name, item_depth):
                    if token.kind is TokenKind.OPEN:
                        metadata_until = token.name
                    continue
                lines.append(self._normalize_tag(token))
                continue
            if token.kind is TokenKind.CLOSE:
                lines.append(f"</{token.name}>")
        return lines

    @staticmethod
    def _normalize_tag(token: Token) -> str:
        """Render a tag with sorted attributes, dropping session noise."""
        volatile_attrs = ("onclick", "style", "nonce")
        attrs = sorted(
            (key, value)
            for key, value in token.attrs
            if key not in volatile_attrs
        )
        rendered = " ".join(f'{key}="{value}"' for key, value in attrs)
        closing = "/" if token.kind is TokenKind.SELFCLOSE else ""
        if rendered:
            return f"<{token.name} {rendered}{closing}>"
        return f"<{token.name}{closing}>"
