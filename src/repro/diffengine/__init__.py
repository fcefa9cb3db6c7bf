"""The feed-specific difference engine (paper §3.4).

Corona must decide whether a freshly polled copy of a channel carries
*germane* new information.  Raw byte comparison is useless on the Web:
pages embed clocks, hit counters, rotating advertisements and session
tokens that change on every fetch.  The difference engine therefore

1. isolates the *core content* in one tolerant pass over the HTML/XML,
   dropping volatile elements such as timestamps, counters and ads as
   it scans (:mod:`repro.diffengine.extractor`; it splits markup
   exactly as the token-level :mod:`repro.diffengine.tokenizer` the
   feed parsers use),
2. diffs the old and new core content line-wise with a Myers O(ND)
   algorithm, producing POSIX-``diff``-style hunks
   (:mod:`repro.diffengine.differ`), and
3. delta-encodes updates for dissemination and applies/composes them
   at receivers (:mod:`repro.diffengine.delta`).

The Cornell measurement study the paper cites found the average
micronews update is 17 lines of XML and 6.8 % of the content — diffs,
not full contents, are what Corona ships between nodes.
"""

from repro.diffengine.delta import apply_diff, diff_size_bytes
from repro.diffengine.differ import Diff, Hunk, diff_lines
from repro.diffengine.extractor import CoreContentExtractor, extract_core_lines
from repro.diffengine.tokenizer import Token, TokenKind, tokenize

__all__ = [
    "CoreContentExtractor",
    "Diff",
    "Hunk",
    "Token",
    "TokenKind",
    "apply_diff",
    "diff_lines",
    "diff_size_bytes",
    "extract_core_lines",
    "tokenize",
]
