"""Tokenizer for the Smalltalk subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import CompileError

#: Binary selector characters, as in Smalltalk-80 (\\ is modulo).
_BINARY_CHARS = r"+\-*/~<>=&|@%,?!\\"

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>"[^"]*")
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<atom>\#[A-Za-z_][A-Za-z0-9_]*)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_]*:)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<arrow>>>)
  | (?P<caret>\^)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<period>\.)
  | (?P<semicolon>;)
  | (?P<blockarg>:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bar>\|)
  | (?P<binary>[""" + _BINARY_CHARS + r"""]+)
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Produce the token list, dropping comments and whitespace."""
    tokens: List[Token] = []
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            line += text.count("\n")
            continue
        if kind == "bad":
            raise CompileError(f"line {line}: unexpected character {text!r}")
        # A '-' immediately glued to a number was captured by the number
        # patterns; standalone minus arrives as a binary selector.
        tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens
